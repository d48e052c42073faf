type check = {
  id : string;
  title : string;
  default_severity : Finding.severity;
  doc : string;
  run : Ctx.t -> Unit_info.t -> Finding.t list;
}

let all =
  [ { id = Ds001.id;
      title = "toplevel mutable state in Pool-raced code";
      default_severity = Finding.Error;
      doc =
        "toplevel ref/Hashtbl/Buffer/mutable-record state in a module \
         reachable from Pool.map_list/Pool.submit call sites without \
         Atomic/Mutex/Domain.DLS protection";
      run = Ds001.check };
    { id = Ds002.id;
      title = "global Random state";
      default_severity = Finding.Error;
      doc =
        "use of Stdlib.Random (Random.int, Random.self_init, ...) instead of \
         explicit Ec_util.Rng streams";
      run = Ds002.check };
    { id = Ds003.id;
      title = "non-atomic write after the publishing store/unlock";
      default_severity = Finding.Error;
      doc =
        "a plain mutable write sequenced after the Atomic store or \
         Mutex.unlock that publishes the same state: observers of the \
         publish may never see the write (the pre-fix Watchdog.cancel_entry \
         bug class)";
      run = Ds003.check };
    { id = Bp001.id;
      title = "arms a budget with no reachable poll";
      default_severity = Finding.Error;
      doc =
        "a binding that reaches Budget.start but not Budget.check in the \
         whole-program call graph (or a looping solve* entry with no \
         reachable poll): budgets and cancellation cannot stop it";
      run = Bp001.check };
    { id = Lk001.id;
      title = "lock-order cycle across the scan";
      default_severity = Finding.Error;
      doc =
        "a cycle in the interprocedural Mutex nesting graph (lock B taken \
         while holding A on one path, A under B on another): a potential \
         deadlock; both acquisition paths are printed";
      run = Lk001.check };
    { id = Rs001.id;
      title = "acquired handle with no release or owner";
      default_severity = Finding.Error;
      doc =
        "a Unix.openfile/socket/accept, Domain.spawn or Pool.create handle \
         that neither escapes its defining function nor reaches a \
         close/join/shutdown (Fun.protect and releasing wrappers credited)";
      run = Rs001.check };
    { id = Ex001.id;
      title = "catch-all exception handler";
      default_severity = Finding.Error;
      doc =
        "try ... with _ -> (or an unused binding) that swallows every \
         exception, including fault and cancellation signals";
      run = Ex001.check };
    { id = Fp001.id;
      title = "decisive answer without certification";
      default_severity = Finding.Error;
      doc =
        "a Backend/Flow binding constructing Sat/Unsat (or Feasible/Optimal) \
         that never touches Certify";
      run = Fp001.check } ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun c -> String.uppercase_ascii c.id = id) all
