(* BP001 — code that arms a budget but can never reach the poll.

   Every engine accepts an [Ec_util.Budget.t] and must observe it
   cooperatively: [Budget.start] arms a per-solve gauge and
   [Budget.check] is the poll that makes deadlines, conflict caps and
   the serve watchdog's cancellation actually stop the solve.  A
   binding from which a gauge is armed but no [Budget.check] is
   reachable runs to completion no matter what the caller asked for —
   under serve, a pool domain that never observes its cancellation
   flag.

   This check asks the whole-program call graph, not a module-local
   fixpoint: a binding is flagged when

     - it can reach a [Budget.start] but cannot reach a
       [Budget.check] — arming through a cross-unit helper no longer
       hides the gauge, and polling through a cross-unit delegate is
       properly credited (the old "non-looping [solve*] wrapper"
       carve-out is gone: delegating wrappers now reach the poll
       through their callees and exonerate themselves); or
     - it is a [solve*]-named entry point whose body loops and no
       poll is reachable — a spinning solve under a budget it never
       reads, whether or not it armed the gauge itself.

   Polling through a function argument (a [~check] callback) is still
   credited lexically to whoever builds the callback, which is where
   the gauge lives. *)

let id = "BP001"

let short_name fn =
  match String.rindex_opt fn '.' with
  | Some i -> String.sub fn (i + 1) (String.length fn - i - 1)
  | None -> fn

let is_solve_named fn =
  let n = String.lowercase_ascii (short_name fn) in
  String.length n >= 5 && String.sub n 0 5 = "solve"

let check ctx (u : Unit_info.t) =
  match Ctx.summary_of ctx u.Unit_info.modname with
  | None -> []
  | Some s ->
    List.filter_map
      (fun (f : Summary.func) ->
        let polls = Ctx.polls_ip ctx f.Summary.fn_name in
        let arms = Ctx.arms_ip ctx f.Summary.fn_name in
        let flagged =
          (not polls)
          && (arms || (is_solve_named f.Summary.fn_name && f.Summary.loops))
        in
        if flagged then
          Some
            (Finding.make ~check:id ~severity:Finding.Error ~loc:f.Summary.fn_loc
               (Printf.sprintf
                  "`%s' %s but no Budget.check is reachable from it in the \
                   whole-program call graph: deadlines, caps and watchdog \
                   cancellation cannot stop it"
                  (short_name f.Summary.fn_name)
                  (if arms then "arms a Budget (possibly through a callee)"
                   else "is a looping solve entry point")))
        else None)
      s.Summary.funcs
