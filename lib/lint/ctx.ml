(* Whole-scan context: every loaded unit, its effect summaries, and
   the cross-unit facts derived from the real call graph —

     - which units hold code raced by the domain pool (DS001's scope:
       the functions that hand closures to [Pool.map_list]/[submit],
       everyone who calls them, and everything any of that code can
       reach);
     - which functions can reach a [Budget.check] / [Budget.start]
       (BP001's interprocedural pollability);
     - which functions publish via an atomic store (DS003's call-level
       publish points) or release a parameter (RS001's single-exit
       wrapper credit);
     - the interprocedural lock-order graph and its cycles (LK001).

   The import-closure heuristic and BP001's module-local fixpoint from
   earlier versions are gone: both questions are now asked of the same
   graph. *)

type lock_edge = {
  e_from : string;           (* lock identity held *)
  e_to : string;             (* lock identity acquired under it *)
  e_fn : string;             (* function where the nesting occurs *)
  e_unit : string;           (* unit owning [e_fn] *)
  e_loc : Location.t;        (* the inner acquisition / call site *)
  e_via : string list;       (* call chain to the Mutex.lock, [] = direct *)
}

type t = {
  units : Unit_info.t list;
  summaries : (string, Summary.t) Hashtbl.t;      (* by unit modname *)
  graph : Callgraph.t;
  raced_units : (string, unit) Hashtbl.t;
  pool_roots : string list;   (* units containing the pool call sites *)
  polls_reach : (string, unit) Hashtbl.t;         (* fn reaches Budget.check *)
  arms_reach : (string, unit) Hashtbl.t;          (* fn reaches Budget.start *)
  releasers : (string, unit) Hashtbl.t;           (* fn releases one of its params *)
  trans_locks : string -> (string * string list) list;
  mutable_types : (string, unit) Hashtbl.t;
  lock_edges : lock_edge list;
  lock_cycles : lock_edge list list;
}

let reachable t modname = Hashtbl.mem t.raced_units modname

let is_mutable_type t name = Hashtbl.mem t.mutable_types name

let summary_of t modname = Hashtbl.find_opt t.summaries modname

let polls_ip t fn = Hashtbl.mem t.polls_reach fn

let arms_ip t fn = Hashtbl.mem t.arms_reach fn

(* Does a call to [fn] perform an atomic store?  One level deep by
   design: DS003 treats "call a flag-setter like [Budget.cancel]" as a
   publish point, but not arbitrary call chains that eventually touch
   an atomic — that would make every call a publish point. *)
let atomic_publisher t fn =
  match Callgraph.find t.graph fn with
  | Some f -> f.Summary.atomic_pub
  | None -> false

let releases_a_param t fn =
  match Callgraph.find t.graph fn with
  | Some f -> Hashtbl.mem t.releasers f.Summary.fn_name
  | None -> false

let locks_params t fn =
  match Callgraph.find t.graph fn with
  | Some f -> f.Summary.locks_params
  | None -> []

(* ------------------------------------------------------------------ *)
(* Lock-order edge extraction.

   A sequencing-aware walk of each toplevel binding tracking the set
   of lock identities currently held.  Edges come from three shapes:

     - a direct [Mutex.lock l2] while l1 is held;
     - a call, while l1 is held, to a function whose transitive
       summary acquires l2 (witnessed by the call chain);
     - a [with_lock]-style call: the callee locks its parameter [k],
       so the argument at [k] names the lock, and closure arguments
       are scanned as running under it.

   Closure arguments of any call made under a held lock are scanned
   under that lock ([List.iter f xs] under a mutex runs [f] under it);
   bare lambdas not in call position execute later and are scanned
   with nothing held.  Edges whose outer lock is an unresolved
   parameter are dropped — that nesting is attributed at call sites
   through [locks_params] instead. *)

let lock_edges_of_unit graph trans_locks (u : Unit_info.t) (s : Summary.t) =
  let short = s.Summary.s_short in
  let edges = ref [] in
  let emit ~fn ~loc ~via held l =
    List.iter
      (fun h ->
        if h <> l && not (String.length h >= 6 && String.sub h 0 6 = "param:") then
          edges :=
            { e_from = h; e_to = l; e_fn = fn; e_unit = u.Unit_info.modname;
              e_loc = loc; e_via = via }
            :: !edges)
      held
  in
  let toplevel = Summary.toplevel_lookup ~short u.Unit_info.structure in
  let walk_binding ~fn ~params body =
    let ident_of e =
      match Summary.lock_identity ~short ~params ~toplevel e with
      | Some (`Id l) -> Some l
      | Some (`Param i) -> Some ("param:" ^ string_of_int i)
      | None -> None
    in
    let rec walk held (e : Typedtree.expression) =
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply _ -> (
        let head, args = Tt_util.flatten_apply e in
        match head.Typedtree.exp_desc with
        | Typedtree.Texp_ident (p, _, _) ->
          if Tt_util.path_is [ "Mutex.lock" ] p then (
            match args with
            | m :: _ -> (
              match ident_of m with
              | Some l ->
                emit ~fn ~loc:e.Typedtree.exp_loc ~via:[] held l;
                l :: held
              | None -> held)
            | [] -> held)
          else if Tt_util.path_is [ "Mutex.unlock" ] p then (
            match args with
            | m :: _ -> (
              match ident_of m with
              | Some l -> List.filter (fun h -> h <> l) held
              | None -> held)
            | [] -> held)
          else begin
            let name = Tt_util.norm_path ~short p in
            let callee = Callgraph.find graph name in
            (match callee with
            | Some g ->
              List.iter
                (fun (l, chain) -> emit ~fn ~loc:e.Typedtree.exp_loc ~via:chain held l)
                (trans_locks g.Summary.fn_name)
            | None -> ());
            (* A with_lock-style callee: the argument at each locked
               parameter position names a lock its closures run under. *)
            let extra =
              match callee with
              | Some g ->
                List.filter_map
                  (fun i ->
                    match List.nth_opt args i with
                    | Some a -> (
                      match ident_of a with
                      | Some l ->
                        emit ~fn ~loc:e.Typedtree.exp_loc ~via:[ name ] held l;
                        Some l
                      | None -> None)
                    | None -> None)
                  g.Summary.locks_params
              | None -> []
            in
            let inner = extra @ held in
            List.iter
              (fun (a : Typedtree.expression) ->
                match a.Typedtree.exp_desc with
                | Typedtree.Texp_function { cases; _ } ->
                  List.iter
                    (fun (c : _ Typedtree.case) ->
                      ignore (walk inner c.Typedtree.c_rhs))
                    cases
                | _ -> ignore (walk held a))
              args;
            held
          end
        | _ ->
          List.iter (fun a -> ignore (walk held a)) (Tt_util.sub_exprs e);
          held)
      | Typedtree.Texp_sequence (a, b) -> walk (walk held a) b
      | Typedtree.Texp_let (_, vbs, body) ->
        let held =
          List.fold_left (fun h vb -> walk h vb.Typedtree.vb_expr) held vbs
        in
        walk held body
      | Typedtree.Texp_function { cases; _ } ->
        (* A lambda not in call position runs later, with nothing held. *)
        List.iter (fun (c : _ Typedtree.case) -> ignore (walk [] c.Typedtree.c_rhs)) cases;
        held
      | Typedtree.Texp_match (s, cases, _) ->
        let held' = walk held s in
        List.iter (fun (c : _ Typedtree.case) -> ignore (walk held' c.Typedtree.c_rhs)) cases;
        held'
      | Typedtree.Texp_try (b, cases) ->
        let _ = walk held b in
        List.iter (fun (c : _ Typedtree.case) -> ignore (walk held c.Typedtree.c_rhs)) cases;
        held
      | _ ->
        List.iter (fun a -> ignore (walk held a)) (Tt_util.sub_exprs e);
        held
    in
    ignore (walk [] body)
  in
  Tt_util.iter_toplevel_bindings u.Unit_info.structure (fun ~name vb ->
      let fn = short ^ "." ^ Option.value name ~default:"<toplevel>" in
      let params = Summary.collect_params vb.Typedtree.vb_expr in
      walk_binding ~fn ~params vb.Typedtree.vb_expr);
  List.rev !edges

(* Deduplicate to one witness per (from, to) pair. *)
let dedupe_edges edges =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen (e.e_from, e.e_to) then false
      else begin
        Hashtbl.replace seen (e.e_from, e.e_to) ();
        true
      end)
    edges

(* Cycles in the lock graph: for each edge a -> b, a BFS for a path of
   edges from b back to a; the cycle is that path plus the edge.
   Deduplicated by the set of locks involved. *)
let find_cycles edges =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace adj e.e_from
        (e :: (try Hashtbl.find adj e.e_from with Not_found -> [])))
    edges;
  let path_back src dst =
    (* BFS from [src] to [dst] over edges; returns the edge path. *)
    let q = Queue.create () and seen = Hashtbl.create 16 in
    Queue.push (src, []) q;
    Hashtbl.replace seen src ();
    let rec bfs () =
      if Queue.is_empty q then None
      else
        let node, path = Queue.pop q in
        if node = dst then Some (List.rev path)
        else begin
          List.iter
            (fun e ->
              if not (Hashtbl.mem seen e.e_to) then begin
                Hashtbl.replace seen e.e_to ();
                Queue.push (e.e_to, e :: path) q
              end)
            (try Hashtbl.find adj node with Not_found -> []);
          bfs ()
        end
    in
    bfs ()
  in
  let seen_cycles = Hashtbl.create 8 in
  List.filter_map
    (fun e ->
      match path_back e.e_to e.e_from with
      | None -> None
      | Some back ->
        let cycle = e :: back in
        let key = List.sort_uniq compare (List.map (fun e -> e.e_from) cycle) in
        if Hashtbl.mem seen_cycles key then None
        else begin
          Hashtbl.replace seen_cycles key ();
          Some cycle
        end)
    edges

(* ------------------------------------------------------------------ *)

let build units summaries =
  let stbl = Hashtbl.create 64 in
  List.iter2
    (fun (u : Unit_info.t) s -> Hashtbl.replace stbl u.Unit_info.modname s)
    units summaries;
  let graph = Callgraph.build summaries in
  let raced_fns = Callgraph.raced_set graph (fun f -> f.Summary.pools) in
  let raced_units = Hashtbl.create 64 in
  Hashtbl.iter
    (fun fn () ->
      match Callgraph.owner graph fn with
      | Some m -> Hashtbl.replace raced_units m ()
      | None -> ())
    raced_fns;
  (* Pool call sites outside any toplevel binding still race their
     unit even though no function node carries them. *)
  List.iter
    (fun (u : Unit_info.t) ->
      if u.Unit_info.pool_call_sites <> [] then
        Hashtbl.replace raced_units u.Unit_info.modname ())
    units;
  let pool_roots =
    List.filter_map
      (fun (u : Unit_info.t) ->
        if u.Unit_info.pool_call_sites <> [] then Some u.Unit_info.modname else None)
      units
  in
  let polls_reach = Callgraph.reaches graph (fun f -> f.Summary.polls) in
  let arms_reach = Callgraph.reaches graph (fun f -> f.Summary.arms) in
  let releasers = Callgraph.releasers graph in
  let trans_locks = Callgraph.transitive_locks graph in
  let mutable_types = Hashtbl.create 64 in
  List.iter
    (fun (u : Unit_info.t) ->
      let short = Tt_util.short_of_unit u.Unit_info.modname in
      List.iter
        (fun ty ->
          Hashtbl.replace mutable_types (u.Unit_info.modname ^ "." ^ ty) ();
          if short <> u.Unit_info.modname then
            Hashtbl.replace mutable_types (short ^ "." ^ ty) ())
        u.Unit_info.mutable_record_types)
    units;
  let lock_edges =
    dedupe_edges
      (List.concat_map
         (fun (u : Unit_info.t) ->
           match Hashtbl.find_opt stbl u.Unit_info.modname with
           | Some s -> lock_edges_of_unit graph trans_locks u s
           | None -> [])
         units)
  in
  let lock_cycles = find_cycles lock_edges in
  { units;
    summaries = stbl;
    graph;
    raced_units;
    pool_roots;
    polls_reach;
    arms_reach;
    releasers;
    trans_locks;
    mutable_types;
    lock_edges;
    lock_cycles }
