(* Per-function effect summaries — the data the cross-unit call graph
   is built from.

   One summary per toplevel binding (submodule bindings included): the
   values it references (the out-edges of the call graph, keyed by
   canonical "Short.name" spellings), whether its body arms or polls a
   [Budget], loops, touches the domain pool, performs an atomic store
   or a [Mutex.unlock], which locks it acquires and under what
   identity, and how it treats its parameters (locked, released,
   forwarded).  Summaries are plain marshalable data — no typedtree
   pointers — so a scan can cache them keyed by the [.cmt] digest and
   skip re-extraction for unchanged units (see {!Cache}).

   Everything here is a deliberate over-approximation in the safe
   direction for each consumer: referencing a function counts as
   possibly calling it (more reachability, never less), and effects
   are collected across the whole body including nested closures. *)

type func = {
  fn_name : string;         (* canonical "Short.binding" *)
  fn_aliases : string list; (* extra spellings: submodule-qualified, unit-qualified *)
  fn_loc : Location.t;
  params : string list;     (* leading curried parameter idents, unique names *)
  calls : string list;      (* canonical names of referenced values *)
  arms : bool;              (* references Budget.start *)
  polls : bool;             (* references Budget.check *)
  pools : bool;             (* references a Pool entry point *)
  loops : bool;             (* while/for or recursive let anywhere in the body *)
  atomic_pub : bool;        (* performs Atomic.store/set/exchange/compare_and_set *)
  unlocks : bool;           (* performs Mutex.unlock *)
  acquires : string list;   (* lock identities of direct Mutex.lock calls *)
  locks_params : int list;  (* parameter positions locked directly (with_lock-style) *)
  releases_param : bool;    (* applies close/join/shutdown to one of its params *)
  forwards_params : string list; (* callees receiving one of this fn's params *)
}

type t = {
  s_unit : string;          (* compilation unit name, e.g. "Ec_util__Pool" *)
  s_short : string;         (* "Pool" *)
  funcs : func list;
}

let atomic_pub_ops =
  [ "Atomic.store"; "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set" ]

let release_ops =
  [ "Unix.close"; "Unix.shutdown"; "Domain.join"; "Pool.shutdown";
    "Thread.join"; "close_in"; "close_out" ]

(* The leading curried parameters of a binding: peel single-case
   [fun x -> ...] layers while the pattern is a plain variable. *)
let rec collect_params (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function { cases = [ c ]; _ } -> (
    let pat_var (p : Typedtree.pattern) =
      match p.Typedtree.pat_desc with
      | Typedtree.Tpat_var (id, _) -> Some id
      | Typedtree.Tpat_alias (_, id, _) -> Some id
      | _ -> None
    in
    match pat_var c.Typedtree.c_lhs with
    | Some id -> id :: collect_params c.Typedtree.c_rhs
    | None -> [])
  | _ -> []

(* Module-level bindings of a unit, keyed by ident: a same-unit
   reference to a toplevel mutex is a bare [Pident] in the typedtree,
   and it must resolve to the same "Short.name" identity other units
   use for that lock — otherwise the two spellings never meet in the
   lock graph. *)
let toplevel_lookup ~short (str : Typedtree.structure) =
  let tbl = Hashtbl.create 16 in
  Tt_util.iter_toplevel_bindings str (fun ~name vb ->
      match (name, vb.Typedtree.vb_pat.Typedtree.pat_desc) with
      | Some n, Typedtree.Tpat_var (id, _) ->
        Hashtbl.replace tbl (Ident.unique_name id) (short ^ "." ^ n)
      | _ -> ());
  fun id -> Hashtbl.find_opt tbl (Ident.unique_name id)

(* Identity of a lock expression, for the lock-order graph.  Three
   shapes resolve:
     - a global:        "Fault.lock"          (module-level mutex)
     - a record field:  "Pool.t.mutex"        (per-value mutex, keyed by
                                               the owning type — one
                                               identity per type, which
                                               is what lock ORDER is
                                               about)
     - a local binding: "local:Mod.fn/m_308" (unique per binding)
   A parameter of the enclosing function resolves through
   [locks_params] at call sites instead and returns [`Param i]. *)
let lock_identity ~short ~params ~toplevel (e : Typedtree.expression) =
  let go (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
      let rec idx i = function
        | [] -> None
        | p :: _ when Ident.same p id -> Some i
        | _ :: tl -> idx (i + 1) tl
      in
      match idx 0 params with
      | Some i -> Some (`Param i)
      | None -> (
        match toplevel id with
        | Some g -> Some (`Id g)
        | None -> Some (`Id ("local:" ^ short ^ "/" ^ Ident.unique_name id))))
    | Typedtree.Texp_ident (p, _, _) ->
      Some (`Id (Tt_util.norm_qualified (Path.name p)))
    | Typedtree.Texp_field (b, _, lbl) -> (
      match Tt_util.head_constr b.Typedtree.exp_type with
      | Some ty ->
        let ty = Tt_util.norm_qualified ty in
        let ty = if String.contains ty '.' then ty else short ^ "." ^ ty in
        Some (`Id (ty ^ "." ^ lbl.Types.lbl_name))
      | None -> None)
    | _ -> None
  in
  go e

(* Extract the summary of one binding body. *)
let of_binding ~short ~toplevel ~name ~loc (body : Typedtree.expression) =
  let params = collect_params body in
  let param_names = List.map Ident.unique_name params in
  let calls = Hashtbl.create 16 in
  let arms = ref false and polls = ref false and pools = ref false in
  let loops = ref false and atomic_pub = ref false and unlocks = ref false in
  let acquires = ref [] and locks_params = ref [] in
  let releases_param = ref false and forwards = ref [] in
  let is_param e =
    match Tt_util.root_of e with
    | Some r ->
      String.length r > 2 && List.mem (String.sub r 2 (String.length r - 2)) param_names
    | None -> false
  in
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_while _ | Typedtree.Texp_for _
          | Typedtree.Texp_let (Asttypes.Recursive, _, _) -> loops := true
          | Typedtree.Texp_ident (p, _, _) ->
            Hashtbl.replace calls (Tt_util.norm_path ~short p) ();
            if Tt_util.path_is [ "Budget.start" ] p then arms := true;
            if Tt_util.path_is [ "Budget.check" ] p then polls := true;
            if Tt_util.path_is Unit_info.pool_entry_points p then pools := true;
            if Tt_util.path_is atomic_pub_ops p then atomic_pub := true;
            if Tt_util.path_is [ "Mutex.unlock" ] p then unlocks := true
          | Typedtree.Texp_apply _ -> (
            let head, args = Tt_util.flatten_apply e in
            match head.Typedtree.exp_desc with
            | Typedtree.Texp_ident (p, _, _) ->
              (if Tt_util.path_is [ "Mutex.lock" ] p then
                 match args with
                 | m :: _ -> (
                   match lock_identity ~short ~params ~toplevel m with
                   | Some (`Param i) ->
                     if not (List.mem i !locks_params) then
                       locks_params := i :: !locks_params
                   | Some (`Id l) ->
                     if not (List.mem l !acquires) then acquires := l :: !acquires
                   | None -> ())
                 | [] -> ());
              if Tt_util.path_is release_ops p && List.exists is_param args then
                releases_param := true;
              if List.exists is_param args then
                forwards := Tt_util.norm_path ~short p :: !forwards
            | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e) }
  in
  it.expr it body;
  { fn_name = short ^ "." ^ name;
    fn_aliases = [];
    fn_loc = loc;
    params = param_names;
    calls = Hashtbl.fold (fun k () acc -> k :: acc) calls [];
    arms = !arms;
    polls = !polls;
    pools = !pools;
    loops = !loops;
    atomic_pub = !atomic_pub;
    unlocks = !unlocks;
    acquires = !acquires;
    locks_params = List.sort_uniq compare !locks_params;
    releases_param = !releases_param;
    forwards_params = List.sort_uniq compare !forwards }

(* Enumerate the toplevel bindings of a unit, tracking the submodule
   path so [M.helper] inside unit [U] is reachable both as "U.helper"
   and "M.helper" — the latter is how same-unit references to it
   print. *)
let of_unit (u : Unit_info.t) =
  let short = Tt_util.short_of_unit u.Unit_info.modname in
  let funcs = ref [] in
  let anon = ref 0 in
  let toplevel = toplevel_lookup ~short u.Unit_info.structure in
  let rec go_items prefix items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let name =
                match vb.Typedtree.vb_pat.Typedtree.pat_desc with
                | Typedtree.Tpat_var (id, _) -> Ident.name id
                | _ ->
                  incr anon;
                  Printf.sprintf "<toplevel:%d>" !anon
              in
              let f =
                of_binding ~short ~toplevel ~name ~loc:vb.Typedtree.vb_loc
                  vb.Typedtree.vb_expr
              in
              let aliases =
                (match prefix with
                | [] -> []
                | p -> [ String.concat "." (List.rev p) ^ "." ^ name ])
                @
                if u.Unit_info.modname <> short then
                  [ u.Unit_info.modname ^ "." ^ name ]
                else []
              in
              funcs := { f with fn_aliases = aliases } :: !funcs)
            vbs
        | Typedtree.Tstr_module mb -> go_module prefix mb
        | Typedtree.Tstr_recmodule mbs -> List.iter (go_module prefix) mbs
        | _ -> ())
      items
  and go_module prefix (mb : Typedtree.module_binding) =
    let sub =
      match mb.Typedtree.mb_id with Some id -> Ident.name id | None -> "_"
    in
    let rec go (me : Typedtree.module_expr) =
      match me.Typedtree.mod_desc with
      | Typedtree.Tmod_structure s -> go_items (sub :: prefix) s.Typedtree.str_items
      | Typedtree.Tmod_constraint (me, _, _, _) -> go me
      | _ -> ()
    in
    go mb.Typedtree.mb_expr
  in
  go_items [] u.Unit_info.structure.Typedtree.str_items;
  { s_unit = u.Unit_info.modname; s_short = short; funcs = List.rev !funcs }
