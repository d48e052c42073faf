(* DS001 — toplevel mutable state in a module raced by the domain
   pool.

   The paper tables and the serve daemon run closures on separate
   OCaml 5 domains ([Ec_util.Pool.map_list] / [submit]); any code
   those raced closures can reach executes concurrently.  A toplevel
   [ref], [Hashtbl.t], [Buffer.t], [Queue.t], [Stack.t] or value of a
   mutable-field record type in such a module is shared unsynchronized
   state — a data race under the OCaml memory model unless it is an
   [Atomic.t], sits behind a [Mutex.t], or is domain-local
   ([Domain.DLS]).

   Scope comes from the real call graph ({!Ctx.reachable}): the
   functions that hand closures to the pool, everyone who (transitively)
   calls them — they built the closures, so state they capture is
   raced — and everything that code can reach.  The import-closure
   heuristic this replaces could not see a wrapper in another unit
   handing a closure over state the wrapper's unit never imports; the
   graph can.  The lint still cannot see a mutex *protocol*, so
   deliberately lock-guarded tables must carry a waiver naming the
   lock. *)

let id = "DS001"

(* Type heads that are themselves mutable containers. *)
let mutable_heads =
  [ "ref"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "Bytes.t" ]

(* Type heads that are safe to share: atomics, locks (the lock *is*
   the protection), and domain-local storage. *)
let protected_heads =
  [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t";
    "Semaphore.Binary.t"; "Domain.DLS.key" ]

(* Constructor expressions whose result is a fresh mutable container —
   a syntactic fallback for when the type head is an opaque alias. *)
let mutable_makers =
  [ "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create"; "Stack.create";
    "Bytes.create"; "Bytes.make" ]

let rec expr_head_is suffixes (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> expr_head_is suffixes f
  | Typedtree.Texp_ident (p, _, _) -> Tt_util.path_is suffixes p
  | _ -> false

let classify ctx ~local_mutable_types (ty : Types.type_expr) =
  match Tt_util.head_constr ty with
  | None -> `Other
  | Some head ->
    if List.exists (Tt_util.ends_with_segment head) protected_heads then `Protected
    else if List.exists (Tt_util.ends_with_segment head) mutable_heads then
      `Mutable head
    else
      (* A record type with mutable fields.  Unqualified heads can
         only name a type of the unit under scrutiny; qualified heads
         are matched by their last two path segments against every
         declaration in the scan. *)
      let segs = List.rev (String.split_on_char '.' head) in
      let hit =
        match segs with
        | [ bare ] -> List.mem bare local_mutable_types
        | t :: m :: _ -> Ctx.is_mutable_type ctx (m ^ "." ^ t)
        | [] -> false
      in
      if hit then `Mutable (head ^ " (record with mutable fields)") else `Other

let check ctx (u : Unit_info.t) =
  if not (Ctx.reachable ctx u.Unit_info.modname) then []
  else begin
    let findings = ref [] in
    Tt_util.iter_toplevel_bindings u.Unit_info.structure (fun ~name vb ->
        let ty = vb.Typedtree.vb_pat.Typedtree.pat_type in
        let hit =
          match
            classify ctx ~local_mutable_types:u.Unit_info.mutable_record_types ty
          with
          | `Protected -> None
          | `Mutable head -> Some head
          | `Other ->
            if expr_head_is mutable_makers vb.Typedtree.vb_expr then
              Some "mutable container (by construction)"
            else None
        in
        match hit with
        | None -> ()
        | Some head ->
          let roots =
            match ctx.Ctx.pool_roots with
            | [] -> ""
            | rs ->
              Printf.sprintf " (raced via Pool call sites in: %s)"
                (String.concat ", "
                   (List.filteri (fun i _ -> i < 3) (List.sort compare rs)))
          in
          findings :=
            Finding.make ~check:id ~severity:Finding.Error
              ~loc:vb.Typedtree.vb_loc
              (Printf.sprintf
                 "toplevel mutable state%s: %s is shared across domains%s; \
                  use Atomic/Mutex/Domain.DLS or waive with the guarding \
                  discipline"
                 (match name with None -> "" | Some n -> " `" ^ n ^ "'")
                 head roots)
            :: !findings);
    List.rev !findings
  end
