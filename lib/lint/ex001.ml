(* EX001 — catch-all exception handlers that discard the exception.

   A [try ... with _ -> ...] (or a handler that binds the exception
   and never looks at it) swallows *everything*: fault-injection
   signals ([Ec_util.Fault.Injected]), certification failures, and any
   future cancellation exception — exactly the signals the
   solve stack's demotion logic ([Certify], [Backend.guarded]) depends
   on seeing.  Handlers must match
   specific exceptions, or bind the exception and reify/re-raise it so
   the caller can tell what happened.  Deliberate containment walls
   carry a waiver naming why swallowing is safe there. *)

let id = "EX001"

(* A value pattern that matches every exception: a wildcard, a bare
   variable, an alias of one, or an or-pattern with such a branch.
   Returns the binding ident when there is one. *)
let rec catch_all (pat : Typedtree.pattern) =
  match pat.Typedtree.pat_desc with
  | Typedtree.Tpat_any -> Some None
  | Typedtree.Tpat_var (id, _) -> Some (Some id)
  | Typedtree.Tpat_alias (p, id, _) -> (
    match catch_all p with Some _ -> Some (Some id) | None -> Some (Some id))
  | Typedtree.Tpat_or (a, b, _) -> (
    match catch_all a with Some r -> Some r | None -> catch_all b)
  | _ -> None

let case_finding (c : Typedtree.value Typedtree.case) =
  if c.Typedtree.c_guard <> None then None
  else
    match catch_all c.Typedtree.c_lhs with
    | None -> None
    | Some bound ->
      let discards =
        match bound with
        | None -> true
        | Some id -> not (Tt_util.expr_uses_ident id c.Typedtree.c_rhs)
      in
      if discards then
        Some
          (Finding.make ~check:id ~severity:Finding.Error
             ~loc:c.Typedtree.c_lhs.Typedtree.pat_loc
             "catch-all handler discards the exception: it can swallow \
              fault/cancellation signals and break answer demotion; match \
              specific exceptions, or bind and re-raise/reify the exception")
      else None

let check _ctx (u : Unit_info.t) =
  let findings = ref [] in
  Tt_util.iter_expressions u.Unit_info.structure (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_try (_, cases) ->
        List.iter
          (fun c -> match case_finding c with
            | Some f -> findings := f :: !findings
            | None -> ())
          cases
      | Typedtree.Texp_match (_, cases, _) ->
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            match Typedtree.split_pattern c.Typedtree.c_lhs with
            | _, Some exn_pat ->
              let vc =
                { Typedtree.c_lhs = exn_pat;
                  c_guard = c.Typedtree.c_guard;
                  c_rhs = c.Typedtree.c_rhs }
              in
              (match case_finding vc with
              | Some f -> findings := f :: !findings
              | None -> ())
            | _, None -> ())
          cases
      | _ -> ());
  List.rev !findings
