(* DS002 — use of the global [Random] state.

   [Stdlib.Random] keeps one implicit generator per domain; drawing
   from it makes results depend on scheduling and on every other
   caller, which breaks the repository's replayability contract (every
   experiment re-runnable from a single seed) and, pre-5.0 idioms like
   [Random.self_init], can alias streams across domains.  All
   randomness must come from explicit [Ec_util.Rng] streams. *)

let id = "DS002"

let check _ctx (u : Unit_info.t) =
  let findings = ref [] in
  Tt_util.iter_paths_in_structure u.Unit_info.structure (fun p loc ->
      let name = Path.name p in
      if
        Tt_util.path_mentions name "Random"
        && not (Tt_util.path_mentions name "Rng")
      then
        findings :=
          Finding.make ~check:id ~severity:Finding.Error ~loc
            (Printf.sprintf
               "global Random state (%s): draw from an explicit Ec_util.Rng \
                stream instead (replayable, domain-safe)"
               name)
          :: !findings);
  List.rev !findings
