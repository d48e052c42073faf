(* Cross-unit DS001 support: the Pool.map_list call site lives here,
   one unit away from the state it races.  Clean on its own — the raced
   state belongs to Bad_ds001_cross, whose closures this wrapper runs
   on worker domains. *)

let run_raced f g =
  Ec_util.Pool.with_pool 2 (fun pool -> Ec_util.Pool.map_list pool (fun h -> h ()) [ f; g ])
