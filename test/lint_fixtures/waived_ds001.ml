(* Same shape as Bad_ds001, but carrying a waiver: the finding must
   still be reported, marked waived, and must not gate the exit code. *)

(* eclint: allow DS001 — lint fixture: exercised single-domain only *)
let hit_count = ref 0

let race_both f g =
  Ec_util.Pool.with_pool 2 (fun pool ->
      Ec_util.Pool.map_list pool
        (fun h ->
          incr hit_count;
          h ())
        [ f; g ])
