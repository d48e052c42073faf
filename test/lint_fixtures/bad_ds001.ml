(* DS001 fixture: toplevel mutable state in a module whose closures
   run on the domain pool — the ref below is raced, unprotected. *)

let hit_count = ref 0

let race_both f g =
  Ec_util.Pool.with_pool 2 (fun pool ->
      Ec_util.Pool.map_list pool
        (fun h ->
          incr hit_count;
          h ())
        [ f; g ])
