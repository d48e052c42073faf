(* Latency statistics: nearest-rank percentiles over one run's timed
   requests, and the per-class summary that shows whether a reported
   percentile sits inside one cost mode or on the cliff between two. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [pct]% of the
   samples at or below it.  Integer arithmetic, so p90 of 100 samples
   is exactly the 90th. *)
let nearest_rank a pct =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.nearest_rank: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Pct.nearest_rank: percent outside 1..100";
  a.((((pct * n) + 99) / 100) - 1)

let percentile xs pct = nearest_rank (sorted xs) pct

let median xs = percentile xs 50

type cls = {
  name : string;
  count : int;
  share : float;  (* of all timed requests *)
  lo : float;
  p50 : float;
  p90 : float;
  hi : float;
}

(* One summary per request class, in order of first appearance. *)
let classes (samples : (string * float) list) =
  let total = List.length samples in
  let names =
    List.fold_left
      (fun acc (c, _) -> if List.mem c acc then acc else c :: acc)
      [] samples
    |> List.rev
  in
  List.map
    (fun name ->
      let a =
        sorted (List.filter_map (fun (c, v) -> if c = name then Some v else None) samples)
      in
      let count = Array.length a in
      { name;
        count;
        share = float_of_int count /. float_of_int total;
        lo = a.(0);
        p50 = nearest_rank a 50;
        p90 = nearest_rank a 90;
        hi = a.(count - 1) })
    names

(* The class whose latency range holds both reported percentiles, if
   any: a percentile outside every such range sits between cost modes
   and moves with the class mix rather than with the code. *)
let holding ~p50 ~p90 cls = List.find_opt (fun c -> c.lo <= p50 && p90 <= c.hi) cls
