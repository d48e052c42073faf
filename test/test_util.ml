(* Tests for Ec_util: Vec, Rng, Stats, Tablefmt, Idx_heap, Pool. *)

let check = Alcotest.check

(* ---- Vec ---- *)

let test_vec_push_pop () =
  let v = Ec_util.Vec.create ~dummy:0 () in
  check Alcotest.bool "empty" true (Ec_util.Vec.is_empty v);
  Ec_util.Vec.push v 1;
  Ec_util.Vec.push v 2;
  Ec_util.Vec.push v 3;
  check Alcotest.int "length" 3 (Ec_util.Vec.length v);
  check Alcotest.int "top" 3 (Ec_util.Vec.top v);
  check Alcotest.int "pop" 3 (Ec_util.Vec.pop v);
  check Alcotest.int "length after pop" 2 (Ec_util.Vec.length v)

let test_vec_get_set () =
  let v = Ec_util.Vec.make 4 7 in
  check Alcotest.int "make fills" 7 (Ec_util.Vec.get v 3);
  Ec_util.Vec.set v 2 9;
  check Alcotest.int "set" 9 (Ec_util.Vec.get v 2);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec.get: index 4 out of bounds [0,4)") (fun () ->
      ignore (Ec_util.Vec.get v 4))

let test_vec_growth () =
  let v = Ec_util.Vec.create ~capacity:1 ~dummy:(-1) () in
  for i = 0 to 99 do
    Ec_util.Vec.push v i
  done;
  check Alcotest.int "length" 100 (Ec_util.Vec.length v);
  check Alcotest.int "first" 0 (Ec_util.Vec.get v 0);
  check Alcotest.int "last" 99 (Ec_util.Vec.get v 99)

let test_vec_swap_remove () =
  let v = Ec_util.Vec.of_list ~dummy:0 [ 10; 20; 30; 40 ] in
  let removed = Ec_util.Vec.swap_remove v 1 in
  check Alcotest.int "removed" 20 removed;
  check Alcotest.int "length" 3 (Ec_util.Vec.length v);
  check Alcotest.int "hole filled by last" 40 (Ec_util.Vec.get v 1)

let test_vec_shrink_clear () =
  let v = Ec_util.Vec.of_list ~dummy:0 [ 1; 2; 3; 4; 5 ] in
  Ec_util.Vec.shrink v 2;
  check (Alcotest.list Alcotest.int) "shrunk" [ 1; 2 ] (Ec_util.Vec.to_list v);
  Ec_util.Vec.clear v;
  check Alcotest.bool "cleared" true (Ec_util.Vec.is_empty v);
  Alcotest.check_raises "shrink grows" (Invalid_argument "Vec.shrink") (fun () ->
      Ec_util.Vec.shrink v 1)

let test_vec_iterators () =
  let v = Ec_util.Vec.of_list ~dummy:0 [ 1; 2; 3 ] in
  check Alcotest.int "fold" 6 (Ec_util.Vec.fold ( + ) 0 v);
  check Alcotest.bool "exists" true (Ec_util.Vec.exists (fun x -> x = 2) v);
  check Alcotest.bool "for_all" true (Ec_util.Vec.for_all (fun x -> x > 0) v);
  let sum = ref 0 in
  Ec_util.Vec.iteri (fun i x -> sum := !sum + (i * x)) v;
  check Alcotest.int "iteri" 8 !sum;
  check (Alcotest.list Alcotest.int) "copy independent"
    [ 1; 2; 3 ]
    (let c = Ec_util.Vec.copy v in
     Ec_util.Vec.set c 0 99;
     Ec_util.Vec.to_list v)

let vec_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Ec_util.Vec.to_list (Ec_util.Vec.of_list ~dummy:0 xs) = xs)

(* ---- Rng ---- *)

let test_rng_determinism () =
  let a = Ec_util.Rng.create 42 and b = Ec_util.Rng.create 42 in
  let xs = List.init 20 (fun _ -> Ec_util.Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Ec_util.Rng.int b 1000) in
  check (Alcotest.list Alcotest.int) "same seed, same stream" xs ys

let test_rng_seeds_differ () =
  let a = Ec_util.Rng.create 1 and b = Ec_util.Rng.create 2 in
  let xs = List.init 20 (fun _ -> Ec_util.Rng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Ec_util.Rng.int b 1000000) in
  check Alcotest.bool "different seeds differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Ec_util.Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Ec_util.Rng.int rng 17 in
    assert (x >= 0 && x < 17);
    let f = Ec_util.Rng.float rng in
    assert (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "non-positive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Ec_util.Rng.int rng 0))

let test_rng_sample () =
  let rng = Ec_util.Rng.create 11 in
  (* dense and sparse paths *)
  List.iter
    (fun (k, n) ->
      let xs = Ec_util.Rng.sample rng k n in
      check Alcotest.int "sample size" k (List.length xs);
      check Alcotest.int "distinct" k (List.length (List.sort_uniq compare xs));
      List.iter (fun x -> assert (x >= 0 && x < n)) xs)
    [ (5, 8); (3, 1000); (0, 4); (4, 4) ]

let test_rng_shuffle_permutes () =
  let rng = Ec_util.Rng.create 5 in
  let arr = Array.init 50 (fun i -> i) in
  Ec_util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let a = Ec_util.Rng.create 3 in
  let b = Ec_util.Rng.split a in
  let xs = List.init 10 (fun _ -> Ec_util.Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Ec_util.Rng.int b 1000) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let rng_int_uniformish =
  QCheck.Test.make ~name:"rng int covers range" ~count:50
    QCheck.(int_range 2 40)
    (fun bound ->
      let rng = Ec_util.Rng.create bound in
      let seen = Hashtbl.create bound in
      for _ = 1 to 200 * bound do
        Hashtbl.replace seen (Ec_util.Rng.int rng bound) ()
      done;
      Hashtbl.length seen = bound)

(* ---- Stats ---- *)

let feq = Alcotest.float 1e-9

let test_stats_mean_median () =
  check feq "mean" 2.5 (Ec_util.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check feq "median even" 2.5 (Ec_util.Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  check feq "median odd" 3.0 (Ec_util.Stats.median [ 5.0; 3.0; 1.0 ]);
  check feq "mean empty" 0.0 (Ec_util.Stats.mean []);
  check feq "median empty" 0.0 (Ec_util.Stats.median [])

let test_stats_stddev () =
  check feq "stddev constant" 0.0 (Ec_util.Stats.stddev [ 2.0; 2.0; 2.0 ]);
  check (Alcotest.float 1e-6) "stddev" 2.0 (Ec_util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_min_max_geo () =
  check (Alcotest.pair feq feq) "min_max" (1.0, 9.0)
    (Ec_util.Stats.min_max [ 3.0; 1.0; 9.0 ]);
  check (Alcotest.float 1e-9) "geometric mean" 2.0
    (Ec_util.Stats.geometric_mean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "geometric mean rejects 0"
    (Invalid_argument "Stats.geometric_mean: non-positive sample") (fun () ->
      ignore (Ec_util.Stats.geometric_mean [ 1.0; 0.0 ]))

let stats_median_bounds =
  QCheck.Test.make ~name:"median within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Ec_util.Stats.median xs in
      let lo, hi = Ec_util.Stats.min_max xs in
      m >= lo && m <= hi)

(* ---- Tablefmt ---- *)

let test_tablefmt_basic () =
  let t =
    Ec_util.Tablefmt.create
      ~headers:[ ("name", Ec_util.Tablefmt.Left); ("value", Ec_util.Tablefmt.Right) ]
  in
  Ec_util.Tablefmt.add_row t [ "x"; "1" ];
  Ec_util.Tablefmt.add_separator t;
  Ec_util.Tablefmt.add_row t [ "longer"; "22" ];
  let s = Ec_util.Tablefmt.render t in
  check Alcotest.bool "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* right-aligned numbers line up at the column's right edge *)
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 6 (List.length lines)

let test_tablefmt_arity () =
  let t = Ec_util.Tablefmt.create ~headers:[ ("a", Ec_util.Tablefmt.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity mismatch")
    (fun () -> Ec_util.Tablefmt.add_row t [ "x"; "y" ])

let test_tablefmt_cells () =
  check Alcotest.string "float cell" "3.14" (Ec_util.Tablefmt.cell_float 3.14159);
  check Alcotest.string "float decimals" "3.1416"
    (Ec_util.Tablefmt.cell_float ~decimals:4 3.14159);
  check Alcotest.string "int cell" "42" (Ec_util.Tablefmt.cell_int 42)

(* ---- Idx_heap ---- *)

let test_heap_basic () =
  let h = Ec_util.Idx_heap.create 10 in
  Ec_util.Idx_heap.set_priority h 3 5.0;
  Ec_util.Idx_heap.set_priority h 7 9.0;
  Ec_util.Idx_heap.set_priority h 1 1.0;
  List.iter (Ec_util.Idx_heap.insert h) [ 3; 7; 1 ];
  check Alcotest.int "size" 3 (Ec_util.Idx_heap.size h);
  check Alcotest.int "max" 7 (Ec_util.Idx_heap.pop_max h);
  check Alcotest.int "next" 3 (Ec_util.Idx_heap.pop_max h);
  check Alcotest.int "last" 1 (Ec_util.Idx_heap.pop_max h);
  Alcotest.check_raises "empty" Not_found (fun () -> ignore (Ec_util.Idx_heap.pop_max h))

let test_heap_bump_while_in () =
  let h = Ec_util.Idx_heap.create 4 in
  List.iter (Ec_util.Idx_heap.insert h) [ 0; 1; 2; 3 ];
  Ec_util.Idx_heap.set_priority h 2 10.0;
  check Alcotest.int "bumped to top" 2 (Ec_util.Idx_heap.pop_max h);
  Ec_util.Idx_heap.set_priority h 0 5.0;
  check Alcotest.int "second bump" 0 (Ec_util.Idx_heap.pop_max h)

let test_heap_reinsert () =
  let h = Ec_util.Idx_heap.create 3 in
  Ec_util.Idx_heap.insert h 0;
  Ec_util.Idx_heap.insert h 0;
  check Alcotest.int "no duplicate" 1 (Ec_util.Idx_heap.size h);
  ignore (Ec_util.Idx_heap.pop_max h);
  check Alcotest.bool "mem after pop" false (Ec_util.Idx_heap.mem h 0);
  Ec_util.Idx_heap.insert h 0;
  check Alcotest.bool "reinsert" true (Ec_util.Idx_heap.mem h 0)

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range 0.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h = Ec_util.Idx_heap.create n in
      List.iteri
        (fun i p ->
          Ec_util.Idx_heap.set_priority h i p;
          Ec_util.Idx_heap.insert h i)
        prios;
      let popped = List.init n (fun _ -> Ec_util.Idx_heap.pop_max h) in
      let prio_arr = Array.of_list prios in
      let values = List.map (fun i -> prio_arr.(i)) popped in
      List.sort compare values = List.rev (List.sort compare values) |> ignore;
      (* non-increasing *)
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | [ _ ] | [] -> true
      in
      non_increasing values)

let heap_rescale_preserves_order =
  QCheck.Test.make ~name:"heap rescale preserves order" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 20) (float_range 1.0 100.0))
    (fun prios ->
      let n = List.length prios in
      let h1 = Ec_util.Idx_heap.create n and h2 = Ec_util.Idx_heap.create n in
      List.iteri
        (fun i p ->
          Ec_util.Idx_heap.set_priority h1 i p;
          Ec_util.Idx_heap.insert h1 i;
          Ec_util.Idx_heap.set_priority h2 i p;
          Ec_util.Idx_heap.insert h2 i)
        prios;
      Ec_util.Idx_heap.rescale h2 0.5;
      List.init n (fun _ -> Ec_util.Idx_heap.pop_max h1)
      = List.init n (fun _ -> Ec_util.Idx_heap.pop_max h2))

(* ---- Pool ---- *)

let test_pool_map_order () =
  let xs = List.init 40 Fun.id in
  let ys =
    Ec_util.Pool.with_pool 4 (fun pool -> Ec_util.Pool.map_list pool (fun x -> x * x) xs)
  in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys

let test_pool_shutdown () =
  let pool = Ec_util.Pool.create 2 in
  Ec_util.Pool.shutdown pool;
  Ec_util.Pool.shutdown pool (* idempotent *);
  match Ec_util.Pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "submit after shutdown must be rejected"

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [ ( "util.vec",
      [ Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
        Alcotest.test_case "get/set" `Quick test_vec_get_set;
        Alcotest.test_case "growth" `Quick test_vec_growth;
        Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
        Alcotest.test_case "shrink/clear" `Quick test_vec_shrink_clear;
        Alcotest.test_case "iterators" `Quick test_vec_iterators;
        qtest vec_roundtrip ] );
    ( "util.rng",
      [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "bounds" `Quick test_rng_bounds;
        Alcotest.test_case "sample" `Quick test_rng_sample;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        Alcotest.test_case "split" `Quick test_rng_split_independent;
        qtest rng_int_uniformish ] );
    ( "util.stats",
      [ Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "min_max/geometric" `Quick test_stats_min_max_geo;
        qtest stats_median_bounds ] );
    ( "util.tablefmt",
      [ Alcotest.test_case "basic render" `Quick test_tablefmt_basic;
        Alcotest.test_case "arity check" `Quick test_tablefmt_arity;
        Alcotest.test_case "cells" `Quick test_tablefmt_cells ] );
    ( "util.idx_heap",
      [ Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "bump while in" `Quick test_heap_bump_while_in;
        Alcotest.test_case "reinsert" `Quick test_heap_reinsert;
        qtest heap_sorts;
        qtest heap_rescale_preserves_order ] );
    ( "util.pool",
      [ Alcotest.test_case "map_list preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "shutdown is final and idempotent" `Quick test_pool_shutdown ] ) ]
