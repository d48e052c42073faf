(* The three in-process workloads: one client, closed loop, each request
   issued as soon as the previous one returns. *)

module A = Ec_cnf.Assignment
module Registry = Ec_instances.Registry

let now = Unix.gettimeofday

(* What one workload needs after set-up: how to issue request [i]
   plainly and traced, and how to check its answer afterwards. *)
type ctx = {
  request : int -> Pipeline.out;
  traced : Spans.t -> int -> Pipeline.out;
  check : int -> Pipeline.out -> (unit, string) result;
  initial : Pipeline.out option;  (* the set-up's enabling solve *)
}

(* Distinct inputs per run; requests cycle through them (no layer
   caches an input, so a repeat costs what the first pass did).  Pools
   are large because per-input cost varies: with 64 preserve scripts
   the median moved by 15% from seed to seed. *)
let pool_size = function "enable" -> 512 | "fast" -> 2048 | _ -> 512

(* The preserve scripts whose optimum a second engine re-derives after
   the window: one in [cross_check_every] of the pool, about 130 ms
   each. *)
let cross_check_every = 8

let warmup = 5

let satisfies mirror a =
  if Mirror.satisfied (Mirror.of_assignment a) mirror then Ok ()
  else Error "model violates the benchmark's own application of the change"

let enable_ctx ~seed =
  let inst = Gen.enable_instances ~seed (pool_size "enable") in
  let pick i = inst.(i mod Array.length inst) in
  { request = (fun i -> Pipeline.enable (Spans.create ~on:false) (pick i));
    traced = (fun sp i -> Pipeline.enable sp (pick i));
    check =
      (fun i (o : Pipeline.out) ->
        match o.answer with
        | None -> Error "no answer"
        | Some a ->
          if not (Ec_core.Enabling.verify (pick i) a) then Error "answer is not enabled"
          else satisfies (Mirror.of_formula (pick i)) a);
    initial = None }

(* The preserved count an independent exact engine (binary search over
   a sequential counter on one CDCL session) reaches on the same
   modified instance. *)
let reference_optimum (initial : Ec_core.Flow.initial) script =
  let f = Ec_cnf.Change.apply_script initial.formula script in
  let r =
    Ec_core.Preserving.resolve
      ~engine:(Ec_core.Preserving.Sat_cardinality Pipeline.cdcl_options)
      ~budget:Pipeline.budget f
      ~reference:(A.extend initial.assignment (Ec_cnf.Formula.num_vars f))
  in
  if r.Ec_core.Preserving.optimal then Some r.Ec_core.Preserving.preserved else None

let change_ctx ~workload ~seed ~sp =
  let base = Gen.f600 () in
  let initial, initial_out = Pipeline.initial sp base in
  let scripts =
    if workload = "fast" then Gen.fast_scripts ~seed base (pool_size workload)
    else
      Gen.preserve_scripts ~seed base (pool_size workload)
  in
  let pick i = scripts.(i mod Array.length scripts) in
  let mirror = Mirror.of_formula base.Registry.formula in
  let optima = Hashtbl.create 64 in
  let check i (o : Pipeline.out) =
    let script = pick i in
    match o.answer with
    | None -> Error "no answer"
    | Some a -> (
      match satisfies (Mirror.apply_script mirror script) a with
      | Error _ as e -> e
      | Ok () when workload = "fast" -> Ok ()
      | Ok () when not o.optimal -> Error "optimum not proved"
      | Ok () when (i mod Array.length scripts) mod cross_check_every <> 0 -> Ok ()
      | Ok () -> (
        let k = i mod Array.length scripts in
        let expected =
          match Hashtbl.find_opt optima k with
          | Some v -> v
          | None ->
            let v = reference_optimum initial script in
            Hashtbl.replace optima k v;
            v
        in
        let f = Ec_cnf.Change.apply_script initial.formula script in
        let got =
          A.preserved_count
            ~old_assignment:(A.extend initial.assignment (Ec_cnf.Formula.num_vars f))
            a
        in
        match expected with
        | None -> Error "reference engine did not prove an optimum"
        | Some e when e <> got ->
          Error (Printf.sprintf "preserved %d, reference optimum %d" got e)
        | Some _ -> Ok ()))
  in
  if workload = "fast" then
    { request = (fun i -> Pipeline.fast initial (pick i));
      traced = (fun sp i -> Pipeline.fast_traced sp initial (pick i));
      check;
      initial = Some initial_out }
  else
    { request = (fun i -> Pipeline.preserve initial (pick i));
      traced = (fun sp i -> Pipeline.preserve_traced sp initial (pick i));
      check;
      initial = Some initial_out }

(* [sp] records the spans of the initial solution's enabling solve. *)
let setup ?(sp = Spans.create ~on:false) ~workload ~seed () =
  let ctx =
    if workload = "enable" then enable_ctx ~seed else change_ctx ~workload ~seed ~sp
  in
  for i = 0 to warmup - 1 do
    ignore (ctx.request i)
  done;
  ctx

type timed = {
  ms : float;        (* request latency *)
  ref_ms : float;    (* the reference unit run right after it *)
  out : Pipeline.out;
}

(* Requests [0, 1, ...] until [seconds] have passed and at least
   [min_requests] are done, each followed by one untimed-for-the-request
   reference unit ([Hostspeed]).  Returns the requests in issue order
   and the window's length in seconds. *)
let closed_loop ~seconds ~min_requests issue =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let rec go i acc =
    if now () >= deadline && i >= min_requests then (List.rev acc, now () -. t0)
    else begin
      let s = now () in
      let out = issue i in
      let ms = (now () -. s) *. 1000.0 in
      go (i + 1) ({ ms; ref_ms = Hostspeed.sample (); out } :: acc)
    end
  in
  go 0 []
