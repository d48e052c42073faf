(* Host-speed correction for the in-process workloads.

   On a shared host the same request takes up to ~1.5x longer during
   some stretches than others, for seconds to tens of seconds at a
   time, whatever the code does (README, "Host drift").  Those
   stretches follow the host's memory bandwidth: a streaming write
   slowed with them in step, while an arithmetic loop and a pointer
   chase over an 8 MiB ring barely moved.  So after every request the
   benchmark times one fixed unit of streaming writes, and divides the
   request's latency by the local host factor — the median of the 21
   reference units around it over [nominal_ms].  The reference is
   benchmark code outside the OCaml heap, so a change to the program
   never moves it; a change of host speed moves both. *)

(* The reference unit's median time on the host the bounds were set
   on (2-vCPU KVM guest, Xeon Sapphire Rapids).  A fixed constant: it
   only sets the scale of corrected times. *)
let nominal_ms = 0.7

(* 64 MiB off the OCaml heap (a Bigarray), so the GC never scans it,
   written 4 MiB per unit, each unit continuing where the last one
   stopped.  Written whole once when created, so no unit pays for the
   first touch of a page. *)
let slice = 512 * 1024

let buffer =
  lazy
    (let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (16 * slice) in
     Bigarray.Array1.fill b 0;
     b)

let pos = ref 0

(* One reference unit, in ms. *)
let sample () =
  let b = Lazy.force buffer in
  let t0 = Unix.gettimeofday () in
  Bigarray.Array1.fill (Bigarray.Array1.sub b !pos slice) !pos;
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  pos := (!pos + slice) mod Bigarray.Array1.dim b;
  ms

let window = 10

(* The local host factor at each position of [samples]: the median of
   the samples at most [window] positions away, over [nominal_ms]. *)
let factors samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  Array.to_list
    (Array.init n (fun i ->
         let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
         Pct.median (Array.to_list (Array.sub a lo (hi - lo + 1))) /. nominal_ms))

(* The host factor right now: ten reference units, for a set-up pass
   just finished. *)
let factor_now () = Pct.median (List.init 10 (fun _ -> sample ())) /. nominal_ms
