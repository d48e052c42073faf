(* In-memory spans recorded by the benchmark around its own calls into
   each layer.  A span has an id, the request it belongs to, its parent
   span (0 for a request's root) and wall-clock start and end.  Nothing
   is written until the run ends, so the timed path only reads the
   clock and conses a record. *)

type span = {
  id : int;
  req : int;
  parent : int;
  name : string;
  start : float;
  stop : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;   (* open spans, innermost first *)
  mutable req : int;
}

let create ~on = { on; spans = []; next_id = 1; stack = []; req = 0 }

let set_request t req = t.req <- req

let record t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> 0 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let close () =
      let stop = Unix.gettimeofday () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; req = t.req; parent; name; start; stop } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its
   interval that its children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type rollup = { calls : int; total_s : float; self_s : float }

(* Per span name: call count, summed duration and summed self time. *)
let rollup spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let r =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace tbl s.name
        { calls = r.calls + 1;
          total_s = r.total_s +. (s.stop -. s.start);
          self_s = r.self_s +. self })
    (self_times spans);
  tbl

(* One JSON object per span, times in microseconds from the first
   span's start. *)
let write path spans =
  let t0 = match spans with [] -> 0.0 | s :: _ -> s.start in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Ec_util.Json.to_string
           (Ec_util.Json.Obj
              [ ("id", Ec_util.Json.Int s.id);
                ("req", Ec_util.Json.Int s.req);
                ("parent", Ec_util.Json.Int s.parent);
                ("name", Ec_util.Json.String s.name);
                ("start_us", Ec_util.Json.Float ((s.start -. t0) *. 1e6));
                ("end_us", Ec_util.Json.Float ((s.stop -. t0) *. 1e6)) ]));
      output_char oc '\n')
    spans;
  close_out oc
