type action =
  | Corrupt_model
  | Forge_unsat
  | Raise_exn
  | Burn_budget
  | Delay

exception Injected of string

let action_to_string = function
  | Corrupt_model -> "corrupt"
  | Forge_unsat -> "forge-unsat"
  | Raise_exn -> "raise"
  | Burn_budget -> "burn"
  | Delay -> "delay"

let action_of_string = function
  | "corrupt" -> Some Corrupt_model
  | "forge-unsat" | "forge" -> Some Forge_unsat
  | "raise" -> Some Raise_exn
  | "burn" -> Some Burn_budget
  | "delay" -> Some Delay
  | _ -> None

type arm_state = {
  action : action;
  mutable remaining : int;  (* fires left; -1 = unbounded *)
}

let default_seed = 0xFA17

(* Production fast path: [armed] is false and every hook is one atomic
   read.  The table is only consulted once something is armed.
   Serve sessions run hooks from several domains at once: the scalar
   flags are [Atomic.t] (read without the lock, including from
   [set_seed] and [site_rng]), while the table itself — a compound
   structure whose entries mutate in place — sits behind [lock]. *)
let armed = Atomic.make false

let lock = Mutex.create ()

(* eclint: allow DS001 — guarded by [lock]: every read/write of the
   table and its arm_state entries happens under Mutex.lock *)
let table : (string, arm_state) Hashtbl.t = Hashtbl.create 7

let seed = Atomic.make default_seed

let fire_count = Atomic.make 0

(* Observability twin of [fire_count]: chaos runs under --metrics can
   report how many injected faults the stack absorbed. *)
let fired_metric = Metrics.counter "fault.fired"

let arm ?(times = -1) site action =
  Mutex.lock lock;
  Hashtbl.replace table site { action; remaining = times };
  Atomic.set armed true;
  Mutex.unlock lock

let set_seed s = Atomic.set seed s

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Atomic.set armed false;
  Atomic.set seed default_seed;
  Atomic.set fire_count 0;
  Mutex.unlock lock

let enabled () = Atomic.get armed

let fired () = Atomic.get fire_count

(* Consume one firing of [site] if it is armed with an action [accepts]
   can handle; self-disarm when the bound runs out. *)
let take site accepts =
  if not (Atomic.get armed) then None
  else begin
    Mutex.lock lock;
    let taken =
      match Hashtbl.find_opt table site with
      | None -> None
      | Some st ->
        if st.remaining = 0 || not (accepts st.action) then None
        else begin
          if st.remaining > 0 then st.remaining <- st.remaining - 1;
          Atomic.incr fire_count;
          Metrics.incr fired_metric;
          Some st.action
        end
    in
    Mutex.unlock lock;
    taken
  end

let site_rng site =
  Rng.create
    (Atomic.get seed lxor Hashtbl.hash site lxor (0x51 * Atomic.get fire_count))

let maybe_raise site =
  match take site (fun a -> a = Raise_exn) with
  | Some Raise_exn -> raise (Injected site)
  | Some _ | None -> ()

let delay_s = 0.05

let maybe_delay site =
  match take site (fun a -> a = Delay) with
  | Some Delay -> Unix.sleepf delay_s
  | Some _ | None -> ()

let burn site budget =
  match take site (fun a -> a = Burn_budget) with
  | Some Burn_budget -> { budget with Budget.time_s = Some 0.0 }
  | Some _ | None -> budget

let peek site =
  Mutex.lock lock;
  let st = Hashtbl.find_opt table site in
  Mutex.unlock lock;
  st

let point site ?corrupt ?forge v =
  if not (Atomic.get armed) then v
  else
    match (peek site : arm_state option) with
    | Some { action = Corrupt_model; _ } when corrupt <> None -> (
      match take site (fun a -> a = Corrupt_model) with
      | Some _ -> (Option.get corrupt) (site_rng site) v
      | None -> v)
    | Some { action = Forge_unsat; _ } when forge <> None -> (
      match take site (fun a -> a = Forge_unsat) with
      | Some _ -> (Option.get forge) v
      | None -> v)
    | Some _ | None -> v

(* ---- plan parsing (ECSAT_FAULTS) -------------------------------- *)

(* The failpoint catalog: [*.solve] sites sit on the control path and
   take control-flow faults; [*.answer] sites rewrite answers.  Plans
   binding an unknown site or a mismatched action are rejected —
   silently arming a dead site would fake fault coverage. *)
let sites =
  [ ("cdcl.solve", [ Raise_exn; Burn_budget ]);
    ("cdcl.answer", [ Corrupt_model; Forge_unsat ]);
    ("bnb.solve", [ Raise_exn; Burn_budget ]);
    ("bnb.answer", [ Corrupt_model; Forge_unsat ]);
    ("heuristic.solve", [ Raise_exn; Burn_budget ]);
    ("heuristic.answer", [ Corrupt_model; Forge_unsat ]);
    ("simplex.solve", [ Raise_exn; Burn_budget ]);
    ("maxsat.core", [ Corrupt_model ]);
    ("serve.dispatch", [ Raise_exn; Delay ]);
    ("serve.session", [ Raise_exn; Burn_budget; Delay ]) ]

(* The serve sites may be qualified with a session name
   ("serve.session:mysession") so a chaos plan can deterministically
   target one session of a concurrent run — which unqualified site an
   in-flight pair of solves reaches first is a scheduling race.  The
   qualifier does not change the allowed actions. *)
let qualified_bases = [ "serve.dispatch"; "serve.session" ]

let site_base site =
  match String.index_opt site ':' with
  | Some i when List.mem (String.sub site 0 i) qualified_bases -> String.sub site 0 i
  | Some _ | None -> site

let configure spec =
  let entries =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let parse entry =
    match String.index_opt entry '=' with
    | None -> Error (Printf.sprintf "fault binding %S is not site=action" entry)
    | Some i ->
      let site = String.trim (String.sub entry 0 i) in
      let rhs = String.trim (String.sub entry (i + 1) (String.length entry - i - 1)) in
      if site = "seed" then
        match int_of_string_opt rhs with
        | Some s -> Ok (`Seed s)
        | None -> Error (Printf.sprintf "bad fault seed %S" rhs)
      else
        let action_s, times =
          match String.index_opt rhs ':' with
          | None -> (rhs, -1)
          | Some j ->
            ( String.trim (String.sub rhs 0 j),
              match
                int_of_string_opt
                  (String.trim (String.sub rhs (j + 1) (String.length rhs - j - 1)))
              with
              | Some n when n >= 0 -> n
              | Some _ | None -> -2 )
        in
        if times = -2 then Error (Printf.sprintf "bad fire count in %S" entry)
        else (
          match (List.assoc_opt (site_base site) sites, action_of_string action_s) with
          | None, _ ->
            Error
              (Printf.sprintf "unknown fault site %S (known: %s)" site
                 (String.concat ", " (List.map fst sites)))
          | Some _, None ->
            Error
              (Printf.sprintf "unknown fault action %S (corrupt|forge-unsat|raise|burn)"
                 action_s)
          | Some allowed, Some a when not (List.mem a allowed) ->
            Error
              (Printf.sprintf "site %S does not take action %S (allowed: %s)" site
                 (action_to_string a)
                 (String.concat "|" (List.map action_to_string allowed)))
          | Some _, Some a -> Ok (`Arm (site, a, times)))
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      match parse e with Ok x -> collect (x :: acc) rest | Error _ as err -> err)
  in
  match collect [] entries with
  | Error msg -> Error msg
  | Ok items ->
    List.iter
      (function
        | `Seed s -> set_seed s
        | `Arm (site, a, times) -> arm ~times site a)
      items;
    Ok (Printf.sprintf "%d fault site(s) armed" (Hashtbl.length table))

let configure_from_env () =
  match Sys.getenv_opt "ECSAT_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> (
    match configure spec with
    | Ok _ -> ()
    | Error msg ->
      prerr_endline ("ECSAT_FAULTS: " ^ msg);
      exit 2)
