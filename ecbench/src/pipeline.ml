(* One request of each in-process workload.  [enable] is the same code
   timed and traced; [fast] and [preserve] are timed through
   [Flow.apply_change_response], and their traced twins below make the
   same public calls Flow makes, one layer at a time, so each gets its
   own span. *)

module A = Ec_cnf.Assignment
module F = Ec_cnf.Formula
module Budget = Ec_util.Budget
module Flow = Ec_core.Flow
module Certify = Ec_core.Certify

(* Budgets count work, never wall time, so how fast the host runs
   cannot change an answer.  Both limits sit far above any request the
   generators produce; a request that reaches one fails. *)
let budget = Budget.create ~conflicts:1_000_000 ~nodes:1_000_000 ()

let bnb_options = { Ec_ilpsolver.Bnb.default_options with Ec_ilpsolver.Bnb.budget }

let cdcl_options = { Ec_sat.Cdcl.default_options with Ec_sat.Cdcl.budget }

(* MaxSAT, not the §7 ILP engine: the latter does not finish at f600
   size. *)
let preserve_engine = Ec_core.Preserving.Sat_maxsat Ec_sat.Maxsat.default_options

(* What a request produced, and the counts its layers returned. *)
type out = {
  answer : A.t option;
  cls : string;
  optimal : bool;
  counts : (string * float) list;
}

let certify sp f a =
  match Spans.record sp "certify.check" (fun () -> Certify.check_model f a) with
  | Ok () -> Some a
  | Error _ -> None

(* ---- enable ---- *)

(* Enabling EC in B&B decision mode, decoded and re-checked the way
   [Flow.solve_initial] re-checks its answer. *)
let enable sp f =
  let enc, model =
    Spans.record sp "enabling.build" (fun () ->
        let enc = Ec_core.Encode.of_formula f in
        ignore (Ec_core.Enabling.add Ec_core.Enabling.Constraints enc);
        (enc, Ec_core.Encode.model enc))
  in
  let r =
    Spans.record sp "bnb.solve" (fun () ->
        Ec_ilpsolver.Bnb.solve_decision_response ~options:bnb_options model)
  in
  let decoded =
    Spans.record sp "enabling.decode" (fun () ->
        Ec_core.Encode.decode enc r.Ec_ilpsolver.Bnb.solution)
  in
  { answer = Option.bind decoded (certify sp f);
    cls = "solve";
    optimal = true;
    counts =
      [ ("enabling.rows", float_of_int (Ec_ilp.Model.num_constrs model));
        ("enabling.vars", float_of_int (Ec_ilp.Model.num_vars model));
        ("bnb.nodes", float_of_int r.Ec_ilpsolver.Bnb.counters.Budget.spent_nodes) ] }

(* ---- fast ---- *)

let fast_class (u : Flow.response) =
  match u.Flow.result with
  | Some { Flow.sub_instance_size = Some (0, 0); _ } -> "already_satisfied"
  | Some { Flow.sub_instance_size = Some _; _ } -> "cone"
  | Some { Flow.sub_instance_size = None; _ } | None -> "fallback"

let fast initial script =
  let u =
    Flow.apply_change_response ~strategy:Flow.Fast ~budget ~jobs:1 initial script
  in
  { answer = Option.map (fun r -> r.Flow.new_assignment) u.Flow.result;
    cls = fast_class u;
    optimal = true;
    counts = [] }

let fast_traced sp (initial : Flow.initial) script =
  let f =
    Spans.record sp "change.apply" (fun () ->
        Ec_cnf.Change.apply_script initial.Flow.formula script)
  in
  let reference = A.extend initial.Flow.assignment (F.num_vars f) in
  let s = Spans.record sp "fast_ec.simplify" (fun () -> Ec_core.Fast_ec.simplify f reference) in
  let cone_counts =
    [ ("fast_ec.cone_vars", float_of_int (List.length s.Ec_core.Fast_ec.vars));
      ("fast_ec.cone_clauses", float_of_int (List.length s.Ec_core.Fast_ec.marked)) ]
  in
  let answer, cls, counts =
    if s.Ec_core.Fast_ec.already_satisfied then (Some reference, "already_satisfied", [])
    else begin
      let sub = s.Ec_core.Fast_ec.sub_formula in
      let r =
        Spans.record sp "cdcl.solve" (fun () ->
            Ec_sat.Cdcl.solve_response ~options:cdcl_options sub)
      in
      let counts =
        cone_counts
        @ [ ("cdcl.conflicts", float_of_int r.Ec_sat.Cdcl.stats.Ec_sat.Cdcl.conflicts);
            ("cdcl.decisions", float_of_int r.Ec_sat.Cdcl.stats.Ec_sat.Cdcl.decisions) ]
      in
      match r.Ec_sat.Cdcl.outcome with
      | Ec_sat.Outcome.Sat m -> (
        let m =
          Spans.record sp "minimize.recover_dc" (fun () -> Ec_sat.Minimize.recover_dc sub m)
        in
        match certify sp sub m with
        | None -> (None, "cone", counts)
        | Some m ->
          let merged =
            Spans.record sp "fast_ec.merge" (fun () ->
                A.merge_on ~vars:s.Ec_core.Fast_ec.vars ~base:reference ~overlay:m)
          in
          (certify sp f merged, "cone", counts))
      | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> (
        (* Flow's fallback: a warm-started full re-solve. *)
        let full =
          Spans.record sp "cdcl.full_solve" (fun () ->
              Ec_core.Backend.solve_response ~budget
                (Ec_core.Backend.with_phase_hint Ec_core.Backend.cdcl reference)
                f)
        in
        match full.Ec_core.Backend.outcome with
        | Ec_sat.Outcome.Sat a -> (Some a, "fallback", counts)
        | Ec_sat.Outcome.Unsat | Ec_sat.Outcome.Unknown _ -> (None, "fallback", counts))
    end
  in
  (* Flow's own certification wall on whatever the strategy returned. *)
  { answer = Option.bind answer (certify sp f); cls; optimal = true; counts }

(* ---- preserve ---- *)

(* Whether the old solution survives whole (no core to relax) or the
   optimum gives some variables up. *)
let preserve_class = function
  | Some u when u.Flow.preserved_fraction >= 1.0 -> "kept_all"
  | Some _ | None -> "repaired"

let preserve initial script =
  let u =
    Flow.apply_change_response ~strategy:(Flow.Preserve preserve_engine) ~budget ~jobs:1
      initial script
  in
  { answer = Option.map (fun r -> r.Flow.new_assignment) u.Flow.result;
    cls = preserve_class u.Flow.result;
    (* The MaxSAT engine reports [Completed] only for a proved optimum. *)
    optimal = u.Flow.reason = Budget.Completed;
    counts = [] }

let preserve_traced sp (initial : Flow.initial) script =
  let f =
    Spans.record sp "change.apply" (fun () ->
        Ec_cnf.Change.apply_script initial.Flow.formula script)
  in
  let reference = A.extend initial.Flow.assignment (F.num_vars f) in
  let r =
    Spans.record sp "preserving.resolve" (fun () ->
        Ec_core.Preserving.resolve ~engine:preserve_engine ~budget f ~reference)
  in
  let w = r.Ec_core.Preserving.work in
  { answer = Option.bind r.Ec_core.Preserving.solution (certify sp f);
    cls =
      (if r.Ec_core.Preserving.preserved = r.Ec_core.Preserving.total then "kept_all"
       else "repaired");
    optimal = r.Ec_core.Preserving.optimal;
    counts =
      [ ("preserving.sat_calls", float_of_int w.Ec_core.Preserving.probes);
        ("preserving.cores", float_of_int w.Ec_core.Preserving.cores);
        ("preserving.clauses_encoded", float_of_int w.Ec_core.Preserving.clauses_encoded);
        ("preserving.conflicts",
          float_of_int r.Ec_core.Preserving.counters.Budget.spent_conflicts) ] }

(* ---- set-up of fast and preserve ---- *)

(* The enabled initial solution of the f600 base, from B&B decision
   mode, with the enabling request's output. *)
let initial sp (base : Ec_instances.Registry.instance) =
  let f = base.Ec_instances.Registry.formula in
  let o = enable sp f in
  match o.answer with
  | None -> failwith "enabling EC found no initial solution for the f600 base"
  | Some a ->
    ( { Flow.formula = f;
        assignment = a;
        enabled = true;
        flexibility = Ec_core.Enabling.flexibility_score f a;
        solve_time_s = 0.0 },
      o )
