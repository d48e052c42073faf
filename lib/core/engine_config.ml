(* Closed union of the four engine config specs.  See engine_config.mli
   for the contract; the dispatch trick is the usual existential pack:
   each arm pairs its options value with its spec and a re-injection
   function, so every derived operation is written once. *)

type t =
  | Cdcl of Ec_sat.Cdcl.options
  | Bnb of Ec_ilpsolver.Bnb.options
  | Heuristic of Ec_ilpsolver.Heuristic.options
  | Maxsat of Ec_sat.Maxsat.options

type packed = Pack : 'a Ec_util.Config.spec * 'a * ('a -> t) -> packed

let pack = function
  | Cdcl o -> Pack (Ec_sat.Cdcl.config, o, fun o -> Cdcl o)
  | Bnb o -> Pack (Ec_ilpsolver.Bnb.config, o, fun o -> Bnb o)
  | Heuristic o -> Pack (Ec_ilpsolver.Heuristic.config, o, fun o -> Heuristic o)
  | Maxsat o -> Pack (Ec_sat.Maxsat.config, o, fun o -> Maxsat o)

(* Defaults per engine, keyed by the spec's own engine name so the two
   can never drift apart. *)
let all_defaults =
  [ Cdcl Ec_sat.Cdcl.default_options;
    Bnb Ec_ilpsolver.Bnb.default_options;
    Heuristic Ec_ilpsolver.Heuristic.default_options;
    Maxsat Ec_sat.Maxsat.default_options ]

let name t =
  let (Pack (spec, _, _)) = pack t in
  Ec_util.Config.engine_name spec

let engines = List.map name all_defaults

let default engine =
  match List.find_opt (fun t -> name t = engine) all_defaults with
  | Some t -> Ok t
  | None ->
    Error
      (Printf.sprintf "unknown engine %S (known: %s)" engine (String.concat ", " engines))

let show t =
  let (Pack (spec, o, _)) = pack t in
  match Ec_util.Config.show spec o with
  | "" -> name t
  | s -> name t ^ ":" ^ s

let apply t pair =
  let (Pack (spec, o, inject)) = pack t in
  Result.map inject (Ec_util.Config.apply spec o pair)

let apply_all t pairs =
  List.fold_left (fun acc pair -> Result.bind acc (fun t -> apply t pair)) (Ok t) pairs

let parse s =
  let engine, rest =
    match String.index_opt s ':' with
    | None -> (String.trim s, "")
    | Some i -> (String.trim (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
  in
  Result.bind (default engine) (fun t ->
      let (Pack (spec, _, inject)) = pack t in
      Result.map inject (Ec_util.Config.parse spec rest))

let digest t =
  let (Pack (spec, o, _)) = pack t in
  Ec_util.Config.digest spec o

let document () =
  String.concat "\n"
    (List.map
       (fun t ->
         let (Pack (spec, _, _)) = pack t in
         Ec_util.Config.document spec)
       all_defaults)
