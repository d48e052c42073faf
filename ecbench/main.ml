let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ecsat = ref "_build/default/bin/ecsat.exe" and commit = ref "unknown" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  enable | fast | preserve | serve");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run (per-layer metrics)");
      ("--ecsat", Arg.Set_string ecsat, "PATH  ecsat binary for the serve workload");
      ("--commit", Arg.Set_string commit, "ID  commit being measured, recorded in the output") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ecbench --workload W --seed N --seconds S --trace 0|1";
  (* Runtime parameters change the measurement (s=4M alone moved serve
     p50 about threefold), so both sides of a comparison must run under
     the built-in defaults. *)
  if Sys.getenv_opt "OCAMLRUNPARAM" <> None || Sys.getenv_opt "CAMLRUNPARAM" <> None then begin
    prerr_endline "ecbench: refusing to measure under an inherited OCAMLRUNPARAM/CAMLRUNPARAM";
    exit 2
  end;
  Ecbench.Driver.run
    { Ecbench.Driver.workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      ecsat = !ecsat;
      commit = !commit }
