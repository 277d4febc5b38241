(* Benchmark harness entry point.

   Usage:
     dune exec bench/main.exe                 # run every experiment
     dune exec bench/main.exe -- fig8a fig10  # selected experiments

   Each experiment regenerates one table/figure of the paper (see
   DESIGN.md's experiment index). *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let run_one name =
    match List.assoc_opt name Experiments.all_experiments with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %S; available: %s\n" name
        (String.concat " " (List.map fst Experiments.all_experiments));
      exit 1
  in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) Experiments.all_experiments
  | names -> List.iter run_one names
