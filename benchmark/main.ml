(* The benchmark's command line. Run from the repository root:

     main.exe --workload W --seed N --seconds S --trace 0|1
         one run of one workload; the last line of stdout is its result
     main.exe run [--seed N] [--seconds S] [--trace] [-o FILE]
         every workload, each in its own child process, one after another
     main.exe retune
         regenerate benchmark/schedules/ (minutes)
     main.exe metrics
         print the metric registry as JSON *)

open Bench_workloads

let out_dir = "benchmark/out"

let ctx ~seed ~seconds ~trace =
  {
    Run.seed;
    seconds;
    trace;
    models = Models.create (Models.Zoo Tb_gbt.Zoo.default_cache_dir);
    schedules_dir = "benchmark/schedules";
    store_dir = Filename.concat out_dir "store";
    serve_requests = 10_000;
    extra_seconds = 1.5;
  }

let usage = "main.exe (--workload W --seed N --seconds S --trace 0|1 | run | retune | metrics)"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let one_run argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Cells.workload_names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
    ]
    (fun a -> fail "unexpected argument %s" a)
    usage;
  if not (List.mem !workload Cells.workload_names) then fail "unknown workload %S" !workload;
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let r =
    Runner.run ~out_dir
      (ctx ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
      !workload
  in
  print_endline (Tb_util.Json.to_string r.Runner.json)

(* Each workload in a fresh child process, so heap state and peak RSS
   stay separate. *)
let run_all argv =
  let seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let out = ref "" in
  Arg.parse_argv argv
    [
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window per workload");
      ("--trace", Arg.Set trace, " also run every workload traced");
      ("-o", Arg.Set_string out, "FILE combined results (default benchmark/out/run-seedN.json)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe run [--seed N] [--seconds S] [--trace] [-o FILE]";
  let child workload traced =
    let args =
      [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int !seed;
         "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; (if traced then "1" else "0") |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let last = ref "" in
    (try
       while true do
         let line = input_line ic in
         print_endline line;
         last := line
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (
      match Tb_util.Json.of_string !last with
      | j -> (workload, traced, Some j)
      | exception Tb_util.Json.Parse_error _ -> (workload, traced, None))
    | _ -> (workload, traced, None)
  in
  let runs =
    List.concat_map
      (fun traced -> List.map (fun w -> child w traced) Cells.workload_names)
      (if !trace then [ false; true ] else [ false ])
  in
  let ok =
    List.for_all
      (fun (_, _, j) ->
        match j with
        | Some j -> Tb_util.Json.(to_bool (member "correct" j))
        | None -> false)
      runs
  in
  let path =
    if !out <> "" then !out
    else Filename.concat out_dir (Printf.sprintf "run-seed%d.json" !seed)
  in
  Runner.mkdir_p (Filename.dirname path);
  Runner.write_file path
    (Tb_util.Json.to_string ~indent:true
       (Tb_util.Json.List
          (List.map
             (fun (w, traced, j) ->
               Tb_util.Json.Obj
                 [
                   ("workload", Tb_util.Json.Str w);
                   ("traced", Tb_util.Json.Bool traced);
                   ("result", Option.value ~default:Tb_util.Json.Null j);
                 ])
             runs)));
  Printf.printf "wrote %s\n" path;
  if not ok then exit 1

let metrics () =
  let open Metric_defs in
  let entry d =
    Tb_util.Json.Obj
      ([ ("name", Tb_util.Json.Str d.name);
         ("unit", Tb_util.Json.Str d.unit_);
         ("better", Tb_util.Json.Str (better_to_string d.better)) ]
      @ (match d.bound with Some b -> [ ("bound", Tb_util.Json.Num b) ] | None -> [])
      @ [ ("workload", Tb_util.Json.Str d.source) ]
      @ if d.moves = "" then [] else [ ("moves", Tb_util.Json.Str d.moves) ])
  in
  print_endline
    (Tb_util.Json.to_string ~indent:true
       (Tb_util.Json.Obj
          [
            ("end_to_end", Tb_util.Json.List (List.map entry end_to_end));
            ("per_layer", Tb_util.Json.List (List.map entry per_layer));
          ]))

let () =
  let argv = Sys.argv in
  let rest () = Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2)) in
  try
    match if Array.length argv > 1 then argv.(1) else "" with
    | "run" -> run_all (rest ())
    | "retune" ->
      Retune.run
        ~models:(Models.create (Models.Zoo Tb_gbt.Zoo.default_cache_dir))
        ~dir:"benchmark/schedules"
    | "metrics" -> metrics ()
    | _ -> one_run argv
  with
  | Arg.Bad msg -> fail "%s" msg
  | Arg.Help msg -> print_string msg
  | e ->
    prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
    exit 1
