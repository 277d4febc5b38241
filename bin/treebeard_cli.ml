(* treebeard — command-line driver for the compiler.

   Subcommands:
     train    train a benchmark model and serialize it to JSON
     compile  compile a serialized model and dump its IR
     predict  run batch inference on a serialized model
     explore  autotune a schedule for a CPU target
     lint     statically verify models through the tbcheck pipeline
     quantcheck  certify int8/int16 quantization of a model (N00x)
     calibrate  cross-validate the cost model against the profiler + JIT
     serve-sim  simulate the dynamic-batching serving runtime on a trace *)

open Cmdliner
module Schedule = Tb_hir.Schedule
module Config = Tb_cpu.Config

(* ---------------- shared args (Cli_common) ---------------- *)

let model_arg = Cli_common.model_arg
let target_arg = Cli_common.target_arg
let schedule_term = Cli_common.schedule_term
let precision_arg = Cli_common.precision_arg

(* ---------------- train ---------------- *)

let train_cmd =
  let benchmark =
    Arg.(
      required
      & opt (some (enum (List.map (fun n -> (n, n)) Tb_data.Generators.names))) None
      & info [ "b"; "benchmark" ] ~docv:"NAME"
          ~doc:"Benchmark to train (abalone, airline, airline-ohe, covtype, epsilon, letter, higgs, year).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output path (default <name>.json).")
  in
  let run benchmark out =
    let t0 = Tb_util.Timer.now () in
    let entry = Tb_gbt.Zoo.get benchmark in
    let path = Option.value out ~default:(benchmark ^ ".json") in
    Tb_model.Serialize.to_file path entry.Tb_gbt.Zoo.forest;
    Printf.printf "trained/loaded %s in %.1fs: %d trees, depth %d -> %s\n" benchmark
      (Tb_util.Timer.now () -. t0)
      (Array.length entry.Tb_gbt.Zoo.forest.Tb_model.Forest.trees)
      (Tb_model.Forest.max_depth entry.Tb_gbt.Zoo.forest)
      path
  in
  Cmd.v (Cmd.info "train" ~doc:"Train (or load cached) benchmark model")
    Term.(const run $ benchmark $ out)

(* ---------------- compile ---------------- *)

let compile_cmd =
  let run model schedule precision tolerance =
    let precision = Cli_common.with_tolerance tolerance precision in
    let compiled =
      Tb_core.Treebeard.make ~plan:(`Schedule schedule) ~precision
        (`Forest (Cli_common.read_model model))
    in
    List.iter
      (fun d -> print_endline (Tb_diag.Diagnostic.to_string d))
      compiled.Tb_core.Treebeard.precision_diags;
    Printf.printf "precision: %s\n"
      (Tb_core.Treebeard.tier_to_string compiled.Tb_core.Treebeard.tier);
    print_string (Tb_core.Treebeard.dump_ir compiled)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a model and dump its IR (schedule, MIR, LIR, layout)")
    Term.(
      const run $ model_arg $ schedule_term $ precision_arg
      $ Cli_common.tolerance_arg)

(* ---------------- predict ---------------- *)

let predict_cmd =
  let batch =
    Arg.(value & opt int 1024 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")
  in
  let backend =
    Arg.(
      value
      & opt (enum [ ("jit", `Jit); ("interp", `Interp) ]) `Jit
      & info [ "backend" ]
          ~doc:"Execution backend: the closure JIT or the register-IR interpreter.")
  in
  let run model schedule batch backend precision tolerance =
    let precision = Cli_common.with_tolerance tolerance precision in
    let forest = Cli_common.read_model model in
    let predict, tier =
      match backend with
      | `Jit ->
        let compiled =
          Tb_core.Treebeard.make ~plan:(`Schedule schedule) ~precision
            (`Forest forest)
        in
        (compiled.Tb_core.Treebeard.predict, compiled.Tb_core.Treebeard.tier)
      | `Interp ->
        (match precision with
        | `Float -> ()
        | `Quantized _ ->
          prerr_endline "predict: --precision requires the jit backend";
          exit 2);
        (Tb_vm.Interp.compile (Tb_lir.Lower.lower forest schedule), `Float)
    in
    let rng = Tb_util.Prng.create 1 in
    let rows =
      Array.init batch (fun _ ->
          Array.init forest.Tb_model.Forest.num_features (fun _ ->
              Tb_util.Prng.gaussian rng))
    in
    let r =
      Tb_util.Timer.measure ~warmup:1 ~min_iters:3 ~min_time_s:0.5 (fun () ->
          ignore (predict rows))
    in
    Printf.printf "schedule: %s (%s backend, %s)\n"
      (Schedule.to_string schedule)
      (match backend with `Jit -> "jit" | `Interp -> "interp")
      (Tb_core.Treebeard.tier_to_string tier);
    Printf.printf "batch %d: %.2f ms/batch, %.2f us/row\n" batch
      (r.Tb_util.Timer.mean_s *. 1e3)
      (r.Tb_util.Timer.mean_s *. 1e6 /. float_of_int batch)
  in
  Cmd.v
    (Cmd.info "predict" ~doc:"Run batch inference and report wall-clock time")
    Term.(
      const run $ model_arg $ schedule_term $ batch $ backend $ precision_arg
      $ Cli_common.tolerance_arg)

(* ---------------- explore ---------------- *)

let explore_cmd =
  let exhaustive =
    Arg.(value & flag & info [ "exhaustive" ] ~doc:"Search the full Table II grid.")
  in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the best schedule as JSON.")
  in
  let run model target exhaustive save =
    let forest = Cli_common.read_model model in
    let rng = Tb_util.Prng.create 7 in
    let rows =
      Array.init 256 (fun _ ->
          Array.init forest.Tb_model.Forest.num_features (fun _ ->
              Tb_util.Prng.gaussian rng))
    in
    let t0 = Tb_util.Timer.now () in
    let result =
      if exhaustive then Tb_core.Explore.exhaustive ~target forest rows
      else Tb_core.Explore.greedy ~target forest rows
    in
    let baseline =
      Tb_core.Explore.evaluate ~target forest Schedule.scalar_baseline rows
    in
    Printf.printf "target          : %s\n" target.Config.name;
    Printf.printf "best schedule   : %s\n" (Schedule.to_string result.Tb_core.Explore.schedule);
    Printf.printf "simulated cost  : %.0f cycles/row (baseline %.0f, speedup %.2fx)\n"
      result.Tb_core.Explore.perf.Tb_core.Perf.cycles_per_row
      baseline.Tb_core.Perf.cycles_per_row
      (baseline.Tb_core.Perf.cycles_per_row
      /. result.Tb_core.Explore.perf.Tb_core.Perf.cycles_per_row);
    Printf.printf "search          : %d schedules in %.1fs\n"
      result.Tb_core.Explore.evaluated
      (Tb_util.Timer.now () -. t0);
    match save with
    | None -> ()
    | Some path ->
      Schedule.to_file path result.Tb_core.Explore.schedule;
      Printf.printf "saved schedule  : %s\n" path
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Autotune a schedule for a CPU target")
    Term.(const run $ model_arg $ target_arg $ exhaustive $ save)

(* ---------------- lint ---------------- *)

let lint_cmd =
  let module Passman = Tb_core.Passman in
  let gate =
    Cli_common.gate_term ~cmd:"lint" ~family:Tb_analysis.Census.lir_family
      ~zoo_doc:
        "Lint every benchmark model in the zoo (training/loading them from \
         the cache as needed)."
      ~verbose_doc:"Print every finding, including infos."
      ~census_doc:
        "Write a warning census (per model x schedule counts of \
         L010..L014) to FILE as JSON."
      ~baseline_doc:
        "Diff this run's census against a checked-in baseline census; any \
         L010/L013 finding or L011/L012 count regression fails the run."
  in
  let grid =
    Cli_common.grid_flag
      ~doc:
        "Lint each model over the full Table II schedule grid instead of a \
         single schedule."
  in
  let batch =
    Arg.(
      value & opt int 1024
      & info [ "batch" ] ~docv:"N"
          ~doc:"Batch size assumed by the deployment-dependent checks.")
  in
  let strict =
    Cli_common.strict_flag
      ~doc:"Treat warnings as errors for the exit status."
  in
  let run (g : Cli_common.gate) grid schedule batch strict =
    let models = g.models () in
    let schedules =
      if grid then Schedule.table2_grid else [ schedule ]
    in
    List.iter
      (fun (name, forest) ->
        List.iter
          (fun schedule ->
            let report =
              match Passman.lower ~batch_size:batch forest schedule with
              | Ok (_, r) | Error r -> r
            in
            Cli_common.report_cell g ~model:name
              ~cell:(Schedule.to_string schedule)
              (Passman.diagnostics report))
          schedules)
      models;
    Printf.printf "lint: %d model(s) x %d schedule(s): %d error(s), %d warning(s)\n"
      (List.length models) (List.length schedules) g.errors g.warnings;
    let regressed = Cli_common.close_census g in
    if g.errors > 0 || regressed || (strict && g.warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically verify models through the tbcheck pipeline \
             (schedule legality, tiling/LUT/padding, loop-nest and race \
             checks, layout closure and walk-program bounds)")
    Term.(const run $ gate $ grid $ schedule_term $ batch $ strict)

(* ---------------- validate ---------------- *)

let validate_cmd =
  let module D = Tb_diag.Diagnostic in
  let module Validate = Tb_analysis.Validate in
  let module Cost_check = Tb_analysis.Cost_check in
  let module Program = Tb_hir.Program in
  let module Mir = Tb_mir.Mir in
  let module Layout = Tb_lir.Layout in
  let module Json = Tb_util.Json in
  let gate =
    Cli_common.gate_term ~cmd:"validate"
      ~family:Tb_analysis.Census.validate_family
      ~zoo_doc:
        "Validate every benchmark model in the zoo (training/loading them \
         from the cache as needed)."
      ~verbose_doc:"Print every finding, including infos."
      ~census_doc:
        "Write a T001..T004 census (per model x schedule counts) to FILE as \
         JSON."
      ~baseline_doc:
        "Diff this run's census against a checked-in baseline; any T004 \
         finding or T001..T003 count regression fails the run."
  in
  let grid =
    Cli_common.grid_flag
      ~doc:
        "Sweep the full 256-point Table II schedule grid instead of the \
         reduced representative grid."
  in
  let stage =
    Arg.(
      value
      & opt
          (enum
             [ ("all", `All); ("hir", `Hir); ("mir", `Mir); ("lir", `Lir);
               ("reg", `Reg) ])
          `All
      & info [ "stage" ] ~docv:"STAGE"
          ~doc:
            "Restrict validation to one compiled form, each compared with \
             its source tree: hir (tiled trees), mir (walk kinds), lir \
             (layout buffers), reg (register IR + jam projection), or \
             all.")
  in
  let strict =
    Cli_common.strict_flag
      ~doc:"Treat warnings as errors for the exit status."
  in
  let out =
    Cli_common.out_arg
      ~doc:"Write the per-(model, schedule) findings report as JSON."
  in
  let run (g : Cli_common.gate) grid stage strict out =
    let models = g.models () in
    let schedules =
      if grid then Schedule.table2_grid else Cost_check.reduced_grid
    in
    let cells = ref [] in
    List.iter
      (fun (name, forest) ->
        List.iter
          (fun schedule ->
            let hir = Program.build forest schedule in
            let mir = Mir.lower hir in
            match Layout.build hir with
            | exception Invalid_argument msg ->
              (* Slab cap on degenerate array-layout points: nothing to
                 validate below MIR. *)
              Printf.printf "%-12s %-55s skip (%s)\n" name
                (Schedule.to_string schedule) msg
            | lay ->
              let fs =
                match stage with
                | `All -> Validate.check_all hir mir lay
                | `Hir -> Validate.check_hir hir
                | `Mir -> Validate.check_mir hir mir
                | `Lir -> Validate.check_lir hir mir lay
                | `Reg -> Validate.check_reg hir mir lay
              in
              cells := (name, schedule, fs) :: !cells;
              Cli_common.report_cell g ~model:name
                ~cell:(Schedule.to_string schedule)
                (Validate.to_diagnostics fs))
          schedules)
      models;
    Printf.printf
      "validate: %d model(s) x %d schedule(s): %d error(s), %d warning(s)\n"
      (List.length models) (List.length schedules) g.errors g.warnings;
    (match out with
    | None -> ()
    | Some path ->
      let cell_json (name, schedule, fs) =
        Json.Obj
          [
            ("model", Json.Str name);
            ("schedule", Json.Str (Schedule.to_string schedule));
            ( "findings",
              Json.List
                (List.map
                   (fun (f : Validate.finding) ->
                     Json.Obj
                       [
                         ("code", Json.Str f.Validate.code);
                         ( "severity",
                           Json.Str (D.severity_string f.Validate.severity) );
                         ("pair", Json.Str
                            (Validate.stage_name (fst f.Validate.pair)
                             ^ "<->"
                             ^ Validate.stage_name (snd f.Validate.pair)));
                         ("tree", Json.Num (float_of_int f.Validate.tree));
                         ( "witness",
                           match f.Validate.witness with
                           | None -> Json.Null
                           | Some w ->
                             Json.List
                               (Array.to_list
                                  (Array.map (fun x -> Json.Num x) w)) );
                         ("message", Json.Str f.Validate.message);
                       ])
                   fs) );
          ]
      in
      Cli_common.write_report path
        (Json.Obj [ ("cells", Json.List (List.rev_map cell_json !cells)) ]);
      Printf.printf "report          : %s\n" path);
    let regressed = Cli_common.close_census g in
    if g.errors > 0 || regressed || (strict && g.warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Translation-validate the lowering pipeline: symbolic per-tree \
          path summaries of each compiled form (HIR tiled trees, MIR walk \
          kinds, LIR layout buffers, register-IR walk programs) are \
          compared with the source tree's, and any divergence is refuted \
          with a concrete witness row (T001..T004)")
    Term.(const run $ gate $ grid $ stage $ strict $ out)

(* ---------------- quantcheck ---------------- *)

let quantcheck_cmd =
  let module D = Tb_diag.Diagnostic in
  let module Numeric = Tb_analysis.Numeric in
  let module Json = Tb_util.Json in
  let gate =
    Cli_common.gate_term ~cmd:"quantcheck"
      ~family:Tb_analysis.Census.numeric_family
      ~zoo_doc:
        "Certify every benchmark model in the zoo (training/loading them \
         from the cache as needed)."
      ~verbose_doc:"Also print per-feature scales and per-class bounds."
      ~census_doc:
        "Write an N001..N004 census (per model x width counts) to FILE as \
         JSON."
      ~baseline_doc:
        "Diff this run's census against a checked-in baseline; any per-cell \
         N00x count growth fails the run."
  in
  let grid =
    Cli_common.grid_flag
      ~doc:"Certify at both widths (int8 and int16) instead of just --bits."
  in
  let strict =
    Cli_common.strict_flag
      ~doc:
        "Exit non-zero on any finding — or, when --census-baseline is \
         given, only on a census regression (the baseline records the \
         findings a model is known not to certify away)."
  in
  let out =
    Cli_common.out_arg
      ~doc:"Write the per-(model, width) certificates as a JSON report."
  in
  let run (g : Cli_common.gate) grid bits tolerance strict out =
    let models = g.models () in
    let widths = if grid then [ Numeric.I8; Numeric.I16 ] else [ bits ] in
    let certs = ref [] in
    List.iter
      (fun (name, forest) ->
        List.iter
          (fun width ->
            let cert = Numeric.certify ~tolerance ~width forest in
            let wname = Numeric.width_to_string width in
            certs := cert :: !certs;
            (* Every N00x finding is a warning. *)
            Cli_common.count_cell g ~model:name ~cell:wname
              cert.Numeric.findings;
            Printf.printf "%-12s %-6s %s\n" name wname
              (if cert.Numeric.findings = [] then "certified" else "refuted");
            List.iter
              (fun d -> Printf.printf "  %s\n" (D.to_string d))
              cert.Numeric.findings;
            if g.verbose then begin
              Printf.printf "  leaf scale 2^%d, tolerance %g\n"
                cert.Numeric.plan.Numeric.leaf_exp tolerance;
              Array.iteri
                (fun c dev ->
                  Printf.printf
                    "  class %d: dev bound %.3g, acc bound %d (cap %d)\n" c
                    dev
                    cert.Numeric.acc_bound.(c)
                    cert.Numeric.plan.Numeric.acc_max)
                cert.Numeric.dev_bound
            end)
          widths)
      models;
    let certified =
      List.length (List.filter Numeric.certified_clean !certs)
    in
    Printf.printf
      "quantcheck: %d model(s) x %d width(s): %d certified, %d finding(s)\n"
      (List.length models) (List.length widths) certified g.warnings;
    (match out with
    | None -> ()
    | Some path ->
      Cli_common.write_report path
        (Json.Obj
           [
             ( "certificates",
               Json.List (List.rev_map Numeric.report_to_json !certs) );
           ]);
      Printf.printf "report          : %s\n" path);
    let regressed = Cli_common.close_census g in
    let strict_failed = strict && g.baseline = None && g.warnings > 0 in
    if regressed || strict_failed then exit 1
  in
  Cmd.v
    (Cmd.info "quantcheck"
       ~doc:
         "Statically certify integer quantization of a model: derive \
          per-feature power-of-two scales for int8/int16, prove \
          worst-case accumulator and output-deviation bounds, and report \
          overflow, threshold-collision, tolerance and argmax-flip risks \
          (N001..N004)")
    Term.(
      const run $ gate $ grid $ Cli_common.bits_arg $ Cli_common.tolerance_arg
      $ strict $ out)

(* ---------------- calibrate ---------------- *)

let calibrate_cmd =
  let module Cost_check = Tb_analysis.Cost_check in
  let module D = Tb_diag.Diagnostic in
  let module Passman = Tb_core.Passman in
  let model = Cli_common.model_opt_arg in
  let zoo =
    Cli_common.zoo_flag
      ~doc:
        "Calibrate against every benchmark model in the zoo \
         (training/loading them from the cache as needed)."
  in
  let grid =
    Cli_common.grid_flag
      ~doc:
        "Sweep the full 256-point Table II schedule grid instead of the \
         reduced representative grid."
  in
  let top_k =
    Arg.(
      value & opt int Cost_check.default_tolerance.Cost_check.top_k
      & info [ "top-k" ] ~docv:"K"
          ~doc:"The predicted champion must rank in the measured top-K.")
  in
  let min_tau =
    Arg.(
      value & opt float Cost_check.default_tolerance.Cost_check.min_tau
      & info [ "min-tau" ] ~docv:"T"
          ~doc:"Minimum Kendall-tau between predicted and measured rankings \
                before a C001 finding.")
  in
  let max_regret =
    Arg.(
      value & opt float Cost_check.default_tolerance.Cost_check.max_regret
      & info [ "max-regret" ] ~docv:"F"
          ~doc:"Maximum measured slowdown of the predicted champion over \
                the measured best before a C001 finding (fraction).")
  in
  let event_tol =
    Arg.(
      value & opt float Cost_check.default_tolerance.Cost_check.event_rel_err
      & info [ "event-tol" ] ~docv:"F"
          ~doc:"Maximum per-row relative error on extensive event counts \
                before a C002 finding.")
  in
  let stall_tol =
    Arg.(
      value & opt float Cost_check.default_tolerance.Cost_check.stall_share_abs
      & info [ "stall-tol" ] ~docv:"F"
          ~doc:"Maximum absolute drift in a top-down stall bucket's share \
                of total cycles before a C003 finding.")
  in
  let batch =
    Arg.(
      value & opt int 256
      & info [ "batch" ] ~docv:"N" ~doc:"Rows per calibration batch.")
  in
  let sample =
    Arg.(
      value & opt int 48
      & info [ "sample" ] ~docv:"N"
          ~doc:"Row-sample size the extrapolated (autotuner-side) workload \
                is profiled on.")
  in
  let out =
    Cli_common.out_arg ~doc:"Write the combined calibration report as JSON."
  in
  let strict =
    Cli_common.strict_flag
      ~doc:"Treat warnings as errors for the exit status."
  in
  let run model zoo grid target top_k min_tau max_regret event_tol stall_tol
      batch sample out strict =
    let models =
      match (zoo, model) with
      | true, _ ->
        List.map
          (fun (s : Tb_gbt.Zoo.spec) ->
            let e = Tb_gbt.Zoo.get s.Tb_gbt.Zoo.name in
            let profiles =
              Tb_model.Model_stats.profile_forest e.Tb_gbt.Zoo.forest
                e.Tb_gbt.Zoo.train_data.Tb_data.Dataset.features
            in
            let rows =
              Tb_data.Dataset.subsample_rows e.Tb_gbt.Zoo.test_data batch
                (Tb_util.Prng.create (Hashtbl.hash s.Tb_gbt.Zoo.name))
            in
            (s.Tb_gbt.Zoo.name, e.Tb_gbt.Zoo.forest, Some profiles, rows))
          Tb_gbt.Zoo.specs
      | false, Some path ->
        let forest = Cli_common.read_model path in
        let rng = Tb_util.Prng.create 7 in
        let rows =
          Array.init batch (fun _ ->
              Array.init forest.Tb_model.Forest.num_features (fun _ ->
                  Tb_util.Prng.gaussian rng))
        in
        [ (path, forest, None, rows) ]
      | false, None ->
        prerr_endline "calibrate: pass --model FILE or --zoo"; exit 2
    in
    let schedules =
      if grid then Schedule.table2_grid else Cost_check.reduced_grid
    in
    let tol =
      {
        Cost_check.top_k;
        min_tau;
        max_regret;
        event_rel_err = event_tol;
        stall_share_abs = stall_tol;
      }
    in
    let errors = ref 0 and warnings = ref 0 in
    let reports =
      List.map
        (fun (name, forest, profiles, rows) ->
          let compile schedule =
            match Passman.compile ~batch_size:batch ?profiles ~schedule forest with
            | Ok (c, _) -> Ok (c.Passman.lowered, c.Passman.predict)
            | Error report -> Error (D.summary (Passman.diagnostics report))
          in
          let report =
            Cost_check.calibrate ~target ~tol ~sample ~compile ~name
              ~grid:schedules rows
          in
          print_string (Cost_check.report_to_string report);
          errors := !errors + List.length (D.errors report.Cost_check.findings);
          warnings :=
            !warnings
            + List.length
                (List.filter
                   (fun d -> d.D.severity = D.Warning)
                   report.Cost_check.findings);
          report)
        models
    in
    Printf.printf
      "calibrate: %d model(s) x %d schedule(s): %d error(s), %d warning(s)\n"
      (List.length models) (List.length schedules) !errors !warnings;
    (match out with
    | None -> ()
    | Some path ->
      let json =
        Tb_util.Json.Obj
          [
            ("target", Tb_util.Json.Str target.Config.name);
            ( "reports",
              Tb_util.Json.List (List.map Cost_check.report_to_json reports) );
          ]
      in
      Cli_common.write_report path json;
      Printf.printf "report: %s\n" path);
    if !errors > 0 || (strict && !warnings > 0) then exit 1
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"Cross-validate the cost model against the instrumented \
             profiler and JIT wall clock over a schedule grid \
             (Kendall-tau rank agreement, top-k regret, event-count and \
             stall-attribution drift; C00x findings)")
    Term.(
      const run $ model $ zoo $ grid $ target_arg $ top_k $ min_tau
      $ max_regret $ event_tol $ stall_tol $ batch $ sample $ out $ strict)

(* ---------------- serve-sim ---------------- *)

let serve_sim_cmd =
  let module Simulate = Tb_serve.Simulate in
  let module Policy = Tb_serve.Policy in
  let module Runtime = Tb_serve.Runtime in
  let zoo =
    Arg.(
      value & opt string "abalone"
      & info [ "zoo" ] ~docv:"NAMES"
          ~doc:"Comma-separated benchmark models to serve (the request \
                stream mixes them uniformly).")
  in
  let arrival =
    let parse s =
      match Simulate.arrival_kind_of_string s with
      | Ok k -> Ok k
      | Error e -> Error (`Msg e)
    in
    let print fmt k =
      Format.fprintf fmt "%s" (Simulate.arrival_kind_to_string k)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Simulate.Poisson
      & info [ "arrival" ] ~docv:"KIND"
          ~doc:"Arrival process: poisson, burst[:N] or ramp.")
  in
  let rate =
    Arg.(
      value & opt float 50_000.0
      & info [ "rate" ] ~docv:"RPS" ~doc:"Average request rate (requests/s).")
  in
  let requests =
    Arg.(
      value & opt int 2000
      & info [ "requests" ] ~docv:"N" ~doc:"Trace length in requests.")
  in
  let batch_max =
    Arg.(
      value & opt int 32
      & info [ "batch-max" ] ~docv:"N" ~doc:"Maximum dynamic batch size.")
  in
  let deadline =
    Arg.(
      value & opt float 500.0
      & info [ "deadline-us" ] ~docv:"US"
          ~doc:"Batching deadline: a request waits at most this long \
                before its partial batch is dispatched.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size (domains).")
  in
  let queue_cap =
    Arg.(
      value & opt int 1024
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission queue capacity; arrivals beyond it are rejected \
                (backpressure).")
  in
  let cache =
    let parse s =
      match Policy.kind_of_string s with
      | Ok k -> Ok k
      | Error e -> Error (`Msg e)
    in
    let print fmt k = Format.fprintf fmt "%s" (Policy.kind_to_string k) in
    Arg.(
      value
      & opt (conv (parse, print)) Policy.Lru
      & info [ "cache" ] ~docv:"POLICY"
          ~doc:"Predictor-cache eviction policy: lru or sieve.")
  in
  let cache_cap =
    Arg.(
      value & opt int 8
      & info [ "cache-cap" ] ~docv:"N" ~doc:"Predictor-cache capacity.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Trace PRNG seed.")
  in
  let mode =
    let parse s =
      match Runtime.mode_of_string s with
      | Ok m -> Ok m
      | Error e -> Error (`Msg e)
    in
    let print fmt m = Format.fprintf fmt "%s" (Runtime.mode_to_string m) in
    Arg.(
      value
      & opt (conv (parse, print)) Runtime.Virtual
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Execution mode: virtual (deterministic simulation only), \
                wall (also time real execution and report wall metrics), or \
                dual (wall metrics plus per-model wall/virtual drift and \
                V001/V002 checks).")
  in
  let max_service_drift =
    Arg.(
      value
      & opt float
          Tb_analysis.Serve_check.default_tolerance
            .Tb_analysis.Serve_check.max_service_drift
      & info [ "max-service-drift" ] ~docv:"X"
          ~doc:"Allowed wall/virtual service-time ratio (either direction) \
                per percentile before a V001 finding (dual mode).")
  in
  let max_compile_drift =
    Arg.(
      value
      & opt float
          Tb_analysis.Serve_check.default_tolerance
            .Tb_analysis.Serve_check.max_compile_drift
      & info [ "max-compile-drift" ] ~docv:"X"
          ~doc:"Allowed measured/modeled compile-cost ratio before a V002 \
                finding (dual mode).")
  in
  let min_drift_batches =
    Arg.(
      value
      & opt int
          Tb_analysis.Serve_check.default_tolerance
            .Tb_analysis.Serve_check.min_batches
      & info [ "min-drift-batches" ] ~docv:"N"
          ~doc:"A model's drift is only judged once it has at least this \
                many measured batches (noise guard, dual mode).")
  in
  let cache_dir = Cli_common.cache_dir_arg in
  let cache_max_bytes = Cli_common.cache_max_bytes_arg in
  let shards = Cli_common.shards_arg in
  let routing = Cli_common.routing_arg in
  let scheduling = Cli_common.scheduling_arg in
  let popularity = Cli_common.popularity_arg in
  let slo = Cli_common.slo_arg in
  let shed_lo = Cli_common.shed_lo_arg in
  let shed_hi = Cli_common.shed_hi_arg in
  let require_warm =
    Arg.(
      value & flag
      & info [ "require-warm" ]
          ~doc:
            "Exit non-zero if any dispatch paid a fresh compile — i.e. \
             assert the run was served entirely from the in-memory and \
             on-disk cache tiers (use with --cache-dir on a second run to \
             verify warm-restart behaviour).")
  in
  let out = Cli_common.out_arg ~doc:"Write the JSON report here." in
  let virtual_out =
    Arg.(
      value & opt (some string) None
      & info [ "virtual-out" ] ~docv:"FILE"
          ~doc:"Also write the report's deterministic virtual half (wall \
                and drift sections stripped) here — byte-identical across \
                same-seed runs in any mode.")
  in
  let strict =
    Cli_common.strict_flag
      ~doc:
        "Exit non-zero unless every served output is bitwise equal to the \
         direct single-call JIT prediction and (dual mode) no V001/V002 \
         drift finding fired."
  in
  let run zoo arrival rate requests schedule target batch_max deadline
      workers queue_cap cache cache_cap cache_dir cache_max_bytes shards
      routing scheduling popularity slo shed_lo shed_hi precision tolerance
      require_warm seed mode max_service_drift max_compile_drift
      min_drift_batches out virtual_out strict =
    let precision = Cli_common.with_tolerance tolerance precision in
    let names =
      String.split_on_char ',' zoo
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if names = [] then begin
      prerr_endline "serve-sim: pass at least one model via --zoo";
      exit 2
    end;
    if shards < 1 then begin
      prerr_endline "serve-sim: --shards must be >= 1";
      exit 2
    end;
    let slo_pairs, slo_default = slo in
    let models =
      List.map
        (fun name ->
          let e = Tb_gbt.Zoo.get name in
          let profiles =
            Tb_model.Model_stats.profile_forest e.Tb_gbt.Zoo.forest
              e.Tb_gbt.Zoo.train_data.Tb_data.Dataset.features
          in
          let pool =
            Tb_data.Dataset.subsample_rows e.Tb_gbt.Zoo.test_data 128
              (Tb_util.Prng.create (Hashtbl.hash name land max_int))
          in
          {
            Simulate.name;
            forest = e.Tb_gbt.Zoo.forest;
            profiles = Some profiles;
            pool;
            weight = 1;
            slo_us = List.assoc_opt name slo_pairs;
          })
        names
    in
    let config =
      {
        Simulate.arrival;
        rate_rps = rate;
        num_requests = requests;
        seed;
        popularity;
        schedule;
        runtime =
          {
            Runtime.default_config with
            Runtime.queue_capacity = queue_cap;
            batch_max;
            deadline_us = deadline;
            workers;
            scheduling;
            default_slo_us = slo_default;
            shed_lo;
            shed_hi;
            precision;
          };
        mode;
        shards;
        routing;
        cache_policy = cache;
        cache_capacity = cache_cap;
        cache_dir;
        cache_max_bytes;
        target;
      }
    in
    let report = Simulate.run_fleet config models in
    let f = report.Simulate.fleet in
    let json = Simulate.fleet_report_to_json report in
    let failures = f.Runtime.fleet_equivalence_failures in
    let compiles = f.Runtime.fleet_compiles in
    let text = Tb_util.Json.to_string ~indent:true json ^ "\n" in
    (match out with
    | None -> print_string text
    | Some path ->
      Cli_common.write_report path json;
      Printf.printf "report: %s\n" path);
    (match virtual_out with
    | None -> ()
    | Some path ->
      Cli_common.write_report path
        (Simulate.fleet_report_to_json ~virtual_only:true report);
      Printf.printf "virtual report: %s\n" path);
    if failures > 0 then
      Printf.eprintf "serve-sim: %d served output(s) diverge from the JIT\n"
        failures;
    Printf.printf "compiles: %d, disk hydrations: %d (foreign: %d)\n" compiles
      f.Runtime.fleet_hydrations f.Runtime.fleet_foreign_hydrations;
    if require_warm && compiles > 0 then begin
      Printf.eprintf
        "serve-sim: --require-warm but %d dispatch(es) paid a fresh compile\n"
        compiles;
      exit 1
    end;
    let drift_findings =
      let module S = Tb_analysis.Serve_check in
      let tol =
        { S.max_service_drift; max_compile_drift;
          min_batches = min_drift_batches }
      in
      S.check ~tol
        (List.concat_map
           (fun (_, (r : Runtime.result)) -> r.Runtime.drift)
           f.Runtime.shard_results)
    in
    List.iter
      (fun d -> print_endline (Tb_diag.Diagnostic.to_string d))
      drift_findings;
    if drift_findings <> [] then
      Printf.printf "serve-sim: %d drift finding(s)\n"
        (List.length drift_findings);
    if strict && (failures > 0 || drift_findings <> []) then exit 1
  in
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:"Simulate the dynamic-batching serving runtime on a \
             deterministic trace (virtual-clock latencies, predictor \
             cache, backpressure) and report p50/p95/p99, throughput and \
             cache behaviour as JSON; --shards/--routing/--scheduling add \
             a routed fleet with EDF dispatch and artifact shipping; \
             --mode wall/dual also times real execution and (dual) checks \
             wall/virtual drift (V001/V002)")
    Term.(
      const run $ zoo $ arrival $ rate $ requests $ schedule_term
      $ target_arg $ batch_max $ deadline $ workers $ queue_cap $ cache
      $ cache_cap $ cache_dir $ cache_max_bytes $ shards $ routing
      $ scheduling $ popularity $ slo $ shed_lo $ shed_hi
      $ Cli_common.precision_arg $ Cli_common.tolerance_arg $ require_warm
      $ seed $ mode
      $ max_service_drift $ max_compile_drift $ min_drift_batches $ out
      $ virtual_out $ strict)

(* ---------------- import ---------------- *)

let import_cmd =
  let dump =
    Arg.(
      required & opt (some file) None
      & info [ "d"; "dump" ] ~docv:"FILE"
          ~doc:"XGBoost JSON dump (booster.dump_model(..., dump_format=\"json\")).")
  in
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output model path.")
  in
  let run dump out =
    let forest =
      Cli_common.read_input
        (fun path -> Tb_model.Xgb_import.of_dump_file path)
        dump
    in
    Tb_model.Serialize.to_file out forest;
    Printf.printf "imported %d trees (max depth %d, %d features) -> %s\n"
      (Array.length forest.Tb_model.Forest.trees)
      (Tb_model.Forest.max_depth forest)
      forest.Tb_model.Forest.num_features out
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Convert an XGBoost JSON dump into a model file")
    Term.(const run $ dump $ out)

let () =
  let doc = "TREEBEARD: an optimizing compiler for decision tree inference" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "treebeard" ~version:"1.0.0" ~doc)
          [
            train_cmd; compile_cmd; predict_cmd; explore_cmd; import_cmd;
            lint_cmd; validate_cmd; quantcheck_cmd; calibrate_cmd;
            serve_sim_cmd;
          ]))
