(* cold-compile, cold-verified, cold-restart: the time from a model file
   (or a stored artifact) to its first prediction, one path per workload.
   Traced visits also replay the path stage by stage through the same
   public functions, so the stages can be timed from outside the
   library. The quant path is timed as predict-int16's set-up; its
   stages are replayed here too. *)

module T = Tb_core.Treebeard
module Passman = Tb_core.Passman
module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Mir = Tb_mir.Mir
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Numeric = Tb_analysis.Numeric
module Validate = Tb_analysis.Validate
module Registry = Tb_serve.Registry
module Artifact = Tb_serve.Artifact
module Serialize = Tb_model.Serialize
module Forest = Tb_model.Forest
module Rr = Bench_harness.Rr
module Sample = Bench_harness.Sample
module Span = Bench_harness.Span
module Json = Tb_util.Json
open Cells

let store_of ctx name = Filename.concat ctx.Run.store_dir name

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let artifact_file dir =
  match
    List.filter
      (fun f -> Filename.check_suffix f ".tbpack")
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | files ->
    failwith
      (Printf.sprintf "cold-restart: %d artifacts in %s, expected one"
         (List.length files) dir)

(* Set-up: parse each model file — the checks compare against what it
   parses to — and, for the restart path, compile each model into a fresh
   artifact store, the state a restart starts from. Returns each model's
   forest and whether its store was written. *)
let build ctx path (models : Models.model list) () =
  List.map
    (fun (m : Models.model) ->
      let forest = Serialize.of_file m.Models.path in
      let stored =
        match path with
        | Restart ->
          let reg = Registry.create ~cache_dir:(store_of ctx m.Models.name) () in
          Registry.register reg ~name:m.Models.name forest;
          snd (Registry.compiled reg ~model:m.Models.name ~schedule:Schedule.default)
          = `Compile
        | Compile | Verified | Quant -> true
      in
      (m.Models.name, (forest, stored)))
    models

let quant_request name =
  `Quantized { T.bits = `I16; tolerance = int16_tolerance name }

(* [Treebeard.make]'s resident-depth probe when no rows are given. *)
let make_probe_rows num_features =
  let rng = Tb_util.Prng.create 7 in
  Array.init 48 (fun _ ->
      Array.init num_features (fun _ -> Tb_util.Prng.gaussian rng))

let span name cat f = Span.with_ ~cat name f

(* Stage-by-stage replays. Each mirrors one whole call: [Treebeard.make],
   [Passman.compile] (Verify_each), a registry disk hit, a quantized
   [make]. *)
let replay_compile path row =
  let forest = span "model.load" "model" (fun () -> Serialize.of_file path) in
  let hir =
    span "hir.build" "hir" (fun () -> Program.build forest Schedule.default)
  in
  let mir = span "mir.lower" "mir" (fun () -> Mir.lower hir) in
  let lowered =
    span "lir.layout" "lir" (fun () -> Lower.assemble hir mir (Layout.build hir))
  in
  let pack = span "lir.pack" "lir" (fun () -> Pack.of_lower lowered) in
  let predict = span "vm.instantiate" "vm" (fun () -> Jit.instantiate pack) in
  ignore (span "vm.first_predict" "vm" (fun () -> predict [| row |]))

let replay_verified path row =
  let module Hc = Tb_analysis.Hir_check in
  let module Mc = Tb_analysis.Mir_check in
  let module Lc = Tb_analysis.Lir_check in
  let check name f = ignore (span ("passman." ^ name) "analysis" f) in
  let batch_size = 1024 in
  let schedule = Schedule.default in
  let forest = span "model.load" "model" (fun () -> Serialize.of_file path) in
  check "schedule" (fun () -> Hc.check_schedule ~batch_size schedule);
  ignore
    (span "analysis.certify_int16" "analysis" (fun () ->
         Numeric.certify ~width:Numeric.I16 forest));
  let hir = span "hir.build" "hir" (fun () -> Program.build forest schedule) in
  check "hir" (fun () -> Hc.check_program hir);
  ignore
    (span "analysis.validate_hir" "analysis" (fun () -> Validate.check_hir hir));
  let pass name f mir =
    let mir = span ("mir." ^ name) "mir" (fun () -> f mir) in
    check "mir" (fun () -> Mc.check ~batch_size hir mir);
    mir
  in
  let specialized =
    pass "lower_of_hir" (fun () -> Mir.lower_of_hir hir) ()
    |> pass "specialize" (Mir.apply_walk_specialization hir)
  in
  ignore
    (span "analysis.validate_mir" "analysis" (fun () ->
         Validate.check_mir hir specialized));
  let mir =
    specialized
    |> pass "interleave" Mir.apply_interleaving
    |> pass "parallelize" Mir.apply_parallelization
  in
  let num_features = forest.Forest.num_features in
  let layout = span "lir.layout" "lir" (fun () -> Layout.build hir) in
  check "layout" (fun () -> Lc.check_layout ~num_features layout);
  ignore
    (span "analysis.validate_lir" "analysis" (fun () ->
         Validate.check_lir hir mir layout));
  check "walks" (fun () ->
      let env = Lc.env_of_layout ~num_features layout in
      Tb_lir.Reg_codegen.jammed_variants layout mir
      |> List.concat_map (fun (i, prog) -> Lc.check_variant env ~variant:i prog));
  ignore
    (span "analysis.validate_reg" "analysis" (fun () ->
         Validate.check_reg hir mir layout));
  let lowered =
    span "lir.assemble" "lir" (fun () -> Lower.assemble hir mir layout)
  in
  let pack = span "lir.pack" "lir" (fun () -> Pack.of_lower lowered) in
  let predict = span "vm.instantiate" "vm" (fun () -> Jit.instantiate pack) in
  ignore (span "vm.first_predict" "vm" (fun () -> predict [| row |]))

let replay_restart ~dir ~file name forest row =
  ignore
    (span "serve.registry_other" "serve" (fun () ->
         let reg = Registry.create ~cache_dir:dir () in
         Registry.register reg ~name forest));
  let bytes =
    span "serve.artifact_read" "serve" (fun () ->
        match Artifact.read_file file with
        | Ok b -> b
        | Error e -> failwith e)
  in
  let pack =
    span "lir.decode" "lir" (fun () ->
        match Pack.decode bytes with
        | Ok p -> p
        | Error e -> failwith e.Pack.message)
  in
  let predict =
    span "vm.instantiate" "vm" (fun () -> Jit.instantiate_single_thread pack)
  in
  ignore (span "vm.first_predict" "vm" (fun () -> predict [| row |]))

let replay_quant path name row =
  let forest = span "model.load" "model" (fun () -> Serialize.of_file path) in
  let cert =
    span "analysis.certify" "analysis" (fun () ->
        Numeric.certify ~tolerance:(int16_tolerance name) ~width:Numeric.I16
          forest)
  in
  let quant = T.qspec_of_plan cert.Numeric.plan in
  let lower () =
    span "lir.quant_lower" "lir" (fun () ->
        Lower.lower ~quant forest Schedule.default)
  in
  let checked = lower () in
  ignore
    (span "analysis.check_quant" "analysis" (fun () ->
         Validate.check_quant forest cert.Numeric.plan checked));
  let lowered = lower () in
  let resident_k =
    span "core.tune_resident_k" "core" (fun () ->
        T.tune_resident_k ~target:Tb_cpu.Config.intel_rocket_lake lowered
          (make_probe_rows forest.Forest.num_features))
  in
  let pack =
    span "lir.pack" "lir" (fun () ->
        Pack.of_lower
          ~quant:
            {
              Pack.resident_k;
              dev_bound = Array.copy cert.Numeric.dev_bound;
              tolerance = cert.Numeric.plan.Numeric.tolerance;
            }
          lowered)
  in
  let predict = span "vm.instantiate" "vm" (fun () -> Jit.instantiate pack) in
  ignore (span "vm.first_predict" "vm" (fun () -> predict [| row |]))

(* Stage metrics per path, each with the replay stages it sums. Stages
   not exported on their own still count towards the path's unaccounted
   remainder. *)
let exported =
  let each = List.map (fun s -> (s ^ "_ms", [ s ])) in
  function
  | Compile ->
    each
      [ "model.load"; "hir.build"; "mir.lower"; "lir.layout"; "lir.pack";
        "vm.instantiate"; "vm.first_predict" ]
  | Verified ->
    ( "core.passman_other_ms",
      List.map (fun s -> "passman." ^ s) [ "schedule"; "hir"; "mir"; "layout"; "walks" ] )
    :: each
         [ "analysis.validate_hir"; "analysis.validate_mir";
           "analysis.validate_lir"; "analysis.validate_reg";
           "analysis.certify_int16" ]
  | Restart -> each [ "serve.artifact_read"; "lir.decode"; "serve.registry_other" ]
  | Quant ->
    each
      [ "analysis.certify"; "analysis.check_quant"; "core.tune_resident_k";
        "lir.quant_lower" ]

(* Run [f] under spans; return the time (ms) each span name took in it. *)
let stage_times f =
  let before = Span.totals_us () in
  f ();
  List.map
    (fun (name, us) ->
      (name, (us -. Option.value ~default:0.0 (List.assoc_opt name before)) /. 1e3))
    (Span.totals_us ())
  |> List.filter (fun (_, ms) -> ms > 0.0)

(* Visit every model of [path] in a seed-shuffled order for [window_s]
   seconds and at least [min_rounds] passes. Traced visits also replay the path stage by stage; the
   stage metrics come from those replays. *)
let measure ctx errs path ~min_rounds ~window_s forests =
  let models = List.map (Models.get ctx.Run.models) (path_models path) in
  let replays : (string, (string * float) list list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let artifact_kb = ref [] in
  let cell (m : Models.model) =
    let name = m.Models.name in
    let forest = List.assoc name forests in
    let row = (Models.sample_rows ~seed:ctx.Run.seed m 1).(0) in
    let expected = Forest.predict_raw forest row in
    let label = Printf.sprintf "%s.%s" (path_name path) name in
    let fail what = Run.error errs (label ^ ": " ^ what) in
    let float_check out _speed =
      let ok = Run.close out expected in
      if not ok then fail "first prediction differs from the source forest";
      ok
    in
    let dir = store_of ctx name in
    let op, probe, layer =
      match path with
      | Compile ->
        ( (fun () ->
            let t = T.make (`File m.Models.path) in
            float_check (T.predict_one t row)),
          (fun () -> replay_compile m.Models.path row),
          "core" )
      | Verified ->
        ( (fun () ->
            match Passman.compile (Serialize.of_file m.Models.path) with
            | Ok (t, _) -> float_check (T.predict_one t row)
            | Error report ->
              fun _speed ->
                fail ("verification failed: " ^ Passman.report_to_string report);
                false),
          (fun () -> replay_verified m.Models.path row),
          "core" )
      | Restart ->
        let file = artifact_file dir in
        artifact_kb := (float_of_int (Unix.stat file).Unix.st_size /. 1024.0) :: !artifact_kb;
        ( (fun () ->
            let reg = Registry.create ~cache_dir:dir () in
            Registry.register reg ~name forest;
            let c, provenance =
              Registry.compiled reg ~model:name ~schedule:Schedule.default
            in
            let out = c.Registry.predict [| row |] in
            fun speed ->
              if provenance <> `Disk then fail "restart did not answer from disk";
              provenance = `Disk && float_check out.(0) speed),
          (fun () -> replay_restart ~dir ~file name forest row),
          "serve" )
      | Quant ->
        ( (fun () ->
            let t = T.make ~precision:(quant_request name) (`File m.Models.path) in
            let out = T.predict_one t row in
            fun _speed ->
              match (t.T.tier, t.T.certificate) with
              | `Int16, Some cert ->
                let q = Numeric.quantize cert.Numeric.plan forest in
                let ok = Run.bitwise out (Numeric.qpredict_raw q row) in
                if not ok then fail "output differs from Numeric.qpredict_raw";
                ok
              | (`Float | `Int8 | `Int16), _ ->
                fail "did not resolve to the int16 tier";
                false),
          (fun () -> replay_quant m.Models.path name row),
          "core" )
    in
    let record speed =
      let times = List.map (fun (s, ms) -> (s, ms *. speed)) (stage_times probe) in
      match Hashtbl.find_opt replays name with
      | Some r -> r := times :: !r
      | None -> Hashtbl.add replays name (ref [ times ])
    in
    { Rr.name = label; layer; rows = 1; op; probe = Some record }
  in
  let order = Array.of_list models in
  Tb_util.Prng.shuffle (Tb_util.Prng.create ctx.Run.seed) order;
  let r =
    Rr.run ~traced:ctx.Run.trace ~min_rounds ~slice_us:0.0 ~window_s
      (Array.map cell order)
  in
  let stages =
    if not ctx.Run.trace then []
    else begin
      let names = Array.to_list (Array.map (fun (m : Models.model) -> m.Models.name) order) in
      let whole_ms =
        List.mapi
          (fun i name ->
            let s = r.Rr.cells.(i) in
            (name, Sample.median (Array.append s.Rr.plain_us s.Rr.traced_us) /. 1e3))
          names
      in
      (* Per model: the median over traced visits of each stage. *)
      let visits name = !(Hashtbl.find replays name) in
      let stage_median name stage =
        Sample.median
          (Array.of_list
             (List.map
                (fun v -> Option.value ~default:0.0 (List.assoc_opt stage v))
                (visits name)))
      in
      let exported_metrics =
        List.map
          (fun (metric, stages) ->
            ( metric,
              Sample.geomean
                (List.map
                   (fun n ->
                     List.fold_left (fun acc s -> acc +. stage_median n s) 0.0 stages)
                   names) ))
          (exported path)
      in
      let unaccounted =
        Tb_util.Stats.mean
          (Array.of_list
             (List.map
                (fun n ->
                  List.assoc n whole_ms
                  -. List.fold_left
                       (fun acc (s, _) -> acc +. stage_median n s)
                       0.0
                       (List.hd (visits n)))
                names))
      in
      exported_metrics
      @ [ (path_name path ^ ".unaccounted_ms", unaccounted) ]
      @
      match path with
      | Restart -> [ ("lir.artifact_kb", Sample.geomean !artifact_kb) ]
      | Compile | Verified | Quant -> []
    end
  in
  (r, stages)

(* The quant path's stage metrics, for predict-int16's traced run (whose
   set-up is that path). Nothing here is timed as set-up. *)
let quant_stages ctx errs =
  let models = List.map (Models.get ctx.Run.models) (path_models Quant) in
  let forests =
    List.map (fun (name, (forest, _)) -> (name, forest)) (build ctx Quant models ())
  in
  snd (measure ctx errs Quant ~min_rounds:1 ~window_s:ctx.Run.extra_seconds forests)

let run ctx path =
  let errs = Run.errors () in
  let models = List.map (Models.get ctx.Run.models) (path_models path) in
  let state, setup_s, setup_speed =
    Run.timed_setup
      ~reset:(fun () -> remove_tree ctx.Run.store_dir)
      (build ctx path models)
  in
  List.iter
    (fun (name, (_, stored)) ->
      if not stored then Run.error errs (name ^ ": set-up did not compile into the store"))
    state;
  let forests = List.map (fun (name, (forest, _)) -> (name, forest)) state in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, stages = measure ctx errs path ~min_rounds:3 ~window_s:ctx.Run.seconds forests in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let stats = r.Rr.cells in
  let layer =
    if not ctx.Run.trace then []
    else
      stages
      @ Run.cells_gc_layer stats ~major_collections:major
      @ Run.overhead_share stats
  in
  Run.cells_outcome errs ~setup_s ~setup_speed ~layer r
