(* predict-large, predict-int16, predict-2t and predict-small: one
   closed-loop caller predicting batches through compiled predictors,
   cells interleaved round-robin. *)

module T = Tb_core.Treebeard
module Schedule = Tb_hir.Schedule
module Numeric = Tb_analysis.Numeric
module Forest = Tb_model.Forest
module Rr = Bench_harness.Rr
module Sample = Bench_harness.Sample
module Json = Tb_util.Json
open Cells

let compile (m : Models.model) tuned forest = function
  | Default_1t -> T.make ~backend:`Single_thread (`Forest forest)
  | Tuned_1t ->
    T.make ~plan:(`Schedule tuned) ~profiles:m.Models.profiles
      ~backend:`Single_thread (`Forest forest)
  | Int16_1t ->
    T.make ~backend:`Single_thread
      ~precision:
        (`Quantized
          { T.bits = `I16; tolerance = int16_tolerance m.Models.name })
      (`Forest forest)
  | Default_2t ->
    T.make ~plan:(`Schedule (Schedule.with_threads Schedule.default 2))
      (`Forest forest)

let distinct xs = List.sort_uniq compare xs

(* The set-up a user of this workload pays: load each model file, then
   compile every (model, variant) predictor. *)
let build ctx models keys () =
  let forests =
    List.map
      (fun name ->
        (name, Tb_model.Serialize.of_file (List.assoc name models).Models.path))
      (distinct (List.map fst keys))
  in
  List.map
    (fun (name, variant) ->
      let m = List.assoc name models in
      let tuned =
        match variant with
        | Tuned_1t ->
          Schedule.of_file (Models.schedule_path ctx.Run.schedules_dir name)
        | Default_1t | Int16_1t | Default_2t -> Schedule.default
      in
      ((name, variant), compile m tuned (List.assoc name forests) variant))
    keys

(* Expected outputs of one batch: the source forest for float cells, the
   certified integer evaluator (bitwise) for int16 cells. An int16 cell
   that resolved to the float tier fails every check: it would measure
   float under an int16 label. *)
let checker errs name (m : Models.model) (t : T.t) variant =
  match variant with
  | Int16_1t -> (
    match (t.T.tier, t.T.certificate) with
    | `Int16, Some cert ->
      let q = Numeric.quantize cert.Numeric.plan m.Models.forest in
      fun rows -> (Run.bitwise, Array.map (Numeric.qpredict_raw q) rows)
    | (`Float | `Int8 | `Int16), _ ->
      Run.error errs (name ^ ": int16 request did not resolve to the int16 tier");
      fun rows -> ((fun _ _ -> false), Array.map (fun _ -> [||]) rows))
  | Default_1t | Tuned_1t | Default_2t ->
    fun rows -> (Run.close, Forest.predict_batch_raw m.Models.forest rows)

let cell errs name (m : Models.model) (t : T.t) variant batches =
  let expect = checker errs name m t variant in
  let checks = Array.map expect batches in
  let n = Array.length batches in
  let k = ref 0 in
  let op () =
    let i = !k in
    k := if i + 1 = n then 0 else i + 1;
    let out = t.T.predict batches.(i) in
    fun _speed ->
      let eq, refs = checks.(i) in
      let ok = Run.all_rows eq out refs in
      if not ok then Run.error errs (name ^ ": output mismatch");
      ok
  in
  { Rr.name; layer = "vm"; rows = Array.length batches.(0); op; probe = None }

let chunks rows b =
  Array.init (Array.length rows / b) (fun i -> Array.sub rows (i * b) b)

(* Fig. 9 on the wall clock: call time over batch sizes, fitted as
   fixed + per_row * rows. *)
let affine_probe ctx errs models predictors =
  let cells =
    List.concat_map
      (fun (label, c) ->
        let m = List.assoc c.model models in
        let t = predictors (c.model, c.variant) in
        let pool = Models.sample_rows ~seed:ctx.Run.seed m 1024 in
        List.map
          (fun b ->
            ( (label, b),
              cell errs
                (Printf.sprintf "fit.%s.b%d" label b)
                m t c.variant
                [| Array.sub pool 0 b |] ))
          fit_batches)
      fit_cells
  in
  let r =
    Rr.run ~min_rounds:1 ~slice_us:2000.0 ~window_s:ctx.Run.extra_seconds
      (Array.of_list (List.map snd cells))
  in
  let medians =
    List.mapi (fun i (key, _) -> (key, Sample.median r.Rr.cells.(i).Rr.plain_us)) cells
  in
  List.concat_map
    (fun (label, _) ->
      let points =
        List.filter_map
          (fun ((l, b), y) -> if l = label then Some (float_of_int b, y) else None)
          medians
      in
      let fixed, per_row = Sample.affine_fit points in
      [ ("vm.fixed_us." ^ label, fixed); ("vm.per_row_us." ^ label, per_row) ])
    fit_cells

let run ctx plan extra =
  let errs = Run.errors () in
  let large = List.for_all (fun c -> c.batch = 1024) plan in
  let keys = distinct (List.map (fun c -> (c.model, c.variant)) plan) in
  let models =
    List.map
      (fun name -> (name, Models.get ctx.Run.models name))
      (distinct (List.map fst keys))
  in
  let built, setup_s, setup_speed = Run.timed_setup (build ctx models keys) in
  let predictors = Hashtbl.create 32 in
  List.iter (fun (k, t) -> Hashtbl.replace predictors k t) built;
  (* predict-small, which runs the traced batch-size sweep, has a cell
     for every predictor the sweep uses. *)
  let predictor k = Hashtbl.find predictors k in
  let pools =
    List.map
      (fun (name, m) ->
        (name, Models.sample_rows ~seed:ctx.Run.seed m (if large then 1024 else 256)))
      models
  in
  let cells =
    List.map
      (fun c ->
        cell errs (pcell_name c) (List.assoc c.model models)
          (predictor (c.model, c.variant))
          c.variant
          (chunks (List.assoc c.model pools) c.batch))
      plan
    |> Array.of_list
  in
  (* One untimed call per cell first, so no cell pays a first-touch cost
     inside the window. *)
  Array.iter (fun (c : Rr.cell) -> ignore (c.Rr.op () 1.0)) cells;
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let r =
    Rr.run ~traced:ctx.Run.trace ~min_rounds:1
      ~slice_us:(if large then 20_000.0 else 2000.0)
      ~window_s:ctx.Run.seconds cells
  in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let stats = r.Rr.cells in
  let layer =
    if not ctx.Run.trace then []
    else
      List.mapi
        (fun i c ->
          let traced = Sample.median stats.(i).Rr.traced_us in
          if large then (row_us_metric c, traced /. float_of_int c.batch)
          else (call_p50_metric c, traced))
        plan
      @ Run.cells_gc_layer stats ~major_collections:major
      @ Run.overhead_share stats
      @
      match extra with
      | Some Batch_sweep -> affine_probe ctx errs models predictor
      | Some Quant_stages -> Cold_start.quant_stages ctx errs
      | None -> []
  in
  Run.cells_outcome errs ~setup_s ~setup_speed ~layer r
