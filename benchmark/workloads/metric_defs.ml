(* Every metric the benchmark reports. BENCHMARK.json lists the same
   names, units and directions (a test checks it); [moves] and [source]
   are recorded here and in README.md because BENCHMARK.json's schema
   has no room for them. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end only: allowed worsening share *)
  source : string;  (** the workload(s) that measure it *)
  moves : string;  (** per-layer only: the end-to-end metric it feeds *)
}

let e2e name unit_ better bound =
  { name; unit_; better; bound = Some bound; source = "all"; moves = "" }

(* Every workload reports all four, each over its own operation: a
   1024-row call of one variant class (predict-large, predict-int16,
   predict-2t), a 1- or 16-row call (predict-small), a model file or
   artifact to its first prediction by one path (cold-compile,
   cold-verified, cold-restart), a request's arrival to its response
   (serve-zipf). README.md has the spreads the bounds cover. *)
let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MB" Lower 0.15;
    e2e "op_p50_us" "us" Lower 0.25;
    e2e "op_tail_us" "us" Lower 0.25;
  ]

(* [moves] names the end-to-end metric, on the workload that reports it. *)
let layer ?(better = Lower) source moves unit_ name =
  { name; unit_; better; bound = None; source; moves }

let p50 w = w ^ " op_p50_us"
let tail w = w ^ " op_tail_us"

let per_layer =
  let open Cells in
  let row_us w cells = List.map (fun c -> layer w (p50 w) "us" (row_us_metric c)) cells in
  let stages w moves names = List.map (layer w moves "ms") names in
  let serve = "serve-zipf" in
  row_us "predict-large" float_cells
  @ row_us "predict-int16" int16_cells
  @ row_us "predict-2t" threaded_cells
  @ List.map
      (fun c -> layer "predict-small" (p50 "predict-small") "us" (call_p50_metric c))
      small_cells
  @ List.concat_map
      (fun (v, c) ->
        let large =
          match c.variant with
          | Int16_1t -> "predict-int16"
          | Default_2t -> "predict-2t"
          | Default_1t | Tuned_1t -> "predict-large"
        in
        [
          layer "predict-small" (p50 "predict-small") "us" ("vm.fixed_us." ^ v);
          layer "predict-small" (p50 large) "us" ("vm.per_row_us." ^ v);
        ])
      fit_cells
  @ [
      layer "all" "op_p50_us" "words" "gc.minor_words_per_op";
      layer "all" "op_p50_us" "words" "gc.minor_words_per_row";
      layer "all" "op_tail_us" "count" "gc.major_collections";
      layer "all" "op_p50_us" "ratio" "trace.overhead_share";
    ]
  @ stages "cold-compile" (p50 "cold-compile")
      [
        "model.load_ms"; "hir.build_ms"; "mir.lower_ms"; "lir.layout_ms";
        "lir.pack_ms"; "vm.instantiate_ms"; "vm.first_predict_ms";
        "compile.unaccounted_ms";
      ]
  @ stages "cold-verified" (p50 "cold-verified")
      [
        "analysis.validate_hir_ms"; "analysis.validate_mir_ms";
        "analysis.validate_lir_ms"; "analysis.validate_reg_ms";
        "analysis.certify_int16_ms"; "core.passman_other_ms";
        "verified.unaccounted_ms";
      ]
  @ stages "predict-int16" "predict-int16 setup_s"
      [
        "analysis.certify_ms"; "analysis.check_quant_ms";
        "core.tune_resident_k_ms"; "lir.quant_lower_ms"; "quant.unaccounted_ms";
      ]
  @ stages "cold-restart" (p50 "cold-restart")
      [
        "serve.artifact_read_ms"; "lir.decode_ms"; "serve.registry_other_ms";
        "restart.unaccounted_ms";
      ]
  @ [
      layer "cold-restart" (p50 "cold-restart") "KB" "lir.artifact_kb";
      layer serve (p50 serve) "us" "serve.queue_wait_p50_us";
      layer serve (tail serve) "us" "serve.queue_wait_p99_us";
      layer serve (tail serve) "us" "serve.service_p50_us";
      layer serve (tail serve) "us" "serve.service_p99_us";
      layer serve (tail serve) "us" "serve.predict_us_per_row";
      layer serve (tail serve) ~better:Higher "ratio" "serve.hit_ratio";
      layer serve (tail serve) "ratio" "serve.worker_busy_imbalance";
      layer serve (p50 serve) ~better:Higher "rows" "serve.batch_rows_mean";
      layer serve (p50 serve) "count" "serve.batches_per_krequest";
      layer serve (p50 serve) "ratio" "serve.deadline_batch_share";
      layer serve (tail serve) ~better:Higher "ratio" "serve.slo_met_share";
      layer serve "serve-zipf failed" "count" "serve.rejects";
      layer serve "serve-zipf failed" "count" "serve.equivalence_failures";
    ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
