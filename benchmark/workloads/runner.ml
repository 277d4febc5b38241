(* One run of one workload: check the clock, prepare the models, run,
   assemble the metrics, write the output files. *)

module Clock = Bench_harness.Clock
module Span = Bench_harness.Span
module Json = Tb_util.Json

let run_workload ctx name =
  match Cells.workload name with
  | Cells.Predict (cells, extra) -> Predict.run ctx cells extra
  | Cells.Cold path -> Cold_start.run ctx path
  | Cells.Serve -> Serve_zipf.run ctx

type result = {
  correct : bool;
  attempted : int;
  measured : string list;
      (** per-layer metrics this workload measured itself (not zero-filled) *)
  json : Json.t;  (** the run's one-line result *)
}

(* The metrics a run reports: every end-to-end metric untraced, every
   per-layer metric traced. A per-layer metric another workload measures
   reads 0 here. *)
let assemble ~trace (o : Run.outcome) ~peak_rss_mb =
  if not trace then
    List.map
      (fun (d : Metric_defs.t) ->
        ( d,
          match d.Metric_defs.name with
          | "setup_s" -> Bench_harness.Sample.median (Array.of_list o.Run.setup_s)
          | "peak_rss_mb" -> peak_rss_mb
          | "op_p50_us" -> o.Run.op_p50_us
          | "op_tail_us" -> o.Run.op_tail_us
          | n -> invalid_arg ("no end-to-end metric " ^ n) ))
      Metric_defs.end_to_end
  else
    List.map
      (fun (d : Metric_defs.t) ->
        (d, Option.value ~default:0.0 (List.assoc_opt d.Metric_defs.name o.Run.layer)))
      Metric_defs.per_layer

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun ((d : Metric_defs.t), v) ->
         ( d.Metric_defs.name,
           Json.Obj [ ("value", Json.Num v); ("unit", Json.Str d.Metric_defs.unit_) ] ))
       metrics)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run ?(quiet = false) ~out_dir ctx workload =
  let say fmt = Printf.ksprintf (fun s -> if not quiet then print_endline s) fmt in
  let clock_resolution_ns =
    match Clock.check () with Ok ns -> ns | Error e -> failwith e
  in
  Span.reset ();
  let t0 = Clock.now_ns () in
  List.iter (fun m -> ignore (Models.get ctx.Run.models m)) (Cells.models_of workload);
  let prepare_s = Clock.since_us t0 /. 1e6 in
  let o = run_workload ctx workload in
  let trace = ctx.Run.trace in
  let metrics = assemble ~trace o ~peak_rss_mb:(Bench_harness.Proc.peak_rss_mb ()) in
  let errors =
    o.Run.errors
    @ List.filter_map
        (fun ((d : Metric_defs.t), v) ->
          if (not trace) && not (Float.is_finite v && v > 0.0) then
            Some (Printf.sprintf "%s = %g is not a positive number" d.Metric_defs.name v)
          else if not (Float.is_finite v) then
            Some (Printf.sprintf "%s = %g is not finite" d.Metric_defs.name v)
          else None)
        metrics
  in
  let correct = errors = [] && o.Run.failed = 0 in
  mkdir_p out_dir;
  let stem =
    Printf.sprintf "%s-seed%d%s" workload ctx.Run.seed (if trace then "-trace" else "")
  in
  let layers =
    List.map (fun (l, us) -> (l, Json.Num (us /. 1e3))) (Span.self_us_by_layer ())
  in
  if trace then begin
    let spans = Span.spans () in
    if not (Span.well_nested spans) then failwith "recorded spans are not well nested";
    write_file
      (Filename.concat out_dir ("trace-" ^ stem ^ ".json"))
      (Json.to_string (Span.to_chrome ~extra:o.Run.trace_extra spans))
  end;
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int o.Run.attempted));
        ("failed", Json.Num (float_of_int o.Run.failed));
        ("metrics", metrics_json metrics);
      ]
  in
  write_file
    (Filename.concat out_dir (stem ^ ".json"))
    (Json.to_string ~indent:true
       (Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", Json.Num (float_of_int ctx.Run.seed));
             ("seconds", Json.Num ctx.Run.seconds);
             ("traced", Json.Bool trace);
             ("clock_resolution_ns", Json.Num clock_resolution_ns);
             ("prepare_s", Json.Num prepare_s);
             ( "speed_factor",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) o.Run.speed) );
             ("setup_s_samples", Json.List (List.map (fun s -> Json.Num s) o.Run.setup_s));
             ("errors", Json.List (List.map (fun e -> Json.Str e) errors));
             ("result", result);
           ]
          @ (if trace then
               [ ("layer_self_ms", Json.Obj layers);
                 ("spans_closed", Json.Num (float_of_int (Span.closed ()))) ]
             else [])
          @ o.Run.detail)));
  say "workload %s  seed %d  window %gs  traced %b" workload ctx.Run.seed
    ctx.Run.seconds trace;
  say "clock_resolution_ns %.0f  prepare_s %.3f  speed factor %s"
    clock_resolution_ns prepare_s
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%.3f" k v) o.Run.speed));
  List.iter (fun e -> say "FAILED: %s" e) errors;
  if trace then
    List.iter
      (fun (l, us) -> say "layer %-10s self %.3f ms" l (us /. 1e3))
      (Span.self_us_by_layer ());
  List.iter
    (fun ((d : Metric_defs.t), v) ->
      if (not trace) || d.Metric_defs.source = "all" || v <> 0.0 then
        say "%-40s %.6g %s" d.Metric_defs.name v d.Metric_defs.unit_)
    metrics;
  { correct; attempted = o.Run.attempted; measured = List.map fst o.Run.layer; json = result }
