(* serve-zipf: an open-loop Poisson trace over four models with Zipf
   popularity, served by one shard of the fleet runtime in wall mode.
   Each trace is served by one [Runtime.run_fleet] call; traces repeat
   until the window closes. Latency percentiles are taken per trace,
   everything else is pooled. *)

module Runtime = Tb_serve.Runtime
module Registry = Tb_serve.Registry
module Simulate = Tb_serve.Simulate
module Metrics = Tb_serve.Metrics
module Schedule = Tb_hir.Schedule
module Forest = Tb_model.Forest
module Rr = Bench_harness.Rr
module Sample = Bench_harness.Sample
module Span = Bench_harness.Span
module Json = Tb_util.Json

(* Spelled out rather than taken from [Runtime.default_config], so a
   change of library defaults cannot silently change the workload. *)
let config =
  {
    Runtime.default_config with
    Runtime.queue_capacity = 1024;
    batch_max = 32;
    deadline_us = 500.0;
    workers = 2;
    dispatch_overhead_us = 20.0;
    scheduling = Tb_serve.Scheduler.Fifo;
  }

(* Set-up: load the models, register them and compile each once, so no
   compile lands on the request path. *)
let build (models : Models.model list) () =
  let reg = Registry.create ~policy:Tb_serve.Policy.Lru ~capacity:8 () in
  List.iter
    (fun (m : Models.model) ->
      Registry.register reg ~name:m.Models.name
        (Tb_model.Serialize.of_file m.Models.path))
    models;
  let provenances =
    List.map
      (fun (m : Models.model) ->
        snd
          (Registry.compiled reg ~model:m.Models.name ~schedule:Schedule.default))
      models
  in
  (reg, provenances)

(* What the replay needs from a served batch. *)
type batch = {
  model : string;
  batch_id : int;
  worker : int;
  formed_us : float;
  acquire_us : float;  (** registry acquisition; none on a cache hit *)
  predict_us : float;  (** measured *)
  arrivals : float array;
  cause : Tb_serve.Batcher.cause;
  hit : bool;
}

let of_exec (b : Runtime.batch_exec) =
  {
    model = b.Runtime.compiled.Registry.model;
    batch_id = b.Runtime.batch_id;
    worker = b.Runtime.worker;
    formed_us = b.Runtime.formed_us;
    acquire_us =
      (match b.Runtime.tier with
      | `Hit -> 0.0
      | `Disk | `Compile -> b.Runtime.compiled.Registry.wall_compile_us);
    predict_us = b.Runtime.wall_predict_us;
    arrivals =
      Array.map (fun (r : Runtime.request) -> r.Runtime.arrival_us) b.Runtime.requests;
    cause = b.Runtime.cause;
    hit = b.Runtime.tier = `Hit;
  }

(* The wall timeline by the replay rule [Runtime] documents: batches in
   dispatch order, each starting when it was formed or when its worker
   freed up, whichever is later, and busy for the dispatch overhead plus
   its acquisition cost plus its measured predict time — scaled by
   [speed] to the nominal machine speed. Returns each batch with its start
   and finish. *)
let replay ?(speed = 1.0) batches =
  let busy = Array.make config.Runtime.workers 0.0 in
  List.map
    (fun b ->
      let start = Float.max b.formed_us busy.(b.worker) in
      let finish =
        start
        +. (config.Runtime.dispatch_overhead_us +. b.acquire_us
          +. (b.predict_us *. speed))
      in
      busy.(b.worker) <- finish;
      (b, start, finish))
    batches

(* Served traces of one kind (traced or untraced): latency percentiles
   per trace, and everything else pooled. *)
type acc = {
  trace_p50 : Sample.t;
  trace_p90 : Sample.t;
  queue_wait : Sample.t;
  service : Sample.t;
  mutable requests : int;
  mutable within_slo : int;
  mutable batches : int;
  mutable by_deadline : int;
  mutable hits : int;
  mutable predict_us : float;
  busy : float array;
  mutable rejects : int;
  mutable equivalence_failures : int;
}

let acc () =
  {
    trace_p50 = Sample.create ();
    trace_p90 = Sample.create ();
    queue_wait = Sample.create ();
    service = Sample.create ();
    requests = 0;
    within_slo = 0;
    batches = 0;
    by_deadline = 0;
    hits = 0;
    predict_us = 0.0;
    busy = Array.make config.Runtime.workers 0.0;
    rejects = 0;
    equivalence_failures = 0;
  }

let add a ~speed ~rejects ~equivalence batches =
  let trace = Sample.create () in
  a.rejects <- a.rejects + rejects;
  a.equivalence_failures <- a.equivalence_failures + equivalence;
  List.iter
    (fun (b, start, finish) ->
      a.batches <- a.batches + 1;
      if b.cause = Tb_serve.Batcher.By_deadline then
        a.by_deadline <- a.by_deadline + 1;
      if b.hit then a.hits <- a.hits + 1;
      a.predict_us <- a.predict_us +. (b.predict_us *. speed);
      a.busy.(b.worker) <- a.busy.(b.worker) +. (finish -. start);
      Array.iter
        (fun arrival ->
          let latency = finish -. arrival in
          a.requests <- a.requests + 1;
          Sample.add trace latency;
          Sample.add a.queue_wait (start -. arrival);
          Sample.add a.service (finish -. start);
          if latency <= Cells.serve_slo_us then a.within_slo <- a.within_slo + 1)
        b.arrivals)
    (replay ~speed batches);
  let trace = Sample.to_array trace in
  Sample.add a.trace_p50 (Sample.median trace);
  Sample.add a.trace_p90 (Tb_util.Stats.percentile trace 0.9)

(* A trace's percentile, median over traces: one stall of the machine
   lands in one trace and does not move the result. The tail is p90, as
   on every workload (README.md): a worker descheduled by the host delays
   every request queued behind its batch, a third of the traces hold such
   a stall, and their p99 is two to four times the others'. Across ten
   seeds the median trace p99 spread 30%. *)
let typical samples = Sample.median (Sample.to_array samples)

let layer_metrics a =
  let f = float_of_int in
  let qw = Sample.to_array a.queue_wait and sv = Sample.to_array a.service in
  let busy = Array.to_list a.busy in
  let mean_busy = List.fold_left ( +. ) 0.0 busy /. f (List.length busy) in
  let attempted = a.requests + a.rejects in
  ( typical a.trace_p50,
    [
      ("serve.queue_wait_p50_us", Sample.median qw);
      ("serve.queue_wait_p99_us", Sample.p99 qw);
      ("serve.service_p50_us", Sample.median sv);
      ("serve.service_p99_us", Sample.p99 sv);
      ("serve.predict_us_per_row", a.predict_us /. f a.requests);
      ("serve.hit_ratio", f a.hits /. f a.batches);
      ( "serve.worker_busy_imbalance",
        List.fold_left Float.max 0.0 busy /. mean_busy );
      ("serve.batch_rows_mean", f a.requests /. f a.batches);
      ("serve.batches_per_krequest", f a.batches /. (f a.requests /. 1000.0));
      ("serve.deadline_batch_share", f a.by_deadline /. f a.batches);
      (* A reject is a miss. *)
      ("serve.slo_met_share", f a.within_slo /. f attempted);
      ("serve.rejects", f a.rejects);
      ("serve.equivalence_failures", f a.equivalence_failures);
    ] )

(* The measured timeline as Chrome events: process 2, one track per
   worker, timestamps on the trace's own clock. *)
let timeline_events batches =
  List.filteri (fun i _ -> i < 5000) (replay batches)
  |> List.map (fun (b, start, finish) ->
         Json.Obj
           [
             ("name", Json.Str b.model);
             ("cat", Json.Str "replay");
             ("ph", Json.Str "X");
             ("ts", Json.Num start);
             ("dur", Json.Num (finish -. start));
             ("pid", Json.Num 2.0);
             ("tid", Json.Num (float_of_int b.worker));
             ( "args",
               Json.Obj
                 [
                   ("batch", Json.Num (float_of_int b.batch_id));
                   ("rows", Json.Num (float_of_int (Array.length b.arrivals)));
                   ("cause", Json.Str (Tb_serve.Batcher.cause_to_string b.cause));
                 ] );
           ])

let run ctx =
  let errs = Run.errors () in
  let models = List.map (Models.get ctx.Run.models) Cells.serve_models in
  let (reg, provenances), setup_s, setup_speed =
    Run.timed_setup (build models)
  in
  if List.exists (fun p -> p <> `Compile) provenances then
    Run.error errs "set-up did not compile every model";
  let specs =
    List.map
      (fun (m : Models.model) ->
        {
          Simulate.name = m.Models.name;
          forest = m.Models.forest;
          profiles = None;
          pool = Models.sample_rows ~seed:ctx.Run.seed m 256;
          weight = 1;
          slo_us = None;
        })
      models
  in
  let trace_config =
    {
      Simulate.default_config with
      Simulate.arrival = Simulate.Poisson;
      rate_rps = Cells.serve_rate_rps;
      num_requests = ctx.Run.serve_requests;
      popularity = Simulate.Zipf Cells.serve_zipf_theta;
    }
  in
  let forest name =
    (List.find (fun (m : Models.model) -> m.Models.name = name) models)
      .Models.forest
  in
  let served = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let traces = ref 0 in
  let check requests result speed =
    let shard = List.assoc 0 result.Runtime.shard_results in
    let batches = List.map of_exec shard.Runtime.batches in
    let outputs = result.Runtime.fleet_outputs in
    let missing =
      Array.fold_left (fun k o -> if o = None then k + 1 else k) 0 outputs
    in
    (* Spot-check served outputs against the source forests. *)
    let wrong = ref 0 in
    Array.iteri
      (fun i (r : Runtime.request) ->
        match outputs.(r.Runtime.id) with
        | Some out
          when i mod 97 = 0
               && not
                    (Run.close out
                       (Forest.predict_raw (forest r.Runtime.model) r.Runtime.row))
          ->
          incr wrong
        | Some _ | None -> ())
      requests;
    let rejects = List.length result.Runtime.fleet_rejects in
    let equivalence = result.Runtime.fleet_equivalence_failures in
    if missing > 0 then
      Run.error errs
        (Printf.sprintf "%d requests unanswered (%d rejected)" missing rejects);
    if equivalence > 0 then
      Run.error errs (Printf.sprintf "%d equivalence failures" equivalence);
    if !wrong > 0 then
      Run.error errs
        (Printf.sprintf "%d outputs differ from the source forest" !wrong);
    (* Recomputed from the batches, the latency percentiles must land in
       the buckets the runtime's own wall histogram reports. *)
    let latencies =
      Array.of_list
        (List.concat_map
           (fun (b, _, finish) ->
             Array.to_list (Array.map (fun a -> finish -. a) b.arrivals))
           (replay batches))
    in
    let hist = result.Runtime.fleet_metrics.Metrics.wall_total_us in
    let bucket_ok =
      List.for_all
        (fun q ->
          let exact = Sample.nearest_rank latencies q in
          let reported = Tb_util.Stats.Histogram.quantile hist q in
          let ok = Sample.same_histogram_bucket ~exact ~reported in
          if not ok then
            Run.error errs
              (Printf.sprintf
                 "replayed p%g %.3f us is not in the wall histogram's bucket \
                  (%.3f us)"
                 (100.0 *. q) exact reported);
          ok)
        [ 0.5; 0.99 ]
    in
    let bad = missing + equivalence + !wrong in
    attempted := !attempted + Array.length requests;
    failed := !failed + bad;
    served := (Span.enabled (), speed, rejects, equivalence, batches) :: !served;
    bad = 0 && bucket_ok
  in
  let serve_trace () =
    let rng = Tb_util.Prng.create ((ctx.Run.seed * 7919) + !traces) in
    incr traces;
    let requests =
      Span.with_ ~cat:"bench" "serve.gen_requests" (fun () ->
          Simulate.gen_requests rng trace_config specs)
    in
    let result =
      Span.with_ ~cat:"serve" "serve.run_fleet" (fun () ->
          Runtime.run_fleet ~config ~mode:Runtime.Wall
            ~schedule:Schedule.default
            ~router:(Tb_serve.Router.create Tb_serve.Router.Affinity ~shards:1)
            [ (0, reg) ] requests)
    in
    check requests result
  in
  let cell =
    {
      Rr.name = "serve-zipf";
      layer = "serve";
      rows = ctx.Run.serve_requests;
      op = serve_trace;
      probe = None;
    }
  in
  (* One untimed trace first: the first trace after set-up pays for the
     worker domains' first touch and reads two to four times slower. Its
     requests and checks still count; its latencies do not. *)
  ignore (cell.Rr.op () 1.0);
  served := [];
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let r =
    Rr.run ~traced:ctx.Run.trace ~min_rounds:1 ~slice_us:0.0 ~window_s:ctx.Run.seconds
      [| cell |]
  in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let plain = acc () and traced = acc () in
  List.iter
    (fun (was_traced, speed, rejects, equivalence, batches) ->
      add (if was_traced then traced else plain) ~speed ~rejects ~equivalence
        batches)
    (List.rev !served);
  let layer =
    if not ctx.Run.trace then []
    else begin
      let traced_p50, serve_layer = layer_metrics traced in
      let requests = float_of_int (traced.requests + plain.requests) in
      serve_layer
      @ Run.gc_layer ~words:r.Rr.cells.(0).Rr.minor_words ~ops:requests
          ~rows:requests ~major_collections:major
      @ [ ("trace.overhead_share", (traced_p50 /. typical plain.trace_p50) -. 1.0) ]
    end
  in
  let first_traced =
    List.find_map
      (fun (was_traced, _, _, _, batches) -> if was_traced then Some batches else None)
      (List.rev !served)
  in
  {
    Run.attempted = !attempted;
    failed = !failed;
    errors = Run.error_list errs;
    setup_s;
    op_p50_us = typical plain.trace_p50;
    op_tail_us = typical plain.trace_p90;
    layer;
    speed = [ ("setup", setup_speed); ("window", Run.window_speed r) ];
    detail =
      [
        ("traces", Json.Num (float_of_int !traces));
        ( "trace_p90_us",
          Json.List
            (List.map (fun v -> Json.Num v) (Array.to_list (Sample.to_array plain.trace_p90)))
        );
        ("requests_per_trace", Json.Num (float_of_int ctx.Run.serve_requests));
        ( "slo_met_share_untraced",
          Json.Num
            (float_of_int plain.within_slo
            /. float_of_int (plain.requests + plain.rejects)) );
        ("generator_lateness_us", Json.Num 0.0);
      ];
    trace_extra = Option.fold ~none:[] ~some:timeline_events first_traced;
  }
