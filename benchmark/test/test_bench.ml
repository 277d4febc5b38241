open Bench_harness
open Bench_workloads
module Json = Tb_util.Json

let quick name f = Alcotest.test_case name `Quick f
let check_float ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Busy-wait, so an operation takes at least [us] of wall time. *)
let spin us =
  let t0 = Clock.now_ns () in
  while Clock.since_us t0 < us do
    ()
  done

let test_clock () =
  match Clock.check () with
  | Ok ns -> Alcotest.(check bool) "sub-microsecond" true (ns < 1000.0)
  | Error e -> Alcotest.fail e

let test_percentiles () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "median of 1..5" 3.0 (Sample.median xs);
  let ys = Array.init 101 float_of_int in
  check_float "p99 of 0..100" 99.0 (Sample.p99 ys);
  check_float "p50 interpolates" 2.5 (Sample.median [| 1.0; 2.0; 3.0; 4.0 |]);
  let zs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check_float "nearest rank p50" 5.0 (Sample.nearest_rank zs 0.5);
  check_float "nearest rank p99" 10.0 (Sample.nearest_rank zs 0.99);
  check_float "nearest rank p0" 1.0 (Sample.nearest_rank zs 0.0);
  check_float "geomean" 2.0 (Sample.geomean [ 1.0; 4.0 ]);
  (* p90, or ten samples beyond the tail, never below the median. *)
  List.iter
    (fun (n, rank) ->
      Alcotest.(check int) (Printf.sprintf "tail rank of %d" n) rank (Sample.tail_rank n))
    [ (5000, 4500); (1000, 900); (100, 90); (64, 54); (24, 14); (10, 5) ];
  (* Two cells, one four times the other's size, with the same shape: the
     typical p50 is the geomean of their medians, and the pooled tail is
     that times the shape's 90th of 100 ranked values (rank 180 of 200). *)
  let shape = Array.init 100 (fun i -> 1.0 +. (float_of_int i /. 99.0)) in
  let p50, tail, q =
    Sample.cells_p50_tail [ shape; Array.map (fun x -> 4.0 *. x) shape ]
  in
  check_float "cells p50" (2.0 *. Sample.median shape) p50;
  check_float "cells tail" (p50 *. shape.(89) /. Sample.median shape) tail;
  check_float "tail quantile" 0.9 q;
  let buf = Sample.create () in
  for i = 1 to 1000 do
    Sample.add buf (float_of_int i)
  done;
  Alcotest.(check int) "buffer grows" 1000 (Sample.length buf);
  check_float "buffer keeps order" 1000.0 (Sample.to_array buf).(999)

let test_histogram_bucket () =
  let rng = Tb_util.Prng.create 5 in
  let xs = Array.init 5000 (fun _ -> 50.0 +. Tb_util.Prng.float rng 5000.0) in
  let h = Tb_util.Stats.Histogram.create () in
  Array.iter (Tb_util.Stats.Histogram.add h) xs;
  List.iter
    (fun q ->
      let exact = Sample.nearest_rank xs q in
      let reported = Tb_util.Stats.Histogram.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g in the same bucket" (100.0 *. q))
        true
        (Sample.same_histogram_bucket ~exact ~reported);
      Alcotest.(check bool)
        "a value two buckets away is not" false
        (Sample.same_histogram_bucket ~exact ~reported:(reported *. 1.4)))
    [ 0.5; 0.9; 0.99 ]

let test_affine_fit () =
  let exact = List.map (fun n -> (float_of_int n, 3.0 +. (0.5 *. float_of_int n))) Cells.fit_batches in
  let fixed, per_row = Sample.affine_fit exact in
  check_float ~eps:1e-9 "fixed" 3.0 fixed;
  check_float ~eps:1e-12 "per row" 0.5 per_row;
  (* +-2% multiplicative noise: the relative-residual fit still finds the
     small intercept that ordinary least squares would lose. *)
  let noisy =
    List.mapi
      (fun i (n, y) -> (n, y *. if i mod 2 = 0 then 1.02 else 0.98))
      exact
  in
  let fixed, per_row = Sample.affine_fit noisy in
  Alcotest.(check bool) "fixed within 10%" true (Float.abs (fixed -. 3.0) < 0.3);
  Alcotest.(check bool) "per row within 3%" true (Float.abs (per_row -. 0.5) < 0.015)

let test_round_robin_fairness () =
  let cell name us =
    {
      Rr.name;
      layer = "test";
      rows = 1;
      op = (fun () -> spin us; fun _ -> true);
      probe = None;
    }
  in
  let cells = [| cell "fast" 20.0; cell "medium" 150.0; cell "slow" 900.0 |] in
  let stats = (Rr.run ~min_rounds:1 ~slice_us:300.0 ~window_s:0.05 cells).Rr.cells in
  let visits = Array.map (fun s -> s.Rr.visits) stats in
  let lo = Array.fold_left min max_int visits
  and hi = Array.fold_left max 0 visits in
  Alcotest.(check bool) "visit counts differ by at most one" true (hi - lo <= 1);
  Alcotest.(check bool) "several rounds" true (lo >= 3);
  Array.iter
    (fun s ->
      Alcotest.(check int) "every op recorded" s.Rr.ops (Array.length s.Rr.plain_us);
      Alcotest.(check bool) "slice respected" true (s.Rr.ops >= s.Rr.visits))
    stats;
  Alcotest.(check bool) "a slice repeats fast ops" true (stats.(0).Rr.ops >= 5 * stats.(0).Rr.visits);
  Alcotest.(check int) "a slow op runs once per visit" stats.(2).Rr.visits stats.(2).Rr.ops;
  let failing =
    { (cell "failing" 1.0) with Rr.op = (fun () -> fun _ -> false) }
  in
  let r = Rr.run ~traced:true ~min_rounds:2 ~slice_us:0.0 ~window_s:0.0 [| failing |] in
  let traced = r.Rr.cells in
  Alcotest.(check bool) "machine-speed probe taken" true
    (Array.length r.Rr.speeds >= 1 && Array.for_all (fun k -> k > 0.0) r.Rr.speeds);
  Alcotest.(check int) "failures counted" traced.(0).Rr.ops traced.(0).Rr.failed;
  Alcotest.(check bool) "traced and untraced rounds" true
    (Array.length traced.(0).Rr.plain_us = 2 && Array.length traced.(0).Rr.traced_us = 2)

let test_spans () =
  Span.reset ();
  Span.set_enabled true;
  Span.with_ ~cat:"outer" "root" (fun () ->
      Span.with_ ~arg:"a" ~cat:"inner" "child" (fun () -> spin 200.0);
      (try Span.with_ ~cat:"inner" "raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      spin 200.0);
  (* A second domain records while the first waits: its spans nest on
     their own track. *)
  Domain.join
    (Domain.spawn (fun () ->
         Span.with_ ~cat:"outer" "other-domain" (fun () ->
             Span.with_ ~cat:"inner" "child" (fun () -> spin 50.0))));
  Span.set_enabled false;
  Span.with_ ~cat:"outer" "not recorded" ignore;
  let spans = Span.spans () in
  Alcotest.(check int) "five spans" 5 (Array.length spans);
  Alcotest.(check int) "closed count" 5 (Span.closed ());
  Alcotest.(check bool) "well nested per domain" true (Span.well_nested spans);
  let tids = List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.Span.tid) spans)) in
  Alcotest.(check int) "two domains" 2 (List.length tids);
  let root = spans.(0) in
  let child = spans.(1) in
  Alcotest.(check int) "parent link" root.Span.id child.Span.parent;
  let overlapping =
    [| root; { child with Span.start_ns = root.Span.start_ns -. 1.0 } |]
  in
  Alcotest.(check bool) "child outside parent detected" false
    (Span.well_nested overlapping);
  let self = Span.self_us_by_layer () in
  let whole =
    List.fold_left
      (fun acc s ->
        if s.Span.parent = -1 then acc +. ((s.Span.end_ns -. s.Span.start_ns) /. 1e3)
        else acc)
      0.0 (Array.to_list spans)
  in
  check_float ~eps:1e-6 "self times partition the root spans" whole
    (List.fold_left (fun acc (_, us) -> acc +. us) 0.0 self);
  Alcotest.(check bool) "child total" true
    (List.assoc "child" (Span.totals_us ()) >= 250.0);
  let json = Json.of_string (Json.to_string (Span.to_chrome spans)) in
  let events = Json.to_list (Json.member "traceEvents" json) in
  Alcotest.(check int) "one event per span" 5 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check string) "complete event" "X" (Json.to_str (Json.member "ph" e));
      Alcotest.(check bool) "non-negative times" true
        (Json.to_float (Json.member "ts" e) >= 0.0
        && Json.to_float (Json.member "dur" e) >= 0.0))
    events;
  Span.reset ();
  Span.set_enabled true;
  for _ = 1 to Span.capacity + 10 do
    Span.with_ ~cat:"x" "s" ignore
  done;
  Span.set_enabled false;
  Alcotest.(check int) "storage capped" Span.capacity (Array.length (Span.spans ()));
  Alcotest.(check int) "aggregates count every span" (Span.capacity + 10) (Span.closed ())

(* Every workload on tiny synthetic forests: each run must pass its own
   output checks and print exactly the metrics BENCHMARK.json lists, and
   every per-layer metric must be measured by some workload. *)
let test_smoke () =
  let tmp = Filename.temp_dir "tb-bench-" "" in
  Fun.protect ~finally:(fun () -> Cold_start.remove_tree tmp) @@ fun () ->
  let models = Models.create (Models.Synthetic (Filename.concat tmp "models")) in
  let out_dir = Filename.concat tmp "out" in
  let ctx trace =
    {
      Run.seed = 3;
      seconds = 0.0;
      trace;
      models;
      schedules_dir = "../schedules";
      store_dir = Filename.concat tmp "store";
      serve_requests = 300;
      extra_seconds = 0.0;
    }
  in
  let bench = Json.of_string (read_file "../../BENCHMARK.json") in
  let listed key =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          (Json.to_str (Json.member "unit" m), Json.to_str (Json.member "better" m)) ))
      (Json.to_list (Json.member key bench))
  in
  let registry defs =
    List.map
      (fun d ->
        ( d.Metric_defs.name,
          (d.Metric_defs.unit_, Metric_defs.better_to_string d.Metric_defs.better) ))
      defs
  in
  let pair = Alcotest.(list (pair string (pair string string))) in
  Alcotest.check pair "end_to_end matches the registry"
    (registry Metric_defs.end_to_end) (listed "end_to_end");
  Alcotest.check pair "per_layer matches the registry"
    (registry Metric_defs.per_layer) (listed "per_layer");
  let names key = List.map fst (listed key) in
  let measured = ref [] in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let r = Runner.run ~quiet:true ~out_dir (ctx trace) workload in
          let label = Printf.sprintf "%s trace=%b" workload trace in
          Alcotest.(check bool) (label ^ " correct") true r.Runner.correct;
          Alcotest.(check bool) (label ^ " attempted") true (r.Runner.attempted > 0);
          let emitted =
            match Json.member "metrics" r.Runner.json with
            | Json.Obj kvs -> List.map fst kvs
            | _ -> []
          in
          Alcotest.(check (list string))
            (label ^ " emits the listed metrics")
            (names (if trace then "per_layer" else "end_to_end"))
            emitted;
          if trace then begin
            measured := r.Runner.measured @ !measured;
            let trace_file =
              Filename.concat out_dir
                (Printf.sprintf "trace-%s-seed3-trace.json" workload)
            in
            let events =
              Json.to_list (Json.member "traceEvents" (Json.of_string (read_file trace_file)))
            in
            Alcotest.(check bool) (label ^ " wrote spans") true (events <> [])
          end)
        [ false; true ])
    Cells.workload_names;
  Alcotest.(check (list string))
    "every per-layer metric is measured by some workload"
    (List.sort compare (names "per_layer"))
    (List.sort_uniq compare !measured)

let () =
  Alcotest.run "benchmark"
    [
      ( "harness",
        [
          quick "clock is monotonic and fine-grained" test_clock;
          quick "percentiles from raw samples" test_percentiles;
          quick "histogram bucket agreement" test_histogram_bucket;
          quick "affine fixed/per-row fit" test_affine_fit;
          quick "round-robin fairness" test_round_robin_fairness;
          quick "spans nest and export" test_spans;
        ] );
      ("workloads", [ quick "smoke run of every workload" test_smoke ]);
    ]
