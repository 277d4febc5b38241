(* The serving runtime: queue backpressure, dynamic batching, eviction
   policies, virtual-clock determinism, and the headline property — served
   outputs are bitwise identical to a direct single-call JIT prediction. *)

open Helpers
module Prng = Tb_util.Prng
module H = Tb_util.Stats.Histogram
module Schedule = Tb_hir.Schedule
module Forest = Tb_model.Forest
module Policy = Tb_serve.Policy
module Rqueue = Tb_serve.Rqueue
module Batcher = Tb_serve.Batcher
module Registry = Tb_serve.Registry
module Runtime = Tb_serve.Runtime
module Simulate = Tb_serve.Simulate

(* ---------------- histogram ---------------- *)

let test_histogram_quantiles () =
  let h = H.create () in
  for i = 1 to 1000 do
    H.add h (float_of_int i)
  done;
  check_int "count" 1000 (H.count h);
  check_float "min" 1.0 (H.min_value h);
  check_float "max" 1000.0 (H.max_value h);
  (* Geometric buckets at 16/decade: a quantile can be off by up to one
     bucket's relative width, 10^(1/16) - 1 = 15.5%. *)
  let close ~exact q =
    let v = H.quantile h q in
    check_bool
      (Printf.sprintf "q%.2f %.1f within 16%% of %.1f" q v exact)
      true
      (Float.abs (v -. exact) /. exact < 0.16)
  in
  close ~exact:500.0 0.5;
  close ~exact:990.0 0.99;
  check_float "mean" 500.5 (H.mean h)

let test_histogram_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_float "quantile of empty" 0.0 (H.quantile h 0.5);
  check_float "mean of empty" 0.0 (H.mean h)

(* ---------------- bounded queue ---------------- *)

let test_rqueue_backpressure () =
  let q = Rqueue.create ~capacity:2 in
  check_bool "push 1" true (Rqueue.try_push q 1);
  check_bool "push 2" true (Rqueue.try_push q 2);
  check_bool "push 3 rejected" false (Rqueue.try_push q 3);
  check_int "length" 2 (Rqueue.length q);
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Rqueue.pop_opt q);
  check_bool "push after pop" true (Rqueue.try_push q 4);
  Rqueue.drop_n q 2;
  check_int "drained" 0 (Rqueue.length q);
  let s = Rqueue.stats q in
  check_int "pushed" 3 s.Rqueue.pushed;
  check_int "rejected" 1 s.Rqueue.rejected;
  check_int "max depth" 2 s.Rqueue.max_depth

let test_rqueue_mpsc () =
  (* Four domains race 1000 pushes each into a queue bounded well below
     the total: accounting must stay exact under contention. *)
  let q = Rqueue.create ~capacity:128 in
  let per_domain = 1000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let accepted = ref 0 in
            for i = 1 to per_domain do
              if Rqueue.try_push q i then incr accepted
            done;
            !accepted))
  in
  let accepted = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
  let s = Rqueue.stats q in
  check_int "pushed = accepted" accepted s.Rqueue.pushed;
  check_int "pushed + rejected = attempts" (4 * per_domain)
    (s.Rqueue.pushed + s.Rqueue.rejected);
  check_int "queue holds the un-popped" accepted (Rqueue.length q);
  check_bool "bounded" true (Rqueue.length q <= 128)

(* ---------------- batcher ---------------- *)

let test_batcher_size_trigger () =
  let b = Batcher.create { Batcher.batch_max = 3; deadline_us = 1000.0 } in
  let add t i = Batcher.add b ~model:"m" ~arrival_us:t i in
  check_bool "1st" true (add 0.0 1 = None);
  check_bool "2nd" true (add 10.0 2 = None);
  (match add 20.0 3 with
  | Some batch ->
    check_int "size" 3 (Array.length batch.Batcher.requests);
    check_bool "cause" true (batch.Batcher.cause = Batcher.By_size);
    check_float "formed at admitting arrival" 20.0 batch.Batcher.formed_us;
    Alcotest.(check (array int)) "admission order" [| 1; 2; 3 |]
      batch.Batcher.requests
  | None -> Alcotest.fail "size trigger did not fire");
  check_int "group drained" 0 (Batcher.pending_count b)

let test_batcher_deadline_trigger () =
  let b = Batcher.create { Batcher.batch_max = 100; deadline_us = 50.0 } in
  ignore (Batcher.add b ~model:"a" ~arrival_us:0.0 1);
  ignore (Batcher.add b ~model:"b" ~arrival_us:10.0 2);
  ignore (Batcher.add b ~model:"a" ~arrival_us:20.0 3);
  Alcotest.(check (option (float 1e-9))) "next deadline = oldest + d"
    (Some 50.0) (Batcher.next_deadline b);
  check_bool "nothing expires early" true (Batcher.expire b ~now:49.0 = []);
  (match Batcher.expire b ~now:60.0 with
  | [ ba ; bb ] ->
    (* a (deadline 50) before b (deadline 60); each stamped at its own
       deadline, not at [now]. *)
    Alcotest.(check string) "first model" "a" ba.Batcher.model;
    check_float "a formed at its deadline" 50.0 ba.Batcher.formed_us;
    check_int "a size" 2 (Array.length ba.Batcher.requests);
    check_bool "a cause" true (ba.Batcher.cause = Batcher.By_deadline);
    Alcotest.(check string) "second model" "b" bb.Batcher.model;
    check_float "b formed at its deadline" 60.0 bb.Batcher.formed_us
  | l -> Alcotest.failf "expected 2 batches, got %d" (List.length l));
  check_int "all drained" 0 (Batcher.pending_count b)

let test_batcher_flush () =
  let b = Batcher.create { Batcher.batch_max = 100; deadline_us = 1e9 } in
  ignore (Batcher.add b ~model:"x" ~arrival_us:0.0 1);
  ignore (Batcher.add b ~model:"y" ~arrival_us:1.0 2);
  let batches = Batcher.flush b ~now:5.0 in
  check_int "two groups" 2 (List.length batches);
  List.iter
    (fun ba -> check_bool "flush cause" true (ba.Batcher.cause = Batcher.By_flush))
    batches;
  check_int "empty after flush" 0 (Batcher.pending_count b)

(* ---------------- eviction policies ---------------- *)

let test_policy_capacity () =
  List.iter
    (fun kind ->
      let c = Policy.create ~capacity:4 kind in
      for i = 0 to 99 do
        (* A touch now and then gives SIEVE's hand real work. *)
        ignore (Policy.find c (i / 2));
        ignore (Policy.put c i (10 * i))
      done;
      let name = Policy.kind_to_string kind in
      check_bool (name ^ " bounded") true
        (List.length (Policy.contents c) <= 4);
      let s = Policy.stats c in
      check_int (name ^ " insert - evict = live") (List.length (Policy.contents c))
        (s.Policy.insertions - s.Policy.evictions))
    [ Policy.Lru; Policy.Sieve ]

let test_policy_lru_order () =
  let c = Policy.create ~capacity:3 Policy.Lru in
  ignore (Policy.put c "a" 1);
  ignore (Policy.put c "b" 2);
  ignore (Policy.put c "c" 3);
  (* Touch a: the least-recently-used is now b. *)
  check_bool "hit a" true (Policy.find c "a" <> None);
  (match Policy.put c "d" 4 with
  | Some (k, v) ->
    Alcotest.(check string) "evicts LRU victim" "b" k;
    check_int "victim value" 2 v
  | None -> Alcotest.fail "expected an eviction");
  check_bool "a survives" true (Policy.mem c "a");
  check_bool "c survives" true (Policy.mem c "c");
  check_bool "d present" true (Policy.mem c "d")

let test_policy_sieve_second_chance () =
  (* Hand-traced SIEVE: visited entries get a second chance; the hand
     resumes where it stopped. *)
  let c = Policy.create ~capacity:3 Policy.Sieve in
  ignore (Policy.put c "a" 1);
  ignore (Policy.put c "b" 2);
  ignore (Policy.put c "c" 3);
  check_bool "hit a" true (Policy.find c "a" <> None);
  (* Sweep from the tail: a is visited (cleared, spared) -> b unvisited,
     evicted. *)
  (match Policy.put c "d" 4 with
  | Some ("b", _) -> ()
  | Some (k, _) -> Alcotest.failf "evicted %s, expected b" k
  | None -> Alcotest.fail "expected an eviction");
  (* a's mark was consumed by the sweep; nothing is visited now and the
     hand sits at c. Next eviction takes c. *)
  (match Policy.put c "e" 5 with
  | Some ("c", _) -> ()
  | Some (k, _) -> Alcotest.failf "evicted %s, expected c" k
  | None -> Alcotest.fail "expected an eviction");
  check_bool "a still cached" true (Policy.mem c "a")

let test_policy_sieve_scan_resistance () =
  (* A hot set of 4 keys re-touched between one-hit-wonder scan keys:
     SIEVE's visited bits shield the hot set, LRU flushes it. The same
     deterministic trace drives both policies. *)
  let trace = ref [] in
  let rng = Prng.create 99 in
  for i = 0 to 599 do
    trace := ("hot" ^ string_of_int (Prng.int rng 4)) :: !trace;
    if i mod 2 = 0 then trace := ("scan" ^ string_of_int i) :: !trace
  done;
  let trace = List.rev !trace in
  let run kind =
    let c = Policy.create ~capacity:6 kind in
    List.iter
      (fun k ->
        match Policy.find c k with
        | Some _ -> ()
        | None -> ignore (Policy.put c k 0))
      trace;
    Policy.hit_ratio c
  in
  let lru = run Policy.Lru and sieve = run Policy.Sieve in
  check_bool
    (Printf.sprintf "sieve %.3f >= lru %.3f on scan-with-hot-set" sieve lru)
    true (sieve >= lru);
  check_bool "sieve keeps the hot set" true (sieve > 0.4)

(* ---------------- registry ---------------- *)

let small_registry ?(policy = Policy.Lru) ?(capacity = 8) seed =
  let rng = Prng.create seed in
  let reg = Registry.create ~policy ~capacity () in
  let forest =
    Forest.random ~num_trees:5 ~max_depth:4 ~num_features:6 rng
  in
  Registry.register reg ~name:"m0" forest;
  (reg, forest)

(* Provenance as a plain hit flag, for the cache-sharing assertions. *)
let is_hit = function `Hit -> true | `Disk | `Compile -> false

let test_registry_cache_and_thread_normalization () =
  let reg, _ = small_registry 3 in
  let s8 = { Schedule.default with Schedule.num_threads = 8 } in
  let s1 = { Schedule.default with Schedule.num_threads = 1 } in
  let _, hit1 = Registry.compiled reg ~model:"m0" ~schedule:s8 in
  check_bool "first lookup misses" false (is_hit hit1);
  (* Thread counts are normalized to 1 per worker, so these two schedules
     share one cache entry — no recompile. *)
  let _, hit2 = Registry.compiled reg ~model:"m0" ~schedule:s1 in
  check_bool "normalized schedule hits" true (is_hit hit2);
  check_int "one compile" 1 (Registry.compile_count reg);
  check_int "one clamp warning" 1 (List.length (Registry.clamp_warnings reg));
  (* Canonicalization: fields the backend provably ignores must not fork
     the cache. Basic tiling never reads alpha/beta ... *)
  let base =
    (* interleave differs from Schedule.default so this is a fresh entry *)
    { Schedule.default with
      Schedule.tiling = Schedule.Basic; alpha = 0.05; interleave = 2 }
  in
  let _, hit3 = Registry.compiled reg ~model:"m0" ~schedule:base in
  check_bool "basic-tiling alpha variant compiles once" false (is_hit hit3);
  let _, hit4 =
    Registry.compiled reg ~model:"m0"
      ~schedule:{ base with Schedule.alpha = 0.1; beta = 0.5 }
  in
  check_bool "basic-tiling alpha/beta variant hits" true (is_hit hit4);
  (* ... an unpadded schedule never reads pad_imbalance_limit ... *)
  let _, hit5 =
    Registry.compiled reg ~model:"m0"
      ~schedule:{ base with Schedule.pad_and_unroll = false }
  in
  check_bool "unpadded variant compiles once" false (is_hit hit5);
  let _, hit6 =
    Registry.compiled reg ~model:"m0"
      ~schedule:
        { base with Schedule.pad_and_unroll = false; pad_imbalance_limit = 7 }
  in
  check_bool "pad-limit-without-padding variant hits" true (is_hit hit6);
  (* ... and at tile_size 1 the tiling kind is irrelevant. *)
  let nt1 = { base with Schedule.tile_size = 1 } in
  let _, hit7 = Registry.compiled reg ~model:"m0" ~schedule:nt1 in
  check_bool "tile_size-1 variant compiles once" false (is_hit hit7);
  let _, hit8 =
    Registry.compiled reg ~model:"m0"
      ~schedule:{ nt1 with Schedule.tiling = Schedule.Probability_based }
  in
  check_bool "tile_size-1 tiling-kind variant hits" true (is_hit hit8);
  (* default, base, unpadded, tile-size-1 — every other lookup hit. *)
  check_int "four compiles total" 4 (Registry.compile_count reg)

(* ---------------- schedule clamp + S013 ---------------- *)

let test_clamp_threads_boundary () =
  let cores = 8 in
  let at = { Schedule.default with Schedule.num_threads = cores } in
  let over = { Schedule.default with Schedule.num_threads = cores + 1 } in
  (match Schedule.clamp_threads ~max_threads:cores at with
  | s, None -> check_int "at the limit: untouched" cores s.Schedule.num_threads
  | _, Some w -> Alcotest.failf "unexpected warning at the boundary: %s" w);
  (match Schedule.clamp_threads ~max_threads:cores over with
  | s, Some _ -> check_int "over the limit: clamped" cores s.Schedule.num_threads
  | _, None -> Alcotest.fail "expected a clamp warning");
  Alcotest.check_raises "max_threads < 1 rejected"
    (Invalid_argument "Schedule.clamp_threads: max_threads < 1") (fun () ->
      ignore (Schedule.clamp_threads ~max_threads:0 at))

let test_s013_core_oversubscription () =
  let module D = Tb_diag.Diagnostic in
  let module Hir_check = Tb_analysis.Hir_check in
  let has_s013 ds = List.exists (fun d -> d.D.code = "S013") ds in
  let s = { Schedule.default with Schedule.num_threads = 9 } in
  check_bool "9 threads on 8 cores warns" true
    (has_s013 (Hir_check.check_schedule ~batch_size:1024 ~cores:8 s));
  check_bool "9 threads on 16 cores is fine" false
    (has_s013 (Hir_check.check_schedule ~batch_size:1024 ~cores:16 s));
  check_bool "no cores given, no S013" false
    (has_s013 (Hir_check.check_schedule ~batch_size:1024 s))

(* ---------------- warm-start profiler ---------------- *)

let test_warm_start_misses () =
  let rng = Prng.create 11 in
  let forest = Forest.random ~num_trees:8 ~max_depth:5 ~num_features:8 rng in
  let lowered = Tb_lir.Lower.lower forest Schedule.default in
  let rows = random_rows rng 8 48 in
  let target = Tb_cpu.Config.intel_rocket_lake in
  let cold = Tb_cpu.Profiler.profile ~target lowered rows in
  let warm = Tb_cpu.Profiler.profile ~target ~warm_start:true lowered rows in
  let misses (w : Tb_cpu.Cost_model.workload) = w.Tb_cpu.Cost_model.l1.Tb_cpu.Cache.misses in
  check_bool
    (Printf.sprintf "warm misses %d <= cold misses %d" (misses warm)
       (misses cold))
    true
    (misses warm <= misses cold);
  (* Warm-start must not change what the program does — only the cache
     temperature. *)
  check_int "same steps"
    (cold.Tb_cpu.Cost_model.steps_checked + cold.Tb_cpu.Cost_model.steps_unchecked)
    (warm.Tb_cpu.Cost_model.steps_checked + warm.Tb_cpu.Cost_model.steps_unchecked);
  check_int "same accesses" cold.Tb_cpu.Cost_model.l1.Tb_cpu.Cache.accesses
    warm.Tb_cpu.Cost_model.l1.Tb_cpu.Cache.accesses

(* ---------------- arrivals ---------------- *)

let test_arrivals_sorted_and_deterministic () =
  List.iter
    (fun kind ->
      let gen seed =
        Simulate.gen_arrivals (Prng.create seed) kind ~rate_rps:50_000.0
          ~n:500
      in
      let a = gen 5 and b = gen 5 and c = gen 6 in
      let name = Simulate.arrival_kind_to_string kind in
      check_int (name ^ " count") 500 (Array.length a);
      check_bool (name ^ " non-decreasing") true
        (Array.for_all2 (fun x y -> x <= y) (Array.sub a 0 499)
           (Array.sub a 1 499));
      check_bool (name ^ " starts >= 0") true (a.(0) >= 0.0);
      check_bool (name ^ " same seed, same trace") true (a = b);
      check_bool (name ^ " different seed, different trace") true (a <> c))
    [ Simulate.Poisson; Simulate.Burst 8; Simulate.Ramp ]

let test_arrival_kind_parse () =
  check_bool "poisson" true
    (Simulate.arrival_kind_of_string "poisson" = Ok Simulate.Poisson);
  check_bool "burst default" true
    (Simulate.arrival_kind_of_string "burst" = Ok (Simulate.Burst 8));
  check_bool "burst:4" true
    (Simulate.arrival_kind_of_string "burst:4" = Ok (Simulate.Burst 4));
  check_bool "ramp" true
    (Simulate.arrival_kind_of_string "RAMP" = Ok Simulate.Ramp);
  check_bool "junk rejected" true
    (match Simulate.arrival_kind_of_string "uniform" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "burst:0 rejected" true
    (match Simulate.arrival_kind_of_string "burst:0" with
    | Error _ -> true
    | Ok _ -> false)

(* ---------------- runtime ---------------- *)

let mk_requests rng ~n ~models ~features ~rate =
  let arrivals =
    Simulate.gen_arrivals rng Simulate.Poisson ~rate_rps:rate ~n
  in
  Array.mapi
    (fun i at ->
      {
        Runtime.id = i;
        model = Prng.choose rng models;
        row = random_row rng features;
        arrival_us = at;
      })
    arrivals

let test_runtime_accounting () =
  let reg, _ = small_registry 21 in
  let rng = Prng.create 22 in
  let requests =
    mk_requests rng ~n:400 ~models:[| "m0" |] ~features:6 ~rate:100_000.0
  in
  let r = serve_one ~schedule:Schedule.default reg requests in
  let m = r.Runtime.metrics in
  check_int "arrivals" 400 m.Tb_serve.Metrics.arrivals;
  check_int "admitted + rejected = arrivals" 400
    (m.Tb_serve.Metrics.admitted + m.Tb_serve.Metrics.rejected);
  check_int "completed = admitted" m.Tb_serve.Metrics.admitted
    m.Tb_serve.Metrics.completed;
  check_int "no equivalence failures" 0 r.Runtime.equivalence_failures;
  check_int "every request resolved" 400
    (Array.fold_left (fun a o -> if o <> None then a + 1 else a) 0 r.Runtime.outputs
    + List.length r.Runtime.rejects);
  let sizes =
    List.fold_left (fun a b -> a + Array.length b.Runtime.requests) 0 r.Runtime.batches
  in
  check_int "batch contents = completed" m.Tb_serve.Metrics.completed sizes;
  List.iter
    (fun (b : Runtime.batch_exec) ->
      check_bool "batch within max" true
        (Array.length b.Runtime.requests <= Runtime.default_config.Runtime.batch_max);
      check_bool "starts after formation" true (b.Runtime.start_us >= b.Runtime.formed_us))
    r.Runtime.batches

let test_runtime_backpressure () =
  let reg, _ = small_registry 31 in
  let rng = Prng.create 32 in
  let requests =
    mk_requests rng ~n:600 ~models:[| "m0" |] ~features:6 ~rate:10_000_000.0
  in
  let config =
    {
      Runtime.default_config with
      Runtime.queue_capacity = 8;
      batch_max = 4;
      workers = 1;
    }
  in
  let r = serve_one ~config ~schedule:Schedule.default reg requests in
  check_bool "overload sheds load" true (r.Runtime.rejects <> []);
  List.iter
    (fun (req : Runtime.request) ->
      check_bool "rejected request has no output" true
        (r.Runtime.outputs.(req.Runtime.id) = None))
    r.Runtime.rejects;
  check_bool "queue depth bounded by capacity" true
    (r.Runtime.queue_stats.Rqueue.max_depth <= 8)

let test_runtime_deterministic () =
  let run () =
    let reg, _ = small_registry ~policy:Policy.Sieve ~capacity:2 41 in
    let rng = Prng.create 42 in
    let requests =
      mk_requests rng ~n:300 ~models:[| "m0" |] ~features:6 ~rate:200_000.0
    in
    let r = serve_one ~schedule:Schedule.default reg requests in
    ( Tb_util.Json.to_string (Tb_serve.Metrics.to_json r.Runtime.metrics),
      r.Runtime.outputs )
  in
  let j1, o1 = run () and j2, o2 = run () in
  check_string "identical metrics JSON" j1 j2;
  check_bool "identical outputs" true (o1 = o2)

(* ---------------- serve == JIT (the headline property) ---------------- *)

let grid = Array.of_list Schedule.table2_grid

let serve_equiv_property (seed, policy) =
  let rng = Prng.create seed in
  let num_features = 6 in
  let num_models = 1 + Prng.int rng 3 in
  let reg = Registry.create ~policy ~capacity:2 () in
  let forests =
    Array.init num_models (fun i ->
        let f =
          Forest.random
            ~num_trees:(1 + Prng.int rng 8)
            ~max_depth:(2 + Prng.int rng 4)
            ~num_features rng
        in
        let name = "m" ^ string_of_int i in
        Registry.register reg ~name f;
        (name, f))
  in
  let schedule = grid.(Prng.int rng (Array.length grid)) in
  let n = 40 + Prng.int rng 120 in
  let requests =
    mk_requests rng ~n
      ~models:(Array.map fst forests)
      ~features:num_features ~rate:(50_000.0 +. Prng.float rng 400_000.0)
  in
  let config =
    {
      Runtime.default_config with
      Runtime.batch_max = 1 + Prng.int rng 16;
      deadline_us = 50.0 +. Prng.float rng 1000.0;
      workers = 1 + Prng.int rng 3;
    }
  in
  let r = serve_one ~config ~schedule reg requests in
  (* The runtime's own cross-check must be clean... *)
  if r.Runtime.equivalence_failures <> 0 then
    QCheck2.Test.fail_reportf "runtime reports %d equivalence failures"
      r.Runtime.equivalence_failures;
  (* ...and so must an independent one against a fresh single-thread JIT
     (thread count normalized exactly as a serving worker would). *)
  let normalized, _ = Schedule.clamp_threads ~max_threads:1 schedule in
  Array.iter
    (fun (name, forest) ->
      let predict =
        jit_single_thread (Tb_lir.Lower.lower forest normalized)
      in
      let served =
        Array.to_list requests
        |> List.filter (fun (q : Runtime.request) ->
               q.Runtime.model = name && r.Runtime.outputs.(q.Runtime.id) <> None)
      in
      if served <> [] then begin
        let direct =
          predict
            (Array.of_list
               (List.map (fun (q : Runtime.request) -> q.Runtime.row) served))
        in
        List.iteri
          (fun i (q : Runtime.request) ->
            match r.Runtime.outputs.(q.Runtime.id) with
            | Some got ->
              if
                not
                  (Array.length got = Array.length direct.(i)
                  && Array.for_all2 Float.equal got direct.(i))
              then
                QCheck2.Test.fail_reportf
                  "request %d (model %s): served output differs from JIT"
                  q.Runtime.id name
            | None -> ())
          served
      end)
    forests;
  true

let serve_equiv_gen =
  QCheck2.Gen.pair seed_gen
    (QCheck2.Gen.oneofl [ Policy.Lru; Policy.Sieve ])

(* ---------------- simulate end-to-end ---------------- *)

let test_simulate_deterministic_report () =
  let rng = Prng.create 77 in
  let forest = Forest.random ~num_trees:6 ~max_depth:4 ~num_features:5 rng in
  let models =
    [
      {
        Simulate.name = "rand";
        forest;
        profiles = None;
        pool = random_rows rng 5 32;
        weight = 1;
        slo_us = None;
      };
    ]
  in
  let config =
    { Simulate.default_config with Simulate.num_requests = 250 }
  in
  let report config =
    Tb_util.Json.to_string ~indent:true
      (Simulate.fleet_report_to_json (Simulate.run_fleet config models))
  in
  check_string "same seed, byte-identical report" (report config)
    (report config);
  check_bool "different seed, different report" true
    (report config <> report { config with Simulate.seed = 43 })

(* ---------------- dual clock: drift math, calibration, wall mode -------- *)

module Serve_check = Tb_analysis.Serve_check
module Metrics = Tb_serve.Metrics
module J = Tb_util.Json

let test_serve_check_drift_math () =
  let samples =
    List.init 10 (fun _ ->
        { Serve_check.rows = 2; virtual_us = 10.0; wall_us = 20.0 })
  in
  let compiles =
    [ { Serve_check.modeled_us = 100.0; wall_compile_us = 400.0 } ]
  in
  let d = Serve_check.drift_of_samples ~model:"m" samples compiles in
  check_int "batches" 10 d.Serve_check.batches;
  check_int "rows" 20 d.Serve_check.rows;
  check_float "service ratio = sum wall / sum virtual" 2.0
    d.Serve_check.service_ratio;
  check_int "percentile count" 3 (List.length d.Serve_check.percentiles);
  List.iter
    (fun (_, v, w) ->
      check_float "virtual quantile" 10.0 v;
      check_float "wall quantile" 20.0 w)
    d.Serve_check.percentiles;
  check_int "compiles" 1 d.Serve_check.compiles;
  (match d.Serve_check.compile_ratio with
  | Some r -> check_float "compile ratio" 4.0 r
  | None -> Alcotest.fail "compile ratio missing");
  let d0 = Serve_check.drift_of_samples ~model:"m" samples [] in
  check_bool "no compile measured -> no compile ratio" true
    (d0.Serve_check.compile_ratio = None)

let test_serve_check_tolerances () =
  let mk ~n ~virtual_us ~wall_us compiles =
    Serve_check.drift_of_samples ~model:"m"
      (List.init n (fun _ -> { Serve_check.rows = 1; virtual_us; wall_us }))
      compiles
  in
  let codes ds = List.map (fun d -> d.Tb_diag.Diagnostic.code) ds in
  (* Within the corridor: ratio 2 against tolerance 25 is fine. *)
  check_bool "small drift passes" true
    (Serve_check.check [ mk ~n:10 ~virtual_us:10.0 ~wall_us:20.0 [] ] = []);
  (* Beyond it, in either direction. *)
  check_bool "wall >> virtual fires V001" true
    (codes (Serve_check.check [ mk ~n:10 ~virtual_us:1.0 ~wall_us:100.0 [] ])
    = [ "V001"; "V001"; "V001" ]);
  check_bool "virtual >> wall fires V001 too" true
    (List.mem "V001"
       (codes
          (Serve_check.check [ mk ~n:10 ~virtual_us:100.0 ~wall_us:1.0 [] ])));
  (* Too few batches: one noisy measurement must not fail a run. *)
  check_bool "below min_batches stays silent" true
    (Serve_check.check [ mk ~n:3 ~virtual_us:1.0 ~wall_us:1000.0 [] ] = []);
  (* Compile drift is judged independently of service drift. *)
  let compile_off =
    mk ~n:10 ~virtual_us:10.0 ~wall_us:20.0
      [ { Serve_check.modeled_us = 1.0; wall_compile_us = 1000.0 } ]
  in
  check_bool "compile drift fires V002" true
    (codes (Serve_check.check [ compile_off ]) = [ "V002" ])

let test_interleave_clamp_cache_hit () =
  (* m0 has 5 trees. A row-major walk interleaves tree groups, and MIR
     clamps the jam factor at the group size — so interleave 8 and 5
     compile to the same artifact and must share one cache entry. *)
  let reg, _ = small_registry 51 in
  let row k =
    { Schedule.default with
      Schedule.loop_order = Schedule.One_row_at_a_time; interleave = k }
  in
  let _, h1 = Registry.compiled reg ~model:"m0" ~schedule:(row 8) in
  check_bool "row-major interleave 8 compiles" false (is_hit h1);
  let _, h2 = Registry.compiled reg ~model:"m0" ~schedule:(row 5) in
  check_bool "row-major interleave 5 hits the clamped entry" true (is_hit h2);
  let _, h3 = Registry.compiled reg ~model:"m0" ~schedule:(row 16) in
  check_bool "row-major interleave 16 hits too" true (is_hit h3);
  check_int "one compile for the clamped family" 1
    (Registry.compile_count reg);
  (* Below the tree count the factor is meaningful: distinct entries. *)
  let _, h4 = Registry.compiled reg ~model:"m0" ~schedule:(row 3) in
  check_bool "row-major interleave 3 is a different artifact" false (is_hit h4);
  (* Tree-major interleave jams rows, not trees — never clamped. *)
  let tree k = { Schedule.default with Schedule.interleave = k } in
  let _, h5 = Registry.compiled reg ~model:"m0" ~schedule:(tree 8) in
  let _, h6 = Registry.compiled reg ~model:"m0" ~schedule:(tree 5) in
  check_bool "tree-major 8 compiles" false (is_hit h5);
  check_bool "tree-major 5 compiles separately" false (is_hit h6)

let test_registry_calibration () =
  let reg, _ = small_registry 61 in
  let c0, _ = Registry.compiled reg ~model:"m0" ~schedule:Schedule.default in
  let u0 = c0.Registry.us_per_row and k0 = c0.Registry.compile_us in
  check_bool "baseline costs positive" true (u0 > 0.0 && k0 > 0.0);
  Registry.calibrate reg
    { Registry.service_scale = [ ("m0", 2.0) ]; compile_scale = Some 3.0 };
  (* The cached entry is rescaled in place... *)
  check_float "cached us_per_row rescaled" (2.0 *. u0) c0.Registry.us_per_row;
  check_float "cached compile_us rescaled" (3.0 *. k0) c0.Registry.compile_us;
  let c0', hit = Registry.compiled reg ~model:"m0" ~schedule:Schedule.default in
  check_bool "calibration does not evict" true (is_hit hit);
  check_float "hit returns the rescaled entry" (2.0 *. u0)
    c0'.Registry.us_per_row;
  (* ... and future compiles carry the scales. *)
  let s2 = { Schedule.default with Schedule.tile_size = 4 } in
  let c2, _ = Registry.compiled reg ~model:"m0" ~schedule:s2 in
  let fresh, _ = small_registry 61 in
  let d2, _ = Registry.compiled fresh ~model:"m0" ~schedule:s2 in
  check_float "future compile's service model scaled"
    (2.0 *. d2.Registry.us_per_row) c2.Registry.us_per_row;
  check_float "future compile's compile model scaled"
    (3.0 *. d2.Registry.compile_us) c2.Registry.compile_us;
  (* Calibrations compose multiplicatively (and can undo each other). *)
  Registry.calibrate reg
    { Registry.service_scale = [ ("m0", 0.5) ];
      compile_scale = Some (1.0 /. 3.0) };
  check_float "scales compose back to baseline" u0 c0.Registry.us_per_row

let test_calibration_of_drift () =
  let sample virtual_us wall_us =
    { Serve_check.rows = 1; virtual_us; wall_us }
  in
  let da =
    Serve_check.drift_of_samples ~model:"a"
      (List.init 8 (fun _ -> sample 10.0 30.0))
      [ { Serve_check.modeled_us = 100.0; wall_compile_us = 500.0 } ]
  in
  let db =
    Serve_check.drift_of_samples ~model:"b"
      (List.init 8 (fun _ -> sample 10.0 5.0))
      []
  in
  let cal = Registry.calibration_of_drift [ da; db ] in
  check_int "one service scale per model" 2
    (List.length cal.Registry.service_scale);
  check_float "a's scale is its wall/virtual ratio" 3.0
    (List.assoc "a" cal.Registry.service_scale);
  check_float "b's scale corrects downward" 0.5
    (List.assoc "b" cal.Registry.service_scale);
  (match cal.Registry.compile_scale with
  | Some s -> check_float "compile scale from the only measured model" 5.0 s
  | None -> Alcotest.fail "compile scale missing");
  let none = Registry.calibration_of_drift [ db ] in
  check_bool "no compile measured -> no compile scale" true
    (none.Registry.compile_scale = None)

let test_runtime_dual_wall_sanity () =
  let reg, _ = small_registry 71 in
  let rng = Prng.create 72 in
  let requests =
    mk_requests rng ~n:300 ~models:[| "m0" |] ~features:6 ~rate:200_000.0
  in
  let r =
    serve_one ~mode:Runtime.Dual ~schedule:Schedule.default reg requests
  in
  check_int "dual mode keeps equivalence" 0 r.Runtime.equivalence_failures;
  List.iter
    (fun (b : Runtime.batch_exec) ->
      check_bool "every batch has a finite wall measurement" true
        (Float.is_finite b.Runtime.wall_predict_us
        && b.Runtime.wall_predict_us >= 0.0))
    r.Runtime.batches;
  let m = r.Runtime.metrics in
  check_int "wall set covers every completion" m.Metrics.completed
    m.Metrics.wall_completed;
  check_int "wall rows match virtual rows" m.Metrics.rows_served
    m.Metrics.wall_rows;
  check_bool "wall makespan positive" true (m.Metrics.wall_makespan_us > 0.0);
  check_bool "wall throughput positive" true
    (Metrics.wall_throughput_rows_per_s m > 0.0);
  (match r.Runtime.drift with
  | [ d ] ->
    check_string "drift is per registered model" "m0" d.Serve_check.model;
    check_int "drift pairs every batch" (List.length r.Runtime.batches)
      d.Serve_check.batches;
    check_bool "service ratio finite and positive" true
      (Float.is_finite d.Serve_check.service_ratio
      && d.Serve_check.service_ratio > 0.0);
    check_bool "misses were paired with compile samples" true
      (d.Serve_check.compiles >= 1)
  | l -> Alcotest.failf "expected 1 drift summary, got %d" (List.length l));
  (* A virtual run of the same trace measures nothing. *)
  let reg2, _ = small_registry 71 in
  let rv = serve_one ~schedule:Schedule.default reg2 requests in
  check_bool "virtual mode records no wall time" true
    (List.for_all
       (fun (b : Runtime.batch_exec) -> b.Runtime.wall_predict_us = 0.0)
       rv.Runtime.batches);
  check_int "virtual mode has no wall completions" 0
    rv.Runtime.metrics.Metrics.wall_completed;
  check_bool "virtual mode reports no drift" true (rv.Runtime.drift = [])

let test_runtime_wall_monotone_in_batch_size () =
  (* Bigger batches take longer on the wall clock. Comparing the median
     per-batch predict time of 1-row batches against 128-row batches
     leaves orders of magnitude of headroom for scheduler noise. *)
  let median_wall batch_max =
    let reg, _ = small_registry 81 in
    let rng = Prng.create 82 in
    let requests =
      mk_requests rng ~n:256 ~models:[| "m0" |] ~features:6 ~rate:10_000_000.0
    in
    let config =
      { Runtime.default_config with Runtime.batch_max; queue_capacity = 4096 }
    in
    let r =
      serve_one ~config ~mode:Runtime.Wall ~schedule:Schedule.default reg
        requests
    in
    let ws =
      List.map (fun b -> b.Runtime.wall_predict_us) r.Runtime.batches
      |> List.sort compare
    in
    check_bool "run produced batches" true (ws <> []);
    List.nth ws (List.length ws / 2)
  in
  let small = median_wall 1 and large = median_wall 128 in
  check_bool
    (Printf.sprintf "median wall predict: 128-row %.1fus > 1-row %.1fus"
       large small)
    true (large > small)

let test_dual_drift_fault_injection () =
  (* Inflate the modeled costs absurdly before a dual run: the virtual
     clock now disagrees with any real machine by orders of magnitude
     beyond the tolerance corridor, so V001 and V002 must fire. *)
  let reg, _ = small_registry 91 in
  Registry.calibrate reg
    { Registry.service_scale = [ ("m0", 1e6) ]; compile_scale = Some 1e8 };
  let rng = Prng.create 92 in
  let requests =
    mk_requests rng ~n:300 ~models:[| "m0" |] ~features:6 ~rate:200_000.0
  in
  let r =
    serve_one ~mode:Runtime.Dual ~schedule:Schedule.default reg requests
  in
  let codes =
    List.map (fun d -> d.Tb_diag.Diagnostic.code)
      (Serve_check.check r.Runtime.drift)
  in
  check_bool "inflated service model fires V001" true (List.mem "V001" codes);
  check_bool "inflated compile model fires V002" true (List.mem "V002" codes)

let test_simulate_dual_determinism () =
  let rng = Prng.create 87 in
  let forest = Forest.random ~num_trees:6 ~max_depth:4 ~num_features:5 rng in
  let models =
    [
      {
        Simulate.name = "rand";
        forest;
        profiles = None;
        pool = random_rows rng 5 32;
        weight = 1;
        slo_us = None;
      };
    ]
  in
  let config =
    { Simulate.default_config with
      Simulate.num_requests = 300; mode = Runtime.Dual }
  in
  let virtual_json fr = Simulate.fleet_report_to_json ~virtual_only:true fr in
  let rep1 = Simulate.run_fleet config models in
  let rep2 = Simulate.run_fleet config models in
  check_string "dual runs: virtual halves byte-identical"
    (J.to_string ~indent:true (virtual_json rep1))
    (J.to_string ~indent:true (virtual_json rep2));
  (* The virtual half must equal a pure virtual run's report everywhere
     except the config echo (which records the mode). *)
  let vrep =
    Simulate.run_fleet { config with Simulate.mode = Runtime.Virtual } models
  in
  List.iter
    (fun name ->
      check_string
        (Printf.sprintf "dual virtual %s == pure virtual %s" name name)
        (J.to_string (J.member name (virtual_json vrep)))
        (J.to_string (J.member name (virtual_json rep1))))
    [ "metrics"; "shards"; "compiles"; "hydrations"; "per_model";
      "equivalence_failures" ];
  (* The full dual report additionally carries both clocks: the wall set
     in the metrics, the drift in the shard's section. *)
  let shard0 j = J.member "0" (J.member "shards" j) in
  let full = Simulate.fleet_report_to_json rep1 in
  check_bool "dual report has a wall section" true
    (match J.member "wall" (J.member "metrics" full) with
    | J.Obj _ -> true
    | _ -> false);
  (match J.member "drift" (shard0 full) with
  | J.List (_ :: _) -> ()
  | _ -> Alcotest.fail "dual report missing the shard's drift section");
  let absent name j =
    match J.member name j with exception J.Parse_error _ -> true | _ -> false
  in
  check_bool "virtual half omits wall" true
    (absent "wall" (J.member "metrics" (virtual_json rep1)));
  check_bool "virtual half omits drift" true
    (absent "drift" (shard0 (virtual_json rep1)))

let suite =
  [
    quick "histogram quantiles" test_histogram_quantiles;
    quick "histogram empty" test_histogram_empty;
    quick "rqueue backpressure" test_rqueue_backpressure;
    quick "rqueue mpsc accounting" test_rqueue_mpsc;
    quick "batcher size trigger" test_batcher_size_trigger;
    quick "batcher deadline trigger" test_batcher_deadline_trigger;
    quick "batcher flush" test_batcher_flush;
    quick "policy capacity bound" test_policy_capacity;
    quick "policy lru order" test_policy_lru_order;
    quick "policy sieve second chance" test_policy_sieve_second_chance;
    quick "policy sieve scan resistance" test_policy_sieve_scan_resistance;
    quick "registry cache + thread normalization"
      test_registry_cache_and_thread_normalization;
    quick "schedule clamp_threads boundary" test_clamp_threads_boundary;
    quick "S013 core oversubscription" test_s013_core_oversubscription;
    quick "warm-start profiler misses" test_warm_start_misses;
    quick "arrivals sorted + deterministic"
      test_arrivals_sorted_and_deterministic;
    quick "arrival kind parsing" test_arrival_kind_parse;
    quick "runtime accounting" test_runtime_accounting;
    quick "runtime backpressure" test_runtime_backpressure;
    quick "runtime deterministic" test_runtime_deterministic;
    qcheck ~count:25 ~name:"serve == direct JIT (bitwise)" serve_equiv_gen
      serve_equiv_property;
    quick "simulate deterministic report" test_simulate_deterministic_report;
    quick "serve-check drift math" test_serve_check_drift_math;
    quick "serve-check tolerances" test_serve_check_tolerances;
    quick "interleave clamp shares cache entry" test_interleave_clamp_cache_hit;
    quick "registry calibration rescales costs" test_registry_calibration;
    quick "calibration fitted from drift" test_calibration_of_drift;
    quick "dual mode wall sanity" test_runtime_dual_wall_sanity;
    quick "wall time monotone in batch size"
      test_runtime_wall_monotone_in_batch_size;
    quick "drift fault injection fires V001/V002"
      test_dual_drift_fault_injection;
    quick "dual mode virtual half deterministic"
      test_simulate_dual_determinism;
  ]
