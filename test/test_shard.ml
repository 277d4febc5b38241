(* Sharded serving: consistent-hash routing stability, EDF dispatch,
   graded shedding, exact metrics merging and fleet-level determinism +
   artifact shipping. *)

open Helpers
module Prng = Tb_util.Prng
module H = Tb_util.Stats.Histogram
module Schedule = Tb_hir.Schedule
module Forest = Tb_model.Forest
module Metrics = Tb_serve.Metrics
module Registry = Tb_serve.Registry
module Router = Tb_serve.Router
module Runtime = Tb_serve.Runtime
module Scheduler = Tb_serve.Scheduler
module Simulate = Tb_serve.Simulate
module J = Tb_util.Json

(* ---------------- router ---------------- *)

let test_router_strings () =
  check_bool "hash" true (Router.policy_of_string "hash" = Ok Router.Hash);
  check_bool "affinity" true
    (Router.policy_of_string "Affinity" = Ok Router.Affinity);
  check_bool "junk rejected" true
    (match Router.policy_of_string "random" with
    | Error _ -> true
    | Ok _ -> false)

let test_router_routes_live () =
  List.iter
    (fun policy ->
      let r = Router.of_shard_ids policy [ 1; 4; 9 ] in
      for i = 0 to 50 do
        let sid = Router.route r (Printf.sprintf "model-%d" i) in
        check_bool "routes to a live shard" true (List.mem sid [ 1; 4; 9 ])
      done)
    [ Router.Hash; Router.Affinity ]

(* The affinity property the ISSUE pins down: growing the ring only moves
   keys onto the new shard, shrinking it only moves the removed shard's
   keys — every other model keeps its shard. *)
let affinity_stability_property seed =
  let rng = Prng.create seed in
  let shards = 1 + Prng.int rng 7 in
  let models =
    List.init (8 + Prng.int rng 40) (fun i ->
        Printf.sprintf "m%d-%d" i (Prng.int rng 1_000_000))
  in
  let r = Router.create Router.Affinity ~shards in
  let grown = Router.add_shard r shards in
  List.iter
    (fun m ->
      let before = Router.route r m and after = Router.route grown m in
      if before <> after && after <> shards then
        QCheck2.Test.fail_reportf
          "add_shard moved %s from %d to %d (not the new shard %d)" m before
          after shards)
    models;
  (* Removing what we added restores every assignment bit for bit. *)
  let shrunk = Router.remove_shard grown shards in
  List.iter
    (fun m ->
      if Router.route shrunk m <> Router.route r m then
        QCheck2.Test.fail_reportf "remove_shard did not restore %s" m)
    models;
  (* Removing a shard only moves the removed shard's models. *)
  (if shards > 1 then
     let victim = Prng.int rng shards in
     let dropped = Router.remove_shard r victim in
     List.iter
       (fun m ->
         let before = Router.route r m in
         if before <> victim && Router.route dropped m <> before then
           QCheck2.Test.fail_reportf
             "remove_shard %d moved %s which lived on %d" victim m before)
       models);
  true

(* Hash-mod routing is balanced but unstable: growing the fleet remaps
   keys to shards other than the new one (the contrast that motivates
   affinity routing). Checked on a fixed seed: the property is about the
   policy, not about every draw. *)
let test_hash_routing_unstable () =
  let models = List.init 64 (fun i -> Printf.sprintf "model-%d" i) in
  let r3 = Router.create Router.Hash ~shards:3 in
  let r4 = Router.add_shard r3 3 in
  let moved_elsewhere =
    List.exists
      (fun m ->
        let b = Router.route r3 m and a = Router.route r4 m in
        b <> a && a <> 3)
      models
  in
  check_bool "mod-hash remaps keys onto old shards" true moved_elsewhere

(* ---------------- scheduler ---------------- *)

let test_edf_preempts_fifo_order () =
  let fifo = Scheduler.create Scheduler.Fifo in
  Scheduler.push fifo ~deadline_us:1000.0 "loose";
  Scheduler.push fifo ~deadline_us:100.0 "tight";
  Alcotest.(check (option string))
    "fifo serves admission order" (Some "loose") (Scheduler.pop fifo);
  let edf = Scheduler.create Scheduler.Edf in
  Scheduler.push edf ~deadline_us:1000.0 "loose";
  Scheduler.push edf ~deadline_us:100.0 "tight";
  Alcotest.(check (option string))
    "edf serves the tight deadline first" (Some "tight") (Scheduler.pop edf);
  Alcotest.(check (option string))
    "then the loose one" (Some "loose") (Scheduler.pop edf);
  Alcotest.(check (option string)) "empty" None (Scheduler.pop edf)

let test_scheduler_shed_last () =
  let edf = Scheduler.create Scheduler.Edf in
  Scheduler.push edf ~deadline_us:500.0 "mid";
  Scheduler.push edf ~deadline_us:9000.0 "latest";
  Scheduler.push edf ~deadline_us:100.0 "tight";
  Alcotest.(check (option string))
    "edf sheds the latest deadline" (Some "latest") (Scheduler.shed_last edf);
  check_int "two left" 2 (Scheduler.length edf);
  let fifo = Scheduler.create Scheduler.Fifo in
  Scheduler.push fifo ~deadline_us:1.0 "old";
  Scheduler.push fifo ~deadline_us:2.0 "new";
  Alcotest.(check (option string))
    "fifo sheds the newest admission" (Some "new") (Scheduler.shed_last fifo)

(* Engine-level EDF: worker busy, one loose and one tight batch pending —
   FIFO dispatches the older loose batch next, EDF the tight one. *)
let edf_registry seed =
  let rng = Prng.create seed in
  let reg = Registry.create () in
  Registry.register reg ~name:"loose"
    (Forest.random ~num_trees:5 ~max_depth:4 ~num_features:6 rng);
  Registry.register reg ~name:"tight"
    (Forest.random ~num_trees:5 ~max_depth:4 ~num_features:6 rng);
  reg

let edf_requests rng =
  (* batch_max = 1 turns each request into its own batch at arrival; the
     first loose batch pays its compile on the single worker, so both
     later batches are pending when the worker frees. *)
  [|
    { Runtime.id = 0; model = "loose"; row = random_row rng 6; arrival_us = 0.0 };
    { Runtime.id = 1; model = "loose"; row = random_row rng 6; arrival_us = 1.0 };
    { Runtime.id = 2; model = "tight"; row = random_row rng 6; arrival_us = 2.0 };
  |]

let test_edf_preempts_in_engine () =
  let dispatch_models scheduling =
    let reg = edf_registry 51 in
    let rng = Prng.create 52 in
    let config =
      {
        Runtime.default_config with
        Runtime.batch_max = 1;
        workers = 1;
        scheduling;
        slo_us = [ ("tight", 500.0) ];
      }
    in
    let r =
      serve_one ~config ~schedule:Schedule.default reg (edf_requests rng)
    in
    check_int "all served" 3 r.Runtime.metrics.Metrics.completed;
    check_int "serve == jit" 0 r.Runtime.equivalence_failures;
    List.map
      (fun (b : Runtime.batch_exec) -> b.Runtime.requests.(0).Runtime.model)
      r.Runtime.batches
  in
  Alcotest.(check (list string))
    "fifo keeps formation order"
    [ "loose"; "loose"; "tight" ]
    (dispatch_models Scheduler.Fifo);
  Alcotest.(check (list string))
    "edf jumps the tight deadline ahead"
    [ "loose"; "tight"; "loose" ]
    (dispatch_models Scheduler.Edf)

(* SLO attainment feeds the metrics: the tight model's completions are
   scored against its budget under both policies, and EDF's reordering
   can only help it. *)
let test_edf_slo_attainment () =
  let attainment scheduling =
    let reg = edf_registry 53 in
    let rng = Prng.create 54 in
    let config =
      {
        Runtime.default_config with
        Runtime.batch_max = 1;
        workers = 1;
        scheduling;
        slo_us = [ ("tight", 500.0) ];
      }
    in
    let r =
      serve_one ~config ~schedule:Schedule.default reg (edf_requests rng)
    in
    match Metrics.slo_attainment r.Runtime.metrics "tight" with
    | Some a -> a
    | None -> Alcotest.fail "tight model recorded no scored completions"
  in
  let fifo = attainment Scheduler.Fifo and edf = attainment Scheduler.Edf in
  check_bool "edf attainment >= fifo" true (edf >= fifo)

(* ---------------- graded shedding ---------------- *)

let test_graded_shed_prefers_loose () =
  (* One worker, glacial queue drain, shedding from the first queued
     request: the loose class is turned away while the tight class keeps
     being admitted until the ladder's top step. *)
  let reg = edf_registry 55 in
  let rng = Prng.create 56 in
  let n = 400 in
  let requests =
    Array.init n (fun i ->
        {
          Runtime.id = i;
          model = (if i mod 2 = 0 then "loose" else "tight");
          row = random_row rng 6;
          arrival_us = float_of_int i *. 0.5;
        })
  in
  let config =
    {
      Runtime.default_config with
      Runtime.queue_capacity = 16;
      batch_max = 4;
      workers = 1;
      scheduling = Scheduler.Edf;
      slo_us = [ ("tight", 500.0); ("loose", 50_000.0) ];
      shed_lo = 0.25;
      shed_hi = 0.75;
    }
  in
  let r = serve_one ~config ~schedule:Schedule.default reg requests in
  let m = r.Runtime.metrics in
  check_bool "ladder shed something" true (m.Metrics.shed_admission > 0);
  check_int "sheds are counted as rejects too" m.Metrics.arrivals
    (m.Metrics.admitted + m.Metrics.rejected);
  let shed_of name =
    List.length
      (List.filter
         (fun (req : Runtime.request) -> req.Runtime.model = name)
         r.Runtime.rejects)
  in
  check_bool "loose class shed at least as hard as tight" true
    (shed_of "loose" >= shed_of "tight")

(* ---------------- metrics merge ---------------- *)

let test_metrics_merge_exact () =
  (* Two shards' histograms merge exactly: the fleet view equals one
     metrics object fed every sample, because geometric buckets make
     bucket-wise addition lossless. *)
  let a = Metrics.create ()
  and b = Metrics.create ()
  and whole = Metrics.create () in
  let rng = Prng.create 61 in
  for i = 0 to 199 do
    let arrival = float_of_int i in
    let start = arrival +. (1.0 +. Prng.float rng 50.0) in
    let finish = start +. (1.0 +. Prng.float rng 400.0) in
    let part = if i mod 2 = 0 then a else b in
    let slo = Some ("m", 300.0) in
    Metrics.record_completion ?slo part ~arrival_us:arrival ~start_us:start
      ~finish_us:finish;
    Metrics.record_completion ?slo whole ~arrival_us:arrival ~start_us:start
      ~finish_us:finish
  done;
  let merged = Metrics.merge [ a; b ] in
  List.iter
    (fun (label, pick) ->
      let hm : H.t = pick merged and hw : H.t = pick whole in
      check_int (label ^ " count") (H.count hw) (H.count hm);
      List.iter
        (fun q ->
          check_float
            (Printf.sprintf "%s q%.2f" label q)
            (H.quantile hw q) (H.quantile hm q))
        [ 0.5; 0.95; 0.99 ])
    [
      ("total", fun (m : Metrics.t) -> m.Metrics.total_us);
      ("queue_wait", fun (m : Metrics.t) -> m.Metrics.queue_wait_us);
      ("service", fun (m : Metrics.t) -> m.Metrics.service_us);
    ];
  check_int "completed adds" whole.Metrics.completed merged.Metrics.completed;
  check_float "makespan is the max" whole.Metrics.makespan_us
    merged.Metrics.makespan_us;
  check_bool "slo cells add" true
    (Metrics.slo_attainment merged "m" = Metrics.slo_attainment whole "m")

(* ---------------- fleet ---------------- *)

let fleet_models rng =
  List.map
    (fun name ->
      {
        Simulate.name;
        forest = Forest.random ~num_trees:5 ~max_depth:4 ~num_features:6 rng;
        profiles = None;
        pool = random_rows rng 6 24;
        weight = 1;
        slo_us = None;
      })
    [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ]

let fresh_dir () =
  let f = Filename.temp_file "tb_shard_test" ".cache" in
  Sys.remove f;
  f

let fleet_config ?cache_dir ~shards () =
  {
    Simulate.default_config with
    Simulate.num_requests = 300;
    popularity = Simulate.Zipf 1.1;
    shards;
    routing = Router.Affinity;
    cache_dir;
  }

let test_fleet_deterministic_and_equivalent () =
  let report () =
    let rng = Prng.create 71 in
    let models = fleet_models rng in
    let fr = Simulate.run_fleet (fleet_config ~shards:3 ()) models in
    check_int "serve == jit on every shard" 0
      fr.Simulate.fleet.Runtime.fleet_equivalence_failures;
    check_int "three shards reported" 3
      (List.length fr.Simulate.fleet.Runtime.shard_results);
    Tb_util.Json.to_string ~indent:true
      (Simulate.fleet_report_to_json ~virtual_only:true fr)
  in
  check_string "byte-identical fleet report" (report ()) (report ())

(* A fleet of one is its shard: the merged view equals the lone shard's
   section byte for byte — Metrics.merge of one snapshot is an exact
   identity, down to the Kahan-summed means and the wall set. *)
let test_fleet_of_one_equals_its_shard () =
  List.iter
    (fun mode ->
      let rng = Prng.create 75 in
      let models = fleet_models rng in
      let config =
        {
          (fleet_config ~cache_dir:(fresh_dir ()) ~shards:1 ()) with
          Simulate.mode;
          cache_capacity = 2;
        }
      in
      let report =
        Simulate.fleet_report_to_json (Simulate.run_fleet config models)
      in
      let shard = J.member "0" (J.member "shards" report) in
      check_bool "evictions made the disk tier answer" true
        (J.to_int (J.member "hydrations" report) > 0);
      List.iter
        (fun field ->
          check_string
            (Printf.sprintf "%s: fleet %s == shard 0's"
               (Runtime.mode_to_string mode) field)
            (J.to_string (J.member field shard))
            (J.to_string (J.member field report)))
        [ "metrics"; "compiles"; "hydrations"; "equivalence_failures" ])
    [ Runtime.Virtual; Runtime.Dual ]

let test_fleet_covers_every_request () =
  let rng = Prng.create 72 in
  let models = fleet_models rng in
  let fr = Simulate.run_fleet (fleet_config ~shards:4 ()) models in
  let f = fr.Simulate.fleet in
  let served =
    Array.fold_left
      (fun a o -> if o <> None then a + 1 else a)
      0 f.Runtime.fleet_outputs
  in
  check_int "served + rejected = trace" 300
    (served + List.length f.Runtime.fleet_rejects);
  (* The fleet metrics are the exact merge of the shard metrics. *)
  let shard_completed =
    List.fold_left
      (fun a (_, (r : Runtime.result)) ->
        a + r.Runtime.metrics.Metrics.completed)
      0 f.Runtime.shard_results
  in
  check_int "merged completions" shard_completed
    f.Runtime.fleet_metrics.Metrics.completed

let test_fleet_artifact_shipping () =
  (* A fleet restart over the shared artifact store: the second fleet's
     registries never compiled anything, so every dispatch hydrates a
     foreign artifact — zero recompiles, bitwise-identical outputs. *)
  let dir = fresh_dir () in
  let run () =
    let rng = Prng.create 73 in
    let models = fleet_models rng in
    Simulate.run_fleet (fleet_config ~cache_dir:dir ~shards:3 ()) models
  in
  let cold = run () in
  check_bool "cold fleet compiled" true
    (cold.Simulate.fleet.Runtime.fleet_compiles > 0);
  let warm = run () in
  check_int "warm fleet recompiles nothing" 0
    warm.Simulate.fleet.Runtime.fleet_compiles;
  check_bool "warm fleet hydrates foreign artifacts" true
    (warm.Simulate.fleet.Runtime.fleet_foreign_hydrations > 0);
  check_bool "bitwise-identical outputs across the restart" true
    (cold.Simulate.fleet.Runtime.fleet_outputs
    = warm.Simulate.fleet.Runtime.fleet_outputs)

let test_fleet_reshard_rehydrates () =
  (* Route change with surviving registries: a model moved by add_shard
     hydrates on its new shard from the shared store instead of
     recompiling. *)
  let dir = fresh_dir () in
  let rng = Prng.create 74 in
  let models = fleet_models rng in
  let config = fleet_config ~cache_dir:dir ~shards:3 () in
  let mk_reg () =
    let reg = Registry.create ~cache_dir:dir () in
    List.iter
      (fun (m : Simulate.model_spec) ->
        Registry.register reg ~name:m.Simulate.name ~sample_rows:m.Simulate.pool
          m.Simulate.forest)
      models;
    reg
  in
  let trace =
    Simulate.gen_requests (Prng.create config.Simulate.seed) config models
  in
  let router3 = Router.create Router.Affinity ~shards:3 in
  let regs3 = List.map (fun sid -> (sid, mk_reg ())) (Router.shard_ids router3) in
  let cold =
    Runtime.run_fleet ~schedule:Schedule.default ~router:router3 regs3 trace
  in
  check_int "cold fleet equivalence" 0 cold.Runtime.fleet_equivalence_failures;
  let compiles_before =
    List.fold_left (fun a (_, r) -> a + Registry.compile_count r) 0 regs3
  in
  let router4 = Router.add_shard router3 3 in
  let regs4 = regs3 @ [ (3, mk_reg ()) ] in
  let warm =
    Runtime.run_fleet ~schedule:Schedule.default ~router:router4 regs4 trace
  in
  let compiles_after =
    List.fold_left (fun a (_, r) -> a + Registry.compile_count r) 0 regs4
  in
  check_int "route change recompiles nothing" compiles_before compiles_after;
  check_int "resharded fleet equivalence" 0
    warm.Runtime.fleet_equivalence_failures;
  check_bool "same outputs after the reshard" true
    (cold.Runtime.fleet_outputs = warm.Runtime.fleet_outputs)

let suite =
  [
    quick "router policy strings" test_router_strings;
    quick "routing lands on live shards" test_router_routes_live;
    qcheck ~count:60 ~name:"consistent hashing stable under add/remove"
      seed_gen affinity_stability_property;
    quick "mod-hash routing is unstable" test_hash_routing_unstable;
    quick "edf pops tight deadline before older loose" test_edf_preempts_fifo_order;
    quick "shed_last drops the least urgent" test_scheduler_shed_last;
    quick "edf preempts fifo-older loose batch in the engine"
      test_edf_preempts_in_engine;
    quick "edf slo attainment >= fifo" test_edf_slo_attainment;
    quick "graded shedding turns away loose classes first"
      test_graded_shed_prefers_loose;
    quick "metrics merge is exact" test_metrics_merge_exact;
    quick "fleet report byte-deterministic" test_fleet_deterministic_and_equivalent;
    quick "fleet of one equals its shard" test_fleet_of_one_equals_its_shard;
    quick "fleet covers the whole trace" test_fleet_covers_every_request;
    quick "fleet warm restart ships artifacts" test_fleet_artifact_shipping;
    quick "reshard hydrates moved models without recompiling"
      test_fleet_reshard_rehydrates;
  ]
