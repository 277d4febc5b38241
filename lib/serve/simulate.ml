module Prng = Tb_util.Prng
module J = Tb_util.Json
module Schedule = Tb_hir.Schedule
module Config = Tb_cpu.Config

type arrival_kind = Poisson | Burst of int | Ramp

let arrival_kind_to_string = function
  | Poisson -> "poisson"
  | Burst n -> Printf.sprintf "burst:%d" n
  | Ramp -> "ramp"

let arrival_kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "poisson" -> Ok Poisson
  | "ramp" -> Ok Ramp
  | "burst" -> Ok (Burst 8)
  | s when String.length s > 6 && String.sub s 0 6 = "burst:" -> (
    match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
    | Some n when n >= 1 -> Ok (Burst n)
    | _ -> Error (Printf.sprintf "invalid burst size in %S" s))
  | _ ->
    Error
      (Printf.sprintf
         "unknown arrival process %S (expected poisson, burst[:N] or ramp)" s)

type popularity = Uniform | Zipf of float

let popularity_to_string = function
  | Uniform -> "uniform"
  | Zipf theta -> Printf.sprintf "zipf:%g" theta

let popularity_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "uniform" -> Ok Uniform
  | "zipf" -> Ok (Zipf 1.0)
  | s when String.length s > 5 && String.sub s 0 5 = "zipf:" -> (
    match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some theta when theta > 0.0 && Float.is_finite theta -> Ok (Zipf theta)
    | _ -> Error (Printf.sprintf "invalid zipf exponent in %S" s))
  | _ ->
    Error
      (Printf.sprintf
         "unknown popularity %S (expected uniform or zipf[:theta])" s)

type model_spec = {
  name : string;
  forest : Tb_model.Forest.t;
  profiles : Tb_model.Model_stats.tree_profile array option;
  pool : float array array;
  weight : int;
  slo_us : float option;
}

type config = {
  arrival : arrival_kind;
  rate_rps : float;
  num_requests : int;
  seed : int;
  popularity : popularity;
  schedule : Schedule.t;
  runtime : Runtime.config;
  mode : Runtime.mode;
  shards : int;
  routing : Router.policy;
  cache_policy : Policy.kind;
  cache_capacity : int;
  cache_dir : string option;
  cache_max_bytes : int option;
  target : Config.t;
}

let default_config =
  {
    arrival = Poisson;
    rate_rps = 50_000.0;
    num_requests = 2000;
    seed = 42;
    popularity = Uniform;
    schedule = Schedule.default;
    runtime = Runtime.default_config;
    mode = Runtime.Virtual;
    shards = 1;
    routing = Router.Affinity;
    cache_policy = Policy.Lru;
    cache_capacity = 8;
    cache_dir = None;
    cache_max_bytes = None;
    target = Config.intel_rocket_lake;
  }

(* Exponential deviate with mean [mean]; 1 -. u avoids log 0. *)
let exp_gap rng ~mean = -.mean *. log (1.0 -. Prng.uniform rng)

let gen_arrivals rng kind ~rate_rps ~n =
  if n < 0 then invalid_arg "Simulate.gen_arrivals: n < 0";
  if not (rate_rps > 0.0) then
    invalid_arg "Simulate.gen_arrivals: rate_rps <= 0";
  let mean_gap_us = 1e6 /. rate_rps in
  match kind with
  | Poisson ->
    let t = ref 0.0 in
    Array.init n (fun _ ->
        let at = !t in
        t := !t +. exp_gap rng ~mean:mean_gap_us;
        at)
  | Burst b ->
    (* Burst starts are Poisson at rate/b so the average rate is kept;
       the b requests of a burst share the start timestamp. *)
    let t = ref 0.0 in
    let remaining = ref 0 in
    Array.init n (fun _ ->
        if !remaining = 0 then begin
          remaining := b;
          t := !t +. exp_gap rng ~mean:(mean_gap_us *. float_of_int b)
        end;
        decr remaining;
        !t)
  | Ramp ->
    (* Intensity grows linearly from 0 to 2×rate over the horizon
       T = n / rate, so the cumulative count is quadratic: inverting it
       puts arrival i at T·√(u_i) for sorted uniforms. Using i/n quantiles
       jittered by the rng keeps the stream deterministic and sorted. *)
    let horizon_us = float_of_int n *. mean_gap_us in
    let us = Array.init n (fun _ -> Prng.uniform rng) in
    Array.sort compare us;
    Array.map (fun u -> horizon_us *. sqrt u) us

let config_to_json (c : config) models =
  J.Obj
    [
      ("arrival", J.Str (arrival_kind_to_string c.arrival));
      ("rate_rps", J.Num c.rate_rps);
      ("num_requests", J.Num (float_of_int c.num_requests));
      ("seed", J.Num (float_of_int c.seed));
      ("popularity", J.Str (popularity_to_string c.popularity));
      ("mode", J.Str (Runtime.mode_to_string c.mode));
      ("shards", J.Num (float_of_int c.shards));
      ("routing", J.Str (Router.policy_to_string c.routing));
      ( "scheduling",
        J.Str (Scheduler.policy_to_string c.runtime.Runtime.scheduling) );
      ( "precision",
        J.Str
          (Tb_core.Treebeard.precision_to_string c.runtime.Runtime.precision)
      );
      ("schedule", Schedule.to_json c.schedule);
      ("queue_capacity", J.Num (float_of_int c.runtime.Runtime.queue_capacity));
      ("batch_max", J.Num (float_of_int c.runtime.Runtime.batch_max));
      ("deadline_us", J.Num c.runtime.Runtime.deadline_us);
      ("workers", J.Num (float_of_int c.runtime.Runtime.workers));
      ( "dispatch_overhead_us",
        J.Num c.runtime.Runtime.dispatch_overhead_us );
      ("cache_policy", J.Str (Policy.kind_to_string c.cache_policy));
      ("cache_capacity", J.Num (float_of_int c.cache_capacity));
      ( "cache_dir",
        match c.cache_dir with None -> J.Null | Some d -> J.Str d );
      ( "cache_max_bytes",
        match c.cache_max_bytes with
        | None -> J.Null
        | Some b -> J.Num (float_of_int b) );
      ("target", J.Str c.target.Config.name);
      ( "models",
        J.Obj
          (List.map
             (fun m -> (m.name, J.Num (float_of_int m.weight)))
             models) );
      ( "slo_us",
        J.Obj
          (List.filter_map
             (fun m -> Option.map (fun b -> (m.name, J.Num b)) m.slo_us)
             models) );
    ]

let validate_models models =
  let who = "Simulate.run_fleet" in
  if models = [] then invalid_arg (who ^ ": no models");
  List.iter
    (fun m ->
      if Array.length m.pool = 0 then
        invalid_arg
          (Printf.sprintf "%s: model %s has an empty row pool" who m.name);
      if m.weight < 1 then
        invalid_arg (Printf.sprintf "%s: model %s has weight < 1" who m.name);
      match m.slo_us with
      | Some b when not (b > 0.0 && Float.is_finite b) ->
        invalid_arg
          (Printf.sprintf "%s: model %s slo_us not positive" who m.name)
      | Some _ | None -> ())
    models

let make_registry (c : config) models =
  let registry =
    Registry.create ~target:c.target ~policy:c.cache_policy
      ~capacity:c.cache_capacity ?cache_dir:c.cache_dir
      ?cache_max_bytes:c.cache_max_bytes ()
  in
  List.iter
    (fun m ->
      Registry.register registry ~name:m.name ?profiles:m.profiles
        ~sample_rows:m.pool m.forest)
    models;
  registry

(* Per-model SLO budgets declared on the model specs extend (and win
   over) any budgets already in the runtime config. *)
let effective_runtime (c : config) models =
  let spec_slos =
    List.filter_map
      (fun m -> Option.map (fun b -> (m.name, b)) m.slo_us)
      models
  in
  if spec_slos = [] then c.runtime
  else
    { c.runtime with Runtime.slo_us = spec_slos @ c.runtime.Runtime.slo_us }

let gen_requests rng (c : config) models =
  let arrivals =
    gen_arrivals rng c.arrival ~rate_rps:c.rate_rps ~n:c.num_requests
  in
  match c.popularity with
  | Uniform ->
    (* Weighted choice by repetition: weights are small integers. *)
    let model_arr =
      Array.concat (List.map (fun m -> Array.make m.weight m) models)
    in
    Array.mapi
      (fun i at ->
        let m = Prng.choose rng model_arr in
        let row = Prng.choose rng m.pool in
        { Runtime.id = i; model = m.name; row; arrival_us = at })
      arrivals
  | Zipf theta ->
    (* Zipfian popularity over declaration order: the first model is the
       hottest (P(rank k) ∝ 1/(k+1)^θ); spec weights are ignored. *)
    let model_arr = Array.of_list models in
    let zipf = Tb_util.Zipf.create ~n:(Array.length model_arr) ~theta in
    Array.mapi
      (fun i at ->
        let m = model_arr.(Tb_util.Zipf.draw zipf rng) in
        let row = Prng.choose rng m.pool in
        { Runtime.id = i; model = m.name; row; arrival_us = at })
      arrivals

let count_per_model models requests outputs =
  List.map
    (fun m ->
      let count = ref 0 in
      Array.iter
        (fun (r : Runtime.request) ->
          if r.model = m.name && outputs.(r.id) <> None then incr count)
        requests;
      (m.name, !count))
    models

(* Which precision tier actually served each model — per batch the
   compiled entry knows its resolved tier, so the report can show a
   quantized fleet's per-model fallbacks at a glance. Sorted by model
   name for deterministic output. *)
let tiers_of_batches (batches : Runtime.batch_exec list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (b : Runtime.batch_exec) ->
      Hashtbl.replace tbl b.Runtime.compiled.Registry.model
        b.Runtime.compiled.Registry.tier)
    batches;
  Hashtbl.fold (fun m tier acc -> (m, tier) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let tiers_json batches =
  J.Obj
    (List.map
       (fun (m, tier) -> (m, J.Str (Tb_core.Treebeard.tier_to_string tier)))
       (tiers_of_batches batches))

type fleet_report = {
  fleet_config_json : J.t;
  fleet : Runtime.fleet_result;
  fleet_per_model : (string * int) list;
}

let run_fleet ?calibration (c : config) models =
  validate_models models;
  if c.shards < 1 then invalid_arg "Simulate.run_fleet: shards < 1";
  let router = Router.create c.routing ~shards:c.shards in
  (* Every shard registers every model: registration is cheap and a
     rebalance can route any model anywhere; compilation stays lazy. All
     shards share the config's cache_dir, which is the artifact-shipping
     channel. *)
  let registries =
    List.map
      (fun sid ->
        let reg = make_registry c models in
        Option.iter (Registry.calibrate reg) calibration;
        (sid, reg))
      (Router.shard_ids router)
  in
  let rng = Prng.create c.seed in
  (* The trace is generated before routing, so it depends only on the
     seed — resharding re-partitions the same requests. *)
  let requests = gen_requests rng c models in
  let fleet =
    Runtime.run_fleet
      ~config:(effective_runtime c models)
      ~mode:c.mode ~schedule:c.schedule ~router registries requests
  in
  let per_model =
    count_per_model models requests fleet.Runtime.fleet_outputs
  in
  {
    fleet_config_json = config_to_json c models;
    fleet;
    fleet_per_model = per_model;
  }

let shard_to_json ~virtual_only (sid, (r : Runtime.result)) =
  let fields =
    [
      ( "metrics",
        Metrics.to_json ~include_wall:(not virtual_only) r.Runtime.metrics );
      ("queue", Rqueue.stats_to_json r.Runtime.queue_stats);
      ("cache", Policy.stats_to_json r.Runtime.cache_stats);
      ("compiles", J.Num (float_of_int r.Runtime.compile_count));
      ("hydrations", J.Num (float_of_int r.Runtime.hydration_count));
      ( "foreign_hydrations",
        J.Num (float_of_int r.Runtime.foreign_hydration_count) );
      ("precision_tiers", tiers_json r.Runtime.batches);
      ( "equivalence_failures",
        J.Num (float_of_int r.Runtime.equivalence_failures) );
    ]
    @
    if virtual_only || r.Runtime.drift = [] then []
    else
      [
        ( "drift",
          J.List
            (List.map Tb_analysis.Serve_check.drift_to_json r.Runtime.drift)
        );
      ]
  in
  (string_of_int sid, J.Obj fields)

let fleet_report_to_json ?(virtual_only = false) fr =
  let f = fr.fleet in
  J.Obj
    [
      ("config", fr.fleet_config_json);
      ("router", Router.to_json f.Runtime.fleet_router);
      ( "metrics",
        Metrics.to_json ~include_wall:(not virtual_only)
          f.Runtime.fleet_metrics );
      ( "shards",
        J.Obj
          (List.map (shard_to_json ~virtual_only) f.Runtime.shard_results) );
      ("compiles", J.Num (float_of_int f.Runtime.fleet_compiles));
      ("hydrations", J.Num (float_of_int f.Runtime.fleet_hydrations));
      ( "foreign_hydrations",
        J.Num (float_of_int f.Runtime.fleet_foreign_hydrations) );
      ( "per_model",
        J.Obj
          (List.map
             (fun (name, n) -> (name, J.Num (float_of_int n)))
             fr.fleet_per_model) );
      ( "equivalence_failures",
        J.Num (float_of_int f.Runtime.fleet_equivalence_failures) );
      ("equivalent", J.Bool (f.Runtime.fleet_equivalence_failures = 0));
    ]
