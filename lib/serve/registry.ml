module Schedule = Tb_hir.Schedule
module Forest = Tb_model.Forest
module Lower = Tb_lir.Lower
module Layout = Tb_lir.Layout
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Config = Tb_cpu.Config
module Perf = Tb_core.Perf
module Passman = Tb_core.Passman
module Treebeard = Tb_core.Treebeard
module D = Tb_diag.Diagnostic
module Json = Tb_util.Json
module Prng = Tb_util.Prng
module Timer = Tb_util.Timer

type provenance = [ `Hit | `Disk | `Compile ]

let provenance_string = function
  | `Hit -> "hit"
  | `Disk -> "disk"
  | `Compile -> "compile"

type compiled = {
  model : string;
  schedule : Schedule.t;
  tier : Treebeard.tier;
  artifact : Pack.t;
  predict : float array array -> float array array;
  mutable us_per_row : float;
  mutable compile_us : float;
  hydrate_us : float;
  wall_compile_us : float;
  wall_instantiate_us : float;
}

type source = {
  forest : Forest.t;
  profiles : Tb_model.Model_stats.tree_profile array option;
  sample_rows : float array array;
}

type t = {
  target : Config.t;
  sources : (string, source) Hashtbl.t;
  mutable order : string list;  (* reversed registration order *)
  cache : (string, compiled) Policy.t;
  store : Artifact.t option;
  (* Disk-store budget: after every save, evict oldest artifacts beyond
     this many bytes. None = unbounded. *)
  cache_max_bytes : int option;
  mutable compiles : int;
  mutable hydrations : int;
  (* Keys this instance itself compiled: a hydration of any other key is
     {e foreign} — evidence an artifact shipped in from another shard or
     survived from a previous process. *)
  compiled_keys : (string, unit) Hashtbl.t;
  mutable foreign_hydrations : int;
  mutable gc_removed : int;
  mutable clamps : (string * string) list;
  mutable artifact_errors : (string * string) list;
  (* Per-(model, precision request) memo of the certification gate: the
     certificate does not depend on the schedule, so one resolution serves
     every schedule of the model. The quantized stage pair does, so it
     runs inside every compile; a lowering it refuted is memoized under
     the (model, request, schedule) key as a float resolution, so a later
     request hits the float entry instead of compiling and refuting
     again. *)
  resolutions : (string, Treebeard.resolution) Hashtbl.t;
  mutable precision_fallbacks : (string * string) list;
  (* Calibration state: multiplicative corrections learned from measured
     dual-clock runs, applied to every subsequent compile's modeled costs.
     1.0 = uncalibrated. *)
  service_scales : (string, float) Hashtbl.t;
  mutable compile_scale : float;
}

let create ?(target = Config.intel_rocket_lake) ?(policy = Policy.Lru)
    ?(capacity = 8) ?cache_dir ?cache_max_bytes () =
  (match cache_max_bytes with
  | Some b when b < 0 -> invalid_arg "Registry.create: cache_max_bytes < 0"
  | Some _ | None -> ());
  {
    target;
    sources = Hashtbl.create 8;
    order = [];
    cache = Policy.create ~capacity policy;
    store = Option.map (fun dir -> Artifact.create ~dir) cache_dir;
    cache_max_bytes;
    compiles = 0;
    hydrations = 0;
    compiled_keys = Hashtbl.create 8;
    foreign_hydrations = 0;
    gc_removed = 0;
    clamps = [];
    artifact_errors = [];
    resolutions = Hashtbl.create 8;
    precision_fallbacks = [];
    service_scales = Hashtbl.create 8;
    compile_scale = 1.0;
  }

let default_sample_rows name forest =
  let rng = Prng.create (Hashtbl.hash name land max_int) in
  Array.init 48 (fun _ ->
      Array.init forest.Forest.num_features (fun _ -> Prng.gaussian rng))

let register t ~name ?profiles ?sample_rows forest =
  let sample_rows =
    match sample_rows with
    | Some rows when Array.length rows > 0 -> rows
    | _ -> default_sample_rows name forest
  in
  if not (Hashtbl.mem t.sources name) then t.order <- name :: t.order;
  Hashtbl.replace t.sources name { forest; profiles; sample_rows }

let models t = List.rev t.order

let forest t name = (Hashtbl.find t.sources name).forest

(* The cache key must distinguish every schedule field, so use the exact
   JSON round-trip form rather than the lossy to_string. The resolved
   precision tier is a key component too: it selects a different artifact
   (quantized buffers, quant block), so tiers must never share an entry —
   and the disk store's filenames inherit the separation. *)
let key t name tier schedule_json =
  Printf.sprintf "%s|%s|%s|%s" name t.target.Config.name
    (Treebeard.tier_to_string tier)
    schedule_json

(* Modeled compile cost: lowering walks every node once and layout size
   tracks slot count, so charge a fixed pipeline overhead plus a per-slot
   term. Deterministic by construction — the simulator's virtual clock
   must not depend on host wall time. *)
let modeled_compile_us_of_slots slots =
  150.0 +. (0.05 *. float_of_int slots)

(* Modeled disk-hydration cost: a bounded Bytes decode plus closure
   instantiation, linear in layout size with a far smaller constant and
   slope than a compile — deterministic for the same reason as above. *)
let modeled_hydrate_us_of_slots slots =
  10.0 +. (0.002 *. float_of_int slots)

let service_scale t name =
  match Hashtbl.find_opt t.service_scales name with
  | Some s -> s
  | None -> 1.0

let artifact_error t name what =
  t.artifact_errors <- (name, what) :: t.artifact_errors

(* ------------------------------------------------------------------ *)
(* Precision resolution: certify once per (model, request)             *)

let tier_of_pack (pk : Pack.t) =
  match pk.Pack.layout.Layout.quant with
  | None -> `Float
  | Some s -> if s.Layout.qbits = 8 then `Int8 else `Int16

let resolution_memo_key name precision =
  match precision with
  | `Float -> name ^ "#float"
  | `Quantized q ->
    Printf.sprintf "%s#%s#%h" name
      (Treebeard.precision_to_string precision)
      q.Treebeard.tolerance

let record_fallback t name diags =
  t.precision_fallbacks <-
    (name, String.concat "; " (List.map D.to_string diags))
    :: t.precision_fallbacks

let resolve t name src mk precision =
  match Hashtbl.find_opt t.resolutions mk with
  | Some r -> r
  | None ->
    let r = Treebeard.resolve_precision ~precision src.forest in
    (match r with
    | Treebeard.Float_tier (_ :: _ as diags) -> record_fallback t name diags
    | Treebeard.Float_tier [] | Treebeard.Quant_tier _ -> ());
    Hashtbl.replace t.resolutions mk r;
    r

let wall_us (report : Passman.report) keep =
  List.fold_left
    (fun acc (s : Passman.stage_report) ->
      if keep s.Passman.stage then acc +. (s.Passman.wall_s *. 1e6) else acc)
    0.0 report.Passman.stages

let compile t name resolution schedule =
  let src = Hashtbl.find t.sources name in
  let c, report =
    Passman.run ~mode:No_verify ?profiles:src.profiles ~backend:`Single_thread
      ~target:t.target resolution src.forest schedule
    |> Result.get_ok
  in
  (* Service-time model: simulate on the rows the predictor actually
     walks — the quantized path's integer rows for a quantized entry. It
     is a serving-layer concern, so neither wall time below includes it. *)
  let lowered = c.Treebeard.lowered in
  let sim_rows =
    match lowered.Lower.layout.Layout.quant with
    | None -> src.sample_rows
    | Some spec -> Array.map (Layout.quantize_row spec) src.sample_rows
  in
  let perf = Perf.simulate ~target:t.target lowered sim_rows in
  let packed = c.Treebeard.artifact in
  let artifact =
    {
      packed with
      Pack.meta =
        {
          packed.Pack.meta with
          Pack.model = name;
          us_per_row = perf.Perf.time_per_row_us;
        };
    }
  in
  let slots = Layout.num_slots lowered.Lower.layout in
  t.compiles <- t.compiles + 1;
  ( {
    model = name;
    schedule;
    tier = c.Treebeard.tier;
    artifact;
    predict = c.Treebeard.predict;
    us_per_row = perf.Perf.time_per_row_us *. service_scale t name;
    compile_us = modeled_compile_us_of_slots slots *. t.compile_scale;
    hydrate_us = modeled_hydrate_us_of_slots slots;
    wall_compile_us = wall_us report (fun _ -> true);
    wall_instantiate_us = wall_us report (String.equal "instantiate");
  },
    c.Treebeard.precision_diags )

(* Disk tier: read + decode + verify the stored artifact, instantiate the
   predictor. Service and compile cost models are rebuilt from the pack's
   own (uncalibrated) metadata, so hydration touches neither the source
   forest nor the simulator. *)
let hydrate t name tier schedule k =
  match t.store with
  | None -> None
  | Some store -> (
    let t0 = Timer.now () in
    match
      Artifact.load store ~key:k ~model:name ~target:t.target.Config.name
        ~schedule
    with
    | Error Artifact.Absent -> None
    | Error e ->
      artifact_error t name (Artifact.load_error_to_string e);
      None
    | Ok artifact when tier_of_pack artifact <> tier ->
      (* The key embeds the tier, so this only fires on a store someone
         mislabeled — treat like any other metadata mismatch. *)
      artifact_error t name
        (Printf.sprintf "mismatch: artifact precision tier %s, expected %s"
           (Treebeard.tier_to_string (tier_of_pack artifact))
           (Treebeard.tier_to_string tier));
      None
    | Ok artifact ->
      let t1 = Timer.now () in
      let predict = Jit.instantiate_single_thread artifact in
      let t2 = Timer.now () in
      let slots = Layout.num_slots artifact.Pack.layout in
      t.hydrations <- t.hydrations + 1;
      if not (Hashtbl.mem t.compiled_keys k) then
        t.foreign_hydrations <- t.foreign_hydrations + 1;
      Some
        {
          model = name;
          schedule;
          tier;
          artifact;
          predict;
          us_per_row = artifact.Pack.meta.Pack.us_per_row *. service_scale t name;
          compile_us = modeled_compile_us_of_slots slots *. t.compile_scale;
          hydrate_us = modeled_hydrate_us_of_slots slots;
          wall_compile_us = (t2 -. t0) *. 1e6;
          wall_instantiate_us = (t2 -. t1) *. 1e6;
        })

let compiled ?(precision = `Float) t ~model ~schedule =
  let src =
    match Hashtbl.find_opt t.sources model with
    | Some src -> src
    | None -> raise Not_found
  in
  (* Normalize before keying, so schedules differing only in fields the
     compiled artifact cannot depend on — the (now irrelevant) thread
     count, tiling knobs at tile_size 1, alpha/beta under non-probability
     tilings, the pad limit without padding, a row-major interleave factor
     beyond the model's tree count — share one cache entry and one
     compile. *)
  let schedule, warning = Schedule.clamp_threads ~max_threads:1 schedule in
  let schedule =
    Schedule.canonicalize
      ~num_trees:(Array.length src.forest.Forest.trees)
      schedule
  in
  let schedule_json = Json.to_string (Schedule.to_json schedule) in
  let memo_key = resolution_memo_key model precision in
  let refuted_key = memo_key ^ "|" ^ schedule_json in
  let resolution =
    match Hashtbl.find_opt t.resolutions refuted_key with
    | Some r -> r
    | None -> resolve t model src memo_key precision
  in
  let tier = Passman.tier_of_resolution resolution in
  let k = key t model tier schedule_json in
  match Policy.find t.cache k with
  | Some c -> (c, `Hit)
  | None -> (
    (match warning with
    | Some w -> t.clamps <- (model, w) :: t.clamps
    | None -> ());
    match hydrate t model tier schedule k with
    | Some c ->
      ignore (Policy.put t.cache k c);
      (c, `Disk)
    | None ->
      let c, diags = compile t model resolution schedule in
      let k =
        if c.tier = tier then k
        else begin
          (* The quantized stage pair refuted this schedule's lowering: the
             entry is a float one, stored under the float key. *)
          record_fallback t model diags;
          Hashtbl.replace t.resolutions refuted_key (Float_tier diags);
          key t model c.tier schedule_json
        end
      in
      Hashtbl.replace t.compiled_keys k ();
      (match t.store with
      | None -> ()
      | Some store -> (
        (match Artifact.save store ~key:k ~model c.artifact with
        | Ok () -> ()
        | Error m -> artifact_error t model ("save: " ^ m));
        match t.cache_max_bytes with
        | None -> ()
        | Some max_bytes ->
          let r = Artifact.gc store ~max_bytes in
          t.gc_removed <- t.gc_removed + r.Artifact.removed));
      ignore (Policy.put t.cache k c);
      (c, `Compile))

(* ------------------------------------------------------------------ *)
(* Calibration: refit modeled costs from measured dual-clock runs      *)

type calibration = {
  service_scale : (string * float) list;
  compile_scale : float option;
}

let calibration_of_drift drifts =
  let module S = Tb_analysis.Serve_check in
  let service_scale =
    List.filter_map
      (fun (d : S.model_drift) ->
        if d.S.service_ratio > 0.0 && Float.is_finite d.S.service_ratio then
          Some (d.S.model, d.S.service_ratio)
        else None)
      drifts
  in
  (* One global compile scale: the compile pipeline is shared, and single
     models rarely see enough misses for a per-model fit. Weight each
     model's ratio by its miss count. *)
  let num, den =
    List.fold_left
      (fun (num, den) (d : S.model_drift) ->
        match d.S.compile_ratio with
        | Some r when r > 0.0 && Float.is_finite r ->
          (num +. (r *. float_of_int d.S.compiles), den + d.S.compiles)
        | Some _ | None -> (num, den))
      (0.0, 0) drifts
  in
  {
    service_scale;
    compile_scale = (if den > 0 then Some (num /. float_of_int den) else None);
  }

let calibrate t cal =
  List.iter
    (fun (model, s) ->
      if s > 0.0 && Float.is_finite s then
        Hashtbl.replace t.service_scales model (service_scale t model *. s))
    cal.service_scale;
  (match cal.compile_scale with
  | Some s when s > 0.0 && Float.is_finite s ->
    t.compile_scale <- t.compile_scale *. s
  | Some _ | None -> ());
  (* Rescale what's already compiled, in place, without touching the
     eviction policy's recency state or hit statistics. *)
  Policy.iter
    (fun _ c ->
      (match List.assoc_opt c.model cal.service_scale with
      | Some s when s > 0.0 && Float.is_finite s ->
        c.us_per_row <- c.us_per_row *. s
      | Some _ | None -> ());
      match cal.compile_scale with
      | Some s when s > 0.0 && Float.is_finite s ->
        c.compile_us <- c.compile_us *. s
      | Some _ | None -> ())
    t.cache

let calibration_to_json cal =
  Json.Obj
    [
      ( "service_scale",
        Json.Obj (List.map (fun (m, s) -> (m, Json.Num s)) cal.service_scale)
      );
      ( "compile_scale",
        match cal.compile_scale with
        | None -> Json.Null
        | Some s -> Json.Num s );
    ]

let cache_stats t = Policy.stats t.cache
let cache_policy t = Policy.kind_of t.cache
let cache_dir t = Option.map Artifact.dir t.store
let compile_count t = t.compiles
let hydration_count t = t.hydrations
let foreign_hydration_count t = t.foreign_hydrations
let gc_removed_count t = t.gc_removed
let clamp_warnings t = t.clamps
let artifact_errors t = t.artifact_errors
let precision_fallbacks t = t.precision_fallbacks
