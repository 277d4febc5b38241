(* The serving runtime: one shard's engine (admission, batching,
   scheduling, execution; private to this module) and the routed fleet
   that runs one engine per shard. *)

type request = {
  id : int;
  model : string;
  row : float array;
  arrival_us : float;
}

type mode = Virtual | Wall | Dual

let mode_to_string = function
  | Virtual -> "virtual"
  | Wall -> "wall"
  | Dual -> "dual"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "virtual" -> Ok Virtual
  | "wall" -> Ok Wall
  | "dual" -> Ok Dual
  | s ->
    Error
      (Printf.sprintf
         "unknown execution mode %S (expected virtual, wall or dual)" s)

type config = {
  queue_capacity : int;
  batch_max : int;
  deadline_us : float;
  workers : int;
  dispatch_overhead_us : float;
  scheduling : Scheduler.policy;
  slo_us : (string * float) list;
  default_slo_us : float option;
  shed_lo : float;
  shed_hi : float;
  pending_cap : int;
  precision : Tb_core.Treebeard.precision;
}

let default_config =
  {
    queue_capacity = 1024;
    batch_max = 32;
    deadline_us = 500.0;
    workers = 2;
    dispatch_overhead_us = 20.0;
    scheduling = Scheduler.Fifo;
    slo_us = [];
    default_slo_us = None;
    (* An occupancy threshold above 1.0 can never trigger: graded
       shedding is off unless asked for. *)
    shed_lo = 2.0;
    shed_hi = 2.0;
    pending_cap = max_int;
    precision = `Float;
  }

type batch_exec = {
  batch_id : int;
  worker : int;
  cause : Batcher.cause;
  compiled : Registry.compiled;
  tier : Registry.provenance;
  requests : request array;
  formed_us : float;
  start_us : float;
  finish_us : float;
  mutable wall_predict_us : float;
}

type result = {
  outputs : float array option array;
  batches : batch_exec list;
  rejects : request list;
  metrics : Metrics.t;
  queue_stats : Rqueue.stats;
  cache_stats : Policy.stats;
  compile_count : int;
  hydration_count : int;
  foreign_hydration_count : int;
  equivalence_failures : int;
  drift : Tb_analysis.Serve_check.model_drift list;
}

let validate_config c =
  if c.queue_capacity < 1 then invalid_arg "Runtime: queue_capacity < 1";
  if c.batch_max < 1 then invalid_arg "Runtime: batch_max < 1";
  if not (c.deadline_us > 0.0) then invalid_arg "Runtime: deadline_us <= 0";
  if c.workers < 1 then invalid_arg "Runtime: workers < 1";
  if c.dispatch_overhead_us < 0.0 then
    invalid_arg "Runtime: dispatch_overhead_us < 0";
  if c.pending_cap < 1 then invalid_arg "Runtime: pending_cap < 1";
  if c.shed_hi < c.shed_lo then invalid_arg "Runtime: shed_hi < shed_lo";
  if not (c.shed_lo >= 0.0) then invalid_arg "Runtime: shed_lo < 0";
  List.iter
    (fun (m, b) ->
      if not (b > 0.0 && Float.is_finite b) then
        invalid_arg (Printf.sprintf "Runtime: slo_us for %S not positive" m))
    c.slo_us;
  match c.default_slo_us with
  | Some b when not (b > 0.0 && Float.is_finite b) ->
    invalid_arg "Runtime: default_slo_us not positive"
  | Some _ | None -> ()

let slo_of cfg model =
  match List.assoc_opt model cfg.slo_us with
  | Some b -> Some b
  | None -> cfg.default_slo_us

(* The graded-shed ladder's latency classes: every distinct budget a
   model can carry, loosest first. Models without a budget sit in an
   implicit infinite-budget class — the least valuable work, shed
   first. *)
let shed_classes cfg =
  let default = Option.value ~default:Float.infinity cfg.default_slo_us in
  List.map snd cfg.slo_us @ [ default ]
  |> List.sort_uniq (fun a b -> compare b a)
  |> Array.of_list

type state = {
  cfg : config;
  registry : Registry.t;
  schedule : Tb_hir.Schedule.t;
  rq : request Rqueue.t;
  batcher : request Batcher.t;
  (* Formed-but-undispatched batches; the scheduler decides which one the
     next free worker takes (FIFO or EDF). *)
  pool : request Batcher.batch Scheduler.t;
  classes : float array;  (* shed-ladder budgets, loosest first *)
  busy_until : float array;  (* per worker *)
  (* Dispatched batches whose virtual start hasn't passed yet: (start,
     size), FIFO. Dispatches happen in event-time order and each start is
     its event's time (or later on the same worker), so starts are
     non-decreasing and retiring the head suffices. *)
  inflight : (float * int) Queue.t;
  metrics : Metrics.t;
  mutable batch_seq : int;
  mutable batches_rev : batch_exec list;
  mutable rejects_rev : request list;
  (* Last compiled entry per model, kept out of the eviction cache so the
     post-run equivalence check doesn't perturb cache statistics. *)
  by_model : (string, Registry.compiled) Hashtbl.t;
}

(* Retire queue slots of batches that have started by [now]: those
   requests are on a worker, not in the bounded admission window. *)
let retire_started st ~now =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt st.inflight with
    | Some (start, size) when start <= now ->
      ignore (Queue.pop st.inflight);
      Rqueue.drop_n st.rq size
    | _ -> continue := false
  done

let earliest_free st =
  let w = ref 0 in
  for i = 1 to Array.length st.busy_until - 1 do
    if st.busy_until.(i) < st.busy_until.(!w) then w := i
  done;
  !w

let dispatch st ~worker (b : request Batcher.batch) =
  let compiled, tier =
    Registry.compiled ~precision:st.cfg.precision st.registry
      ~model:b.Batcher.model ~schedule:st.schedule
  in
  Hashtbl.replace st.by_model b.Batcher.model compiled;
  let w = worker in
  let size = Array.length b.Batcher.requests in
  let start = Float.max b.Batcher.formed_us st.busy_until.(w) in
  (* Each tier's modeled cost on the virtual clock: a memory hit is free,
     a disk hydration pays the (cheap) decode+instantiate model, a fresh
     compile pays the full pipeline model. All three are deterministic. *)
  let acquire_us =
    match tier with
    | `Hit -> 0.0
    | `Disk -> compiled.Registry.hydrate_us
    | `Compile -> compiled.Registry.compile_us
  in
  let service =
    st.cfg.dispatch_overhead_us
    +. acquire_us
    +. (float_of_int size *. compiled.Registry.us_per_row)
  in
  let finish = start +. service in
  st.busy_until.(w) <- finish;
  Queue.push (start, size) st.inflight;
  Metrics.record_batch st.metrics ~size ~cause:b.Batcher.cause;
  Metrics.record_tier st.metrics tier;
  let slo =
    Option.map (fun b -> (compiled.Registry.model, b)) (slo_of st.cfg b.Batcher.model)
  in
  Array.iteri
    (fun i _ ->
      Metrics.record_completion ?slo st.metrics
        ~arrival_us:b.Batcher.arrivals_us.(i) ~start_us:start ~finish_us:finish)
    b.Batcher.requests;
  st.batch_seq <- st.batch_seq + 1;
  st.batches_rev <-
    {
      batch_id = st.batch_seq - 1;
      worker = w;
      cause = b.Batcher.cause;
      compiled;
      tier;
      requests = b.Batcher.requests;
      formed_us = b.Batcher.formed_us;
      start_us = start;
      finish_us = finish;
      wall_predict_us = 0.0;
    }
    :: st.batches_rev

(* ------------------------------------------------------------------ *)
(* Phase 1: virtual-time scheduling                                    *)

(* A batch's absolute deadline: its oldest request's arrival plus the
   model's SLO budget (infinite without one — such batches sort last
   under EDF, ties broken by formation order). *)
let batch_deadline st (b : request Batcher.batch) =
  match slo_of st.cfg b.Batcher.model with
  | None -> Float.infinity
  | Some budget -> b.Batcher.arrivals_us.(0) +. budget

(* Hand pool work to every worker idle at [now]; each dispatch starts at
   max(formation, the worker's free time) <= now, so event order equals
   start order. With FIFO scheduling this reproduces the pre-pool greedy
   assignment exactly: batches leave in formation order, each to the
   earliest-free worker. *)
let pump st ~now =
  let continue = ref true in
  while !continue do
    if Scheduler.is_empty st.pool then continue := false
    else begin
      let w = earliest_free st in
      if st.busy_until.(w) <= now then
        match Scheduler.pop st.pool with
        | Some b -> dispatch st ~worker:w b
        | None -> continue := false
      else continue := false
    end
  done

let shed_batch st (b : request Batcher.batch) =
  let n = Array.length b.Batcher.requests in
  (* The victims' admission-window slots free up immediately ([drop_n]
     retires by count; the batcher already holds the identities). *)
  Rqueue.drop_n st.rq n;
  Metrics.record_shed st.metrics ~n `Backlog;
  Array.iter
    (fun r ->
      Metrics.record_reject st.metrics;
      st.rejects_rev <- r :: st.rejects_rev)
    b.Batcher.requests

let enqueue st ~now (b : request Batcher.batch) =
  Scheduler.push st.pool ~deadline_us:(batch_deadline st b) b;
  if Scheduler.length st.pool > st.cfg.pending_cap then begin
    (* Backlog overflow sheds the lowest-priority pending work — the
       latest deadline under EDF, the newest batch under FIFO. *)
    match Scheduler.shed_last st.pool with
    | Some victim -> shed_batch st victim
    | None -> ()
  end;
  pump st ~now

(* Process every internal event up to [now] in time order: batcher
   deadlines form batches into the pool; worker frees drain the pool.
   Ties prefer the worker-free event — the formed batch is already
   pending either way, and a deadline firing at the same instant joins
   the pool before the next pump iteration looks. *)
let rec catch_up st ~now =
  let t_deadline =
    Option.value ~default:Float.infinity (Batcher.next_deadline st.batcher)
  in
  let t_free =
    if Scheduler.is_empty st.pool then Float.infinity
    else st.busy_until.(earliest_free st)
  in
  let t = Float.min t_deadline t_free in
  if t <= now && t < Float.infinity then begin
    if t_free <= t_deadline then pump st ~now:t
    else List.iter (enqueue st ~now:t) (Batcher.expire st.batcher ~now:t);
    catch_up st ~now
  end

(* Occupancy-graded admission shedding. The ladder's classes are the
   distinct SLO budgets, loosest first; as the admission window fills
   from [shed_lo] toward [shed_hi], progressively more of the loosest
   classes are turned away — the tightest class is only ever rejected by
   the hard capacity bound. *)
let shed_at_admission st model =
  let c = Array.length st.classes in
  if c < 2 then false
  else begin
    let occ =
      float_of_int (Rqueue.length st.rq) /. float_of_int st.cfg.queue_capacity
    in
    let frac =
      if occ <= st.cfg.shed_lo then 0.0
      else if occ >= st.cfg.shed_hi then 1.0
      else (occ -. st.cfg.shed_lo) /. (st.cfg.shed_hi -. st.cfg.shed_lo)
    in
    let k = int_of_float (Float.ceil (frac *. float_of_int (c - 1))) in
    k >= 1
    &&
    let budget =
      Option.value ~default:Float.infinity (slo_of st.cfg model)
    in
    budget >= st.classes.(k - 1)
  end

let schedule_trace st requests =
  Array.iter
    (fun req ->
      let now = req.arrival_us in
      (* Deadlines that elapsed and workers that freed before this
         arrival fire first. *)
      catch_up st ~now;
      retire_started st ~now;
      Metrics.record_arrival st.metrics ~depth:(Rqueue.length st.rq);
      if shed_at_admission st req.model then begin
        Metrics.record_reject st.metrics;
        Metrics.record_shed st.metrics ~n:1 `Admission;
        st.rejects_rev <- req :: st.rejects_rev
      end
      else if Rqueue.try_push st.rq req then begin
        Metrics.record_admit st.metrics;
        match
          Batcher.add st.batcher ~model:req.model ~arrival_us:now req
        with
        | Some b -> enqueue st ~now b
        | None -> ()
      end
      else begin
        Metrics.record_reject st.metrics;
        st.rejects_rev <- req :: st.rejects_rev
      end)
    requests;
  (* The trace is over but the server keeps running: every remaining
     group fires at its own deadline, every pending batch at its
     worker's free time. *)
  catch_up st ~now:Float.infinity;
  retire_started st ~now:Float.infinity

(* ------------------------------------------------------------------ *)
(* Phase 2: parallel execution on domains                              *)

let execute ~timed cfg batches outputs =
  let by_worker = Array.make cfg.workers [] in
  List.iter
    (fun b -> by_worker.(b.worker) <- b :: by_worker.(b.worker))
    (List.rev batches);
  let run_worker assigned () =
    List.iter
      (fun b ->
        let rows = Array.map (fun r -> r.row) b.requests in
        let outs =
          if timed then begin
            (* Each batch belongs to exactly one worker, so writing its
               wall measurement from that worker's domain is race-free;
               the joins below publish it to the replay. *)
            let t0 = Tb_util.Timer.now () in
            let outs = b.compiled.Registry.predict rows in
            b.wall_predict_us <- (Tb_util.Timer.now () -. t0) *. 1e6;
            outs
          end
          else b.compiled.Registry.predict rows
        in
        Array.iteri
          (fun i r -> outputs.(r.id) <- Some outs.(i))
          b.requests)
      (List.rev assigned)
  in
  let domains =
    Array.to_list by_worker
    |> List.filter_map (fun assigned ->
           if assigned = [] then None
           else Some (Domain.spawn (run_worker assigned)))
  in
  List.iter Domain.join domains

(* ------------------------------------------------------------------ *)
(* Wall timeline + drift (wall/dual modes)                             *)

(* Replay the virtual schedule's decisions — batch composition, worker
   assignment, formation times — substituting measured service durations
   for modeled ones. Queue wait on this clock still starts at the trace's
   (virtual) arrival: the trace defines the workload, execution defines
   the speed. *)
let wall_replay cfg batches metrics =
  let busy = Array.make cfg.workers 0.0 in
  List.iter
    (fun b ->
      let start = Float.max b.formed_us busy.(b.worker) in
      (* wall_compile_us already holds the tier-appropriate measurement:
         lowering+packing+instantiation for a compile, read+decode+
         instantiation for a disk hydration. *)
      let acquire_us =
        match b.tier with
        | `Hit -> 0.0
        | `Disk | `Compile -> b.compiled.Registry.wall_compile_us
      in
      let service = cfg.dispatch_overhead_us +. acquire_us +. b.wall_predict_us in
      let finish = start +. service in
      busy.(b.worker) <- finish;
      Array.iter
        (fun r ->
          Metrics.record_wall_completion metrics ~arrival_us:r.arrival_us
            ~start_us:start ~finish_us:finish)
        b.requests)
    batches

let drift_of_batches registry batches =
  let module S = Tb_analysis.Serve_check in
  let samples : (string, S.sample list) Hashtbl.t = Hashtbl.create 8 in
  let compiles : (string, S.compile_sample list) Hashtbl.t = Hashtbl.create 8 in
  let push tbl k v =
    Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun b ->
      let size = Array.length b.requests in
      let c = b.compiled in
      push samples c.Registry.model
        {
          S.rows = size;
          virtual_us = float_of_int size *. c.Registry.us_per_row;
          wall_us = b.wall_predict_us;
        };
      (* Only true compiles feed V002: a disk hydration's wall cost is a
         decode, not a compile, and would poison the compile-drift fit. *)
      if b.tier = `Compile then
        push compiles c.Registry.model
          {
            S.modeled_us = c.Registry.compile_us;
            wall_compile_us = c.Registry.wall_compile_us;
          })
    batches;
  List.filter_map
    (fun model ->
      match Hashtbl.find_opt samples model with
      | None -> None
      | Some ss ->
        let cs = Option.value ~default:[] (Hashtbl.find_opt compiles model) in
        Some (S.drift_of_samples ~model (List.rev ss) (List.rev cs)))
    (Registry.models registry)

(* ------------------------------------------------------------------ *)
(* Equivalence: serving must not change results                        *)

let check_equivalence st requests outputs =
  let failures = ref 0 in
  List.iter
    (fun model ->
      match Hashtbl.find_opt st.by_model model with
      | None -> ()  (* no batch of this model was dispatched *)
      | Some compiled ->
        let served =
          Array.to_list requests
          |> List.filter (fun r -> r.model = model && outputs.(r.id) <> None)
        in
        if served <> [] then begin
          let rows = Array.of_list (List.map (fun r -> r.row) served) in
          let direct = compiled.Registry.predict rows in
          List.iteri
            (fun i r ->
              match outputs.(r.id) with
              | Some got
                when Array.length got = Array.length direct.(i)
                     && Array.for_all2 Float.equal got direct.(i) ->
                ()
              | _ -> incr failures)
            served
        end)
    (Registry.models st.registry);
  !failures

(* ------------------------------------------------------------------ *)
(* One shard: its slice of the trace through both phases               *)

(* [outputs] is the fleet's shared array, indexed by request id; a shard
   writes only its own requests' slots. Counters in the result snapshot
   the registry's cumulative totals. *)
let serve_shard ~mode ~config ~schedule registry ~outputs requests =
  let requests = Array.copy requests in
  Array.stable_sort (fun a b -> compare a.arrival_us b.arrival_us) requests;
  let st =
    {
      cfg = config;
      registry;
      schedule;
      rq = Rqueue.create ~capacity:config.queue_capacity;
      batcher =
        Batcher.create
          ?deadline_us_for:
            (match config.scheduling with
            | Scheduler.Fifo -> None
            | Scheduler.Edf ->
              (* Deadline-aware formation: a tight-budget model stops
                 batching at half its budget, leaving the other half for
                 queueing and service; loose models batch as deep as the
                 uniform deadline allows. *)
              Some
                (fun model ->
                  match slo_of config model with
                  | None -> config.deadline_us
                  | Some b -> Float.min config.deadline_us (b /. 2.0)))
          {
            Batcher.batch_max = config.batch_max;
            deadline_us = config.deadline_us;
          };
      pool = Scheduler.create config.scheduling;
      classes = shed_classes config;
      busy_until = Array.make config.workers 0.0;
      inflight = Queue.create ();
      metrics = Metrics.create ();
      batch_seq = 0;
      batches_rev = [];
      rejects_rev = [];
      by_model = Hashtbl.create 8;
    }
  in
  schedule_trace st requests;
  (* Snapshot cache statistics before the equivalence pass so the check
     itself can't distort the reported hit ratio. *)
  let cache_stats = Registry.cache_stats registry in
  let compile_count = Registry.compile_count registry in
  let hydration_count = Registry.hydration_count registry in
  let foreign_hydration_count = Registry.foreign_hydration_count registry in
  let batches = List.rev st.batches_rev in
  let timed = match mode with Virtual -> false | Wall | Dual -> true in
  execute ~timed config batches outputs;
  if timed then wall_replay config batches st.metrics;
  let drift =
    match mode with
    | Virtual | Wall -> []
    | Dual -> drift_of_batches registry batches
  in
  let equivalence_failures = check_equivalence st requests outputs in
  {
    outputs;
    batches;
    rejects = List.rev st.rejects_rev;
    metrics = st.metrics;
    queue_stats = Rqueue.stats st.rq;
    cache_stats;
    compile_count;
    hydration_count;
    foreign_hydration_count;
    equivalence_failures;
    drift;
  }

(* ------------------------------------------------------------------ *)
(* The fleet: routed admission over per-shard engines                  *)

type fleet_result = {
  fleet_outputs : float array option array;
  shard_results : (int * result) list;
  fleet_metrics : Metrics.t;
  fleet_rejects : request list;
  fleet_router : Router.t;
  fleet_compiles : int;
  fleet_hydrations : int;
  fleet_foreign_hydrations : int;
  fleet_equivalence_failures : int;
}

let validate_ids requests =
  let n = Array.length requests in
  let seen = Array.make (max n 1) false in
  Array.iter
    (fun r ->
      if r.id < 0 || r.id >= n || seen.(r.id) then
        invalid_arg "Runtime.run_fleet: request ids must be exactly 0..n-1";
      seen.(r.id) <- true)
    requests

let run_fleet ?(config = default_config) ?(mode = Virtual) ~schedule ~router
    registries requests =
  validate_config config;
  validate_ids requests;
  let registries =
    List.sort (fun (a, _) (b, _) -> compare a b) registries
  in
  if List.map fst registries <> Router.shard_ids router then
    invalid_arg
      "Runtime.run_fleet: registries must cover the router's live shards";
  let n = Array.length requests in
  let outputs = Array.make n None in
  (* Routed admission: the router partitions the trace by model, so a
     model's requests all land on one shard (its artifacts stay hot
     there) and every process agrees on the split. Partitioning preserves
     arrival order within a shard. *)
  let parts = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      let sid = Router.route router r.model in
      Hashtbl.replace parts sid
        (r :: Option.value ~default:[] (Hashtbl.find_opt parts sid)))
    requests;
  (* Shards run one after another (each one's virtual phase is already
     sequential, and its execution phase joins its domains), in ascending
     id order — the fleet is deterministic end to end. *)
  let shard_results =
    List.map
      (fun (sid, reg) ->
        let part =
          Option.value ~default:[] (Hashtbl.find_opt parts sid)
          |> List.rev |> Array.of_list
        in
        (sid, serve_shard ~mode ~config ~schedule reg ~outputs part))
      registries
  in
  let results = List.map snd shard_results in
  let rejects =
    List.concat_map (fun r -> r.rejects) results
    |> List.stable_sort (fun a b -> compare (a.arrival_us, a.id) (b.arrival_us, b.id))
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  {
    fleet_outputs = outputs;
    shard_results;
    fleet_metrics = Metrics.merge (List.map (fun (r : result) -> r.metrics) results);
    fleet_rejects = rejects;
    fleet_router = router;
    fleet_compiles = sum (fun r -> r.compile_count);
    fleet_hydrations = sum (fun r -> r.hydration_count);
    fleet_foreign_hydrations = sum (fun r -> r.foreign_hydration_count);
    fleet_equivalence_failures = sum (fun r -> r.equivalence_failures);
  }
