(* What every workload receives and returns, and the helpers they share. *)

module Clock = Bench_harness.Clock
module Rr = Bench_harness.Rr
module Sample = Bench_harness.Sample
module Reference = Bench_harness.Reference
module Json = Tb_util.Json

type ctx = {
  seed : int;
  seconds : float;  (** measurement window *)
  trace : bool;
  models : Models.t;
  schedules_dir : string;  (** pinned [tuned-1t] schedules *)
  store_dir : string;  (** artifact stores cold-restart writes and reads *)
  serve_requests : int;  (** requests per serve-zipf trace *)
  extra_seconds : float;
      (** window of each traced-only extra measurement: the batch-size
          sweep, the quant stages *)
}

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** what failed, first few *)
  setup_s : float list;  (** at nominal machine speed *)
  op_p50_us : float;
  op_tail_us : float;
      (** p90, or with fewer than 100 samples the highest percentile
          with ten samples beyond it ({!Bench_harness.Sample.tail_rank}) *)
  layer : (string * float) list;  (** per-layer metrics, traced runs only *)
  speed : (string * float) list;
      (** machine-speed factor per phase ({!Bench_harness.Reference}) *)
  detail : (string * Json.t) list;  (** extra facts for the output file *)
  trace_extra : Json.t list;  (** extra Chrome trace events *)
}

(* Correctness failures: counted, and the first few kept verbatim. *)
type errors = { mutable first : string list; mutable count : int }

let errors () = { first = []; count = 0 }

let error errs msg =
  if errs.count < 20 then errs.first <- msg :: errs.first;
  errs.count <- errs.count + 1

let error_list errs = List.rev errs.first

(* Set-ups timed per run; [setup_s] is their median. *)
let setup_reps = 3

(* Run [build] [setup_reps] times from the same heap state and keep the
   last result. [reset] runs untimed before each. Each time is scaled
   to the nominal machine speed by a probe burst taken just before it;
   returns the scaled times and the median factor. *)
let timed_setup ?(reset = ignore) build =
  let times = ref [] and speeds = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    reset ();
    Gc.full_major ();
    let speed = Reference.burst () in
    let t0 = Clock.now_ns () in
    let v = build () in
    times := (Clock.since_us t0 /. 1e6 *. speed) :: !times;
    speeds := speed :: !speeds;
    last := Some v
  done;
  (Option.get !last, List.rev !times, Sample.median (Array.of_list !speeds))

let window_speed (r : Rr.result) = Sample.median r.Rr.speeds

(* Float outputs: the differential suite's tolerance. *)
let close a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= 1e-5 +. (1e-5 *. Float.abs y))
       a b

let bitwise a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let all_rows eq outs refs =
  Array.length outs = Array.length refs && Array.for_all2 eq outs refs

(* Allocation counters every workload reports: words the calling domain
   allocated inside timed operations, per operation and per predicted
   row, and the major collections during the window. *)
let gc_layer ~words ~ops ~rows ~major_collections =
  [
    ("gc.minor_words_per_op", words /. ops);
    ("gc.minor_words_per_row", words /. rows);
    ("gc.major_collections", float_of_int major_collections);
  ]

let cells_gc_layer (stats : Rr.stats array) =
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0.0 stats in
  gc_layer
    ~words:(sum (fun s -> s.Rr.minor_words))
    ~ops:(sum (fun s -> float_of_int s.Rr.ops))
    ~rows:(sum (fun s -> float_of_int (s.Rr.ops * s.Rr.cell.Rr.rows)))

(* Tracing overhead: traced over untraced median per cell, geomean over
   cells, minus one. *)
let overhead_share (stats : Rr.stats array) =
  let ratios =
    Array.to_list stats
    |> List.filter_map (fun s ->
           if Array.length s.Rr.traced_us = 0 || Array.length s.Rr.plain_us = 0
           then None
           else
             Some (Sample.median s.Rr.traced_us /. Sample.median s.Rr.plain_us))
  in
  [ ("trace.overhead_share", Sample.geomean ratios -. 1.0) ]

let cell_json (s : Rr.stats) =
  let summary xs =
    if Array.length xs = 0 then Json.Null
    else
      Json.Obj
        [
          ("n", Json.Num (float_of_int (Array.length xs)));
          ("p50_us", Json.Num (Sample.median xs));
          ("p99_us", Json.Num (Sample.p99 xs));
        ]
  in
  ( s.Rr.cell.Rr.name,
    Json.Obj
      [
        ("untraced", summary s.Rr.plain_us);
        ("traced", summary s.Rr.traced_us);
        ("failed", Json.Num (float_of_int s.Rr.failed));
      ] )

let totals (stats : Rr.stats array) =
  Array.fold_left
    (fun (a, f) s -> (a + s.Rr.ops, f + s.Rr.failed))
    (0, 0) stats

(* The outcome of a round-robin workload: [op_p50_us] and [op_tail_us]
   from its untraced samples ({!Sample.cells_p50_tail}). *)
let cells_outcome errs ~setup_s ~setup_speed ~layer (r : Rr.result) =
  let stats = r.Rr.cells in
  let attempted, failed = totals stats in
  let op_p50_us, op_tail_us, q =
    Sample.cells_p50_tail (Array.to_list (Array.map (fun s -> s.Rr.plain_us) stats))
  in
  {
    attempted;
    failed;
    errors = error_list errs;
    setup_s;
    op_p50_us;
    op_tail_us;
    layer;
    speed = [ ("setup", setup_speed); ("window", window_speed r) ];
    detail =
      [
        ("tail_quantile", Json.Num q);
        ("cells", Json.Obj (Array.to_list (Array.map cell_json stats)));
      ];
    trace_extra = [];
  }
