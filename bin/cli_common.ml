(* Shared Cmdliner terms for the treebeard subcommands, and the run loop
   the three census gates (lint, validate, quantcheck) share.

   The subcommands grew the same flag vocabulary independently
   (--model/--zoo selection, --strict exit-status policy, --grid sweeps,
   -o JSON report output, the schedule/target flags); this module is the
   single definition each subcommand composes from. *)

open Cmdliner
module Schedule = Tb_hir.Schedule
module Config = Tb_cpu.Config

(* Every JSON file the CLI reads (model, schedule, census baseline,
   XGBoost dump) goes through here. A file that cannot be read or parsed
   is a command-line error like a missing one: one line naming the file,
   exit status 124. *)
let read_input read path =
  try read path with
  | Tb_util.Json.Parse_error msg | Sys_error msg ->
    Printf.eprintf "treebeard: %s: %s\n" path msg;
    exit Cmd.Exit.cli_error

let read_model path = read_input Tb_model.Serialize.of_file path

let model_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "m"; "model" ] ~docv:"FILE" ~doc:"Serialized model (JSON).")

(* Subcommands that also accept --zoo make the model optional. *)
let model_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "m"; "model" ] ~docv:"FILE" ~doc:"Serialized model (JSON).")

let target_arg =
  let parse s =
    match Config.by_name s with
    | t -> Ok t
    | exception Not_found ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown target %s (try intel-rocket-lake or amd-ryzen7)" s))
  in
  let print fmt (t : Config.t) = Format.fprintf fmt "%s" t.Config.name in
  Arg.(
    value
    & opt (conv (parse, print)) Config.intel_rocket_lake
    & info [ "target" ] ~docv:"CPU" ~doc:"Cost-model target CPU.")

let zoo_flag ~doc = Arg.(value & flag & info [ "zoo" ] ~doc)
let grid_flag ~doc = Arg.(value & flag & info [ "grid" ] ~doc)
let strict_flag ~doc = Arg.(value & flag & info [ "strict" ] ~doc)

let bits_arg =
  let parse s =
    match Tb_analysis.Numeric.width_of_string s with
    | Ok w -> Ok w
    | Error e -> Error (`Msg e)
  in
  let print fmt w =
    Format.fprintf fmt "%s" (Tb_analysis.Numeric.width_to_string w)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tb_analysis.Numeric.I16
    & info [ "bits"; "width" ] ~docv:"WIDTH"
        ~doc:"Quantization width to certify: int8 or int16.")

let tolerance_arg =
  Arg.(
    value
    & opt float Tb_analysis.Numeric.default_tolerance
    & info [ "tolerance" ] ~docv:"EPS"
        ~doc:
          "Maximum acceptable proved per-class deviation of the \
           dequantized output against the float reference before an N003 \
           finding.")

let precision_arg =
  let parse s =
    match Tb_core.Treebeard.precision_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p =
    Format.fprintf fmt "%s" (Tb_core.Treebeard.precision_to_string p)
  in
  Arg.(
    value
    & opt (conv (parse, print)) `Float
    & info [ "precision" ] ~docv:"TIER"
        ~doc:
          "Precision tier to compile: float (default), int16 or int8. A \
           quantized tier certifies the model first (the quantcheck \
           analysis) and falls back to float — per model, with an N005 \
           diagnostic — when the certificate is refuted; a model that \
           certifies clean serves the integer fast path, bitwise-equal \
           to the certified integer evaluator.")

(* --precision int16 --tolerance 0.5: the tolerance flag (shared with
   quantcheck) overrides the quantized request's N003 budget. *)
let with_tolerance tolerance = function
  | `Float -> `Float
  | `Quantized q -> `Quantized { q with Tb_core.Treebeard.tolerance }

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "On-disk packed-artifact store for the predictor registry \
           (created if absent). A later run pointed at the same directory \
           hydrates compiled predictors from disk instead of recompiling \
           — warm restarts report disk hits, not compiles.")

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Size cap for the on-disk artifact store: after every artifact \
           write, oldest artifacts (by mtime) are evicted until the store \
           fits. Requires --cache-dir; unbounded by default.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Serve the trace across N shards, each with its own registry \
           and worker pool, behind routed admission (see --routing). \
           Shards share --cache-dir, so a compile on one shard ships its \
           artifact to the others.")

let routing_arg =
  let parse s =
    match Tb_serve.Router.policy_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p =
    Format.fprintf fmt "%s" (Tb_serve.Router.policy_to_string p)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tb_serve.Router.Affinity
    & info [ "routing" ] ~docv:"POLICY"
        ~doc:
          "Admission routing across shards: hash (modulo — balanced but \
           unstable under resharding) or affinity (consistent hashing — \
           a reshard moves only the keys it must).")

let scheduling_arg =
  let parse s =
    match Tb_serve.Scheduler.policy_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p =
    Format.fprintf fmt "%s" (Tb_serve.Scheduler.policy_to_string p)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tb_serve.Scheduler.Fifo
    & info [ "scheduling" ] ~docv:"POLICY"
        ~doc:
          "Pending-batch dispatch order: fifo (formation order) or edf \
           (earliest deadline first, driven by --slo-us budgets).")

let popularity_arg =
  let parse s =
    match Tb_serve.Simulate.popularity_of_string s with
    | Ok p -> Ok p
    | Error e -> Error (`Msg e)
  in
  let print fmt p =
    Format.fprintf fmt "%s" (Tb_serve.Simulate.popularity_to_string p)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Tb_serve.Simulate.Uniform
    & info [ "popularity" ] ~docv:"DIST"
        ~doc:
          "Model-popularity distribution of the trace: uniform or \
           zipf[:theta] (first --zoo model hottest).")

(* --slo-us "m1=4000,m2=1500" per-model budgets; a bare number is the
   default budget for every unlisted model. *)
let slo_arg =
  let parse s =
    let parts =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    let rec go pairs default = function
      | [] -> Ok (List.rev pairs, default)
      | p :: rest -> (
        match String.index_opt p '=' with
        | Some i -> (
          let name = String.trim (String.sub p 0 i) in
          let v = String.sub p (i + 1) (String.length p - i - 1) in
          match float_of_string_opt (String.trim v) with
          | Some b when b > 0.0 -> go ((name, b) :: pairs) default rest
          | _ -> Error (`Msg (Printf.sprintf "invalid SLO budget in %S" p)))
        | None -> (
          match float_of_string_opt p with
          | Some b when b > 0.0 -> go pairs (Some b) rest
          | _ -> Error (`Msg (Printf.sprintf "invalid SLO budget %S" p))))
    in
    go [] None parts
  in
  let print fmt (pairs, default) =
    let ps = List.map (fun (m, b) -> Printf.sprintf "%s=%g" m b) pairs in
    let ps =
      match default with
      | None -> ps
      | Some b -> ps @ [ Printf.sprintf "%g" b ]
    in
    Format.fprintf fmt "%s" (String.concat "," ps)
  in
  Arg.(
    value
    & opt (conv (parse, print)) ([], None)
    & info [ "slo-us" ] ~docv:"SPEC"
        ~doc:
          "Per-model end-to-end latency budgets in virtual microseconds, \
           e.g. 'abalone=4000,letter=1500'; a bare number is the default \
           budget for unlisted models. Budgets drive EDF deadlines \
           (--scheduling edf), per-model SLO attainment in the report and \
           graded overload shedding.")

let shed_lo_arg =
  Arg.(
    value & opt float 2.0
    & info [ "shed-lo" ] ~docv:"FRAC"
        ~doc:
          "Admission-window occupancy (0..1) where graded overload \
           shedding starts turning away the loosest-SLO classes; the \
           default 2.0 disables shedding.")

let shed_hi_arg =
  Arg.(
    value & opt float 2.0
    & info [ "shed-hi" ] ~docv:"FRAC"
        ~doc:
          "Occupancy where every class but the tightest is shed; between \
           --shed-lo and --shed-hi the ladder degrades gradually.")

let out_arg ~doc =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

(* Write an indented JSON report, newline-terminated — every report the
   CLI persists goes through here so determinism diffs compare like for
   like. *)
let write_report path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Tb_util.Json.to_string ~indent:true json);
      output_string oc "\n")

let schedule_term =
  let tile_size =
    Arg.(value & opt int 8 & info [ "tile-size" ] ~doc:"Tile size (1-8).")
  in
  let tiling =
    Arg.(
      value
      & opt
          (enum
             [ ("basic", Schedule.Basic); ("prob", Schedule.Probability_based);
               ("prob-opt", Schedule.Optimal_probability_based);
               ("minmax", Schedule.Min_max_depth) ])
          Schedule.Basic
      & info [ "tiling" ]
          ~doc:"Tiling algorithm: basic, prob, prob-opt or minmax.")
  in
  let loop_order =
    Arg.(
      value
      & opt
          (enum
             [ ("tree", Schedule.One_tree_at_a_time);
               ("row", Schedule.One_row_at_a_time) ])
          Schedule.One_tree_at_a_time
      & info [ "loop-order" ] ~doc:"Loop order: tree or row.")
  in
  let interleave =
    Arg.(
      value & opt int 4
      & info [ "interleave" ] ~doc:"Walk interleaving factor.")
  in
  let unroll =
    Arg.(value & flag & info [ "no-unroll" ] ~doc:"Disable padding + unrolling.")
  in
  let layout =
    Arg.(
      value
      & opt
          (enum
             [ ("array", Schedule.Array_layout);
               ("sparse", Schedule.Sparse_layout) ])
          Schedule.Sparse_layout
      & info [ "layout" ] ~doc:"Memory layout: array or sparse.")
  in
  let threads =
    Arg.(
      value & opt int 1
      & info [ "threads" ] ~doc:"Row-loop parallelism (domains).")
  in
  let build tile_size tiling loop_order interleave no_unroll layout threads =
    {
      Schedule.default with
      tile_size;
      tiling;
      loop_order;
      interleave;
      pad_and_unroll = not no_unroll;
      peel = not no_unroll;
      layout;
      num_threads = threads;
    }
  in
  let schedule_file =
    Arg.(
      value & opt (some file) None
      & info [ "schedule-file" ] ~docv:"FILE"
          ~doc:"Load the schedule from a JSON file (e.g. saved by explore                 --save); overrides the individual schedule flags.")
  in
  let finish schedule = function
    | None -> schedule
    | Some path -> read_input Schedule.of_file path
  in
  Term.(
    const finish
    $ (const build $ tile_size $ tiling $ loop_order $ interleave $ unroll
      $ layout $ threads)
    $ schedule_file)

(* ---------------- census gates ---------------- *)

(* lint, validate and quantcheck each compute findings per (model, cell)
   over --model FILE or --zoo, count one census family per cell, and
   close by writing --census and diffing --census-baseline. A gate keeps
   what differs: how a cell is computed, its grid, its -o report and its
   exit rule. *)

module D = Tb_diag.Diagnostic
module Census = Tb_analysis.Census

type gate = {
  family : Census.family;
  models : unit -> (string * Tb_model.Forest.t) list;
      (* loads the zoo or the --model file; exits 2 when neither is given *)
  verbose : bool;
  census_out : string option;
  baseline : (string * Census.t) option;
  mutable rows : Census.row list;  (* newest first *)
  mutable errors : int;
  mutable warnings : int;
}

let gate_term ~cmd ~family ~zoo_doc ~verbose_doc ~census_doc ~baseline_doc =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:verbose_doc) in
  let census_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "census" ] ~docv:"FILE" ~doc:census_doc)
  in
  let census_baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "census-baseline" ] ~docv:"FILE" ~doc:baseline_doc)
  in
  let make zoo model verbose census_out census_baseline =
    let models () =
      match (zoo, model) with
      | true, _ ->
        List.map
          (fun (s : Tb_gbt.Zoo.spec) ->
            let e = Tb_gbt.Zoo.get s.Tb_gbt.Zoo.name in
            (s.Tb_gbt.Zoo.name, e.Tb_gbt.Zoo.forest))
          Tb_gbt.Zoo.specs
      | false, Some path -> [ (path, read_model path) ]
      | false, None ->
        prerr_endline (cmd ^ ": pass --model FILE or --zoo");
        exit 2
    in
    (* Read before any cell runs, and so before --census is written: one
       path given for both still diffs against the old file. *)
    let baseline =
      Option.map
        (fun path -> (path, read_input Census.of_file path))
        census_baseline
    in
    { family; models; verbose; census_out; baseline; rows = []; errors = 0;
      warnings = 0 }
  in
  Term.(
    const make $ zoo_flag ~doc:zoo_doc $ model_opt_arg $ verbose $ census_out
    $ census_baseline)

(* Count one cell's findings into the census and the tallies. *)
let count_cell g ~model ~cell ds =
  g.rows <-
    Census.row_of_diags ~family:g.family ~model ~schedule:cell ds :: g.rows;
  g.errors <- g.errors + List.length (D.errors ds);
  g.warnings <-
    g.warnings + List.length (List.filter (fun d -> d.D.severity = D.Warning) ds)

(* Count a cell, print its ok|warn|FAIL line and its findings (infos only
   under --verbose). *)
let report_cell g ~model ~cell ds =
  count_cell g ~model ~cell ds;
  let verdict =
    if D.has_errors ds then "FAIL"
    else if List.exists (fun d -> d.D.severity = D.Warning) ds then "warn"
    else "ok"
  in
  Printf.printf "%-12s %-55s %s\n" model cell verdict;
  List.iter
    (fun d ->
      if g.verbose || d.D.severity <> D.Info then
        Printf.printf "  %s\n" (D.to_string d))
    ds

(* Print the census totals, write --census, diff --census-baseline, and
   return whether the census regressed. *)
let close_census g =
  let census = List.rev g.rows in
  if g.census_out <> None || g.baseline <> None then begin
    Printf.printf "census totals:\n";
    List.iter
      (fun (c, n) -> Printf.printf "  %-6s %d\n" c n)
      (Census.totals ~family:g.family census)
  end;
  Option.iter
    (fun path ->
      Census.to_file path census;
      Printf.printf "census          : %s (%d rows)\n" path (List.length census))
    g.census_out;
  match g.baseline with
  | None -> false
  | Some (path, baseline) -> (
    match Census.diff ~family:g.family ~baseline census with
    | [] ->
      Printf.printf "census baseline : ok (no regression vs %s)\n" path;
      false
    | problems ->
      Printf.printf "census baseline : %d regression(s) vs %s\n"
        (List.length problems) path;
      List.iter (fun p -> Printf.printf "  %s\n" p) problems;
      true)
