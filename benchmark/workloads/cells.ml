(* What each workload runs. Fixed here, not derived from the seed: the
   seed only picks input rows and the serve trace, so both sides of a
   comparison run the same programs. *)

let zoo =
  [ "abalone"; "airline"; "airline-ohe"; "covtype"; "epsilon"; "letter";
    "higgs"; "year" ]

type variant = Default_1t | Tuned_1t | Int16_1t | Default_2t

let variant_name = function
  | Default_1t -> "default-1t"
  | Tuned_1t -> "tuned-1t"
  | Int16_1t -> "int16-1t"
  | Default_2t -> "default-2t"

(* Tolerances at which both regressors certify clean at int16; a tighter
   one would fall back to float (N003) and measure the wrong tier. *)
let int16_models = [ ("abalone", 0.5); ("year", 6.5) ]
let int16_tolerance model = List.assoc model int16_models

type pcell = { model : string; variant : variant; batch : int }

let pcell_name c =
  Printf.sprintf "%s.%s.b%d" c.model (variant_name c.variant) c.batch

(* Per-layer metric names of the predict cells. *)
let row_us_metric c =
  Printf.sprintf "vm.row_us.%s.%s" c.model (variant_name c.variant)

let call_p50_metric c = "vm.call_p50_us." ^ pcell_name c

(* The 1024-row cells, one workload per variant class, so each class has
   end-to-end numbers of its own. *)
let large variant models =
  List.map (fun model -> { model; variant; batch = 1024 }) models

let float_cells = large Default_1t zoo @ large Tuned_1t zoo
let int16_cells = large Int16_1t (List.map fst int16_models)

let threaded_cells =
  large Default_2t [ "abalone"; "airline-ohe"; "covtype"; "letter" ]

let small_models = [ "airline"; "epsilon"; "higgs"; "year" ]

let small_cells =
  List.concat_map
    (fun batch ->
      List.concat_map
        (fun variant ->
          List.map (fun model -> { model; variant; batch }) small_models)
        [ Default_1t; Default_2t ]
      @ [ { model = "year"; variant = Int16_1t; batch } ])
    [ 1; 16 ]

(* The wall-clock split of Fig. 9: an affine fit of call time over these
   batch sizes, per variant, on one float and one int16 model. *)
let fit_batches = [ 1; 4; 16; 64; 256; 1024 ]

let fit_cells =
  [ ("float-1t", { model = "higgs"; variant = Default_1t; batch = 0 });
    ("float-2t", { model = "higgs"; variant = Default_2t; batch = 0 });
    ("int16", { model = "year"; variant = Int16_1t; batch = 0 }) ]

(* The paths from a model file (or a stored artifact) to a first
   prediction. Each of the first three is a workload; [Quant] is the
   set-up of predict-int16. *)
type path = Compile | Verified | Restart | Quant

let path_name = function
  | Compile -> "compile"
  | Verified -> "verified"
  | Restart -> "restart"
  | Quant -> "quant"

let path_models = function
  | Compile | Verified | Restart -> zoo
  | Quant -> List.map fst int16_models

(* Zipf rank order: the heaviest model (abalone, 1000 trees) is the
   hottest. *)
let serve_models = [ "abalone"; "higgs"; "year"; "airline" ]
let serve_rate_rps = 8000.0
let serve_zipf_theta = 1.1
let serve_slo_us = 2000.0

(* What a traced predict run measures besides its cells: the batch-size
   sweep behind the affine fit, or the stages of the quant path that
   predict-int16's set-up runs. *)
type extra = Batch_sweep | Quant_stages

type workload =
  | Predict of pcell list * extra option
  | Cold of path
  | Serve

let workloads =
  [
    ("predict-large", Predict (float_cells, None));
    ("predict-int16", Predict (int16_cells, Some Quant_stages));
    ("predict-2t", Predict (threaded_cells, None));
    ("predict-small", Predict (small_cells, Some Batch_sweep));
    ("cold-compile", Cold Compile);
    ("cold-verified", Cold Verified);
    ("cold-restart", Cold Restart);
    ("serve-zipf", Serve);
  ]

let workload_names = List.map fst workloads

let workload name =
  match List.assoc_opt name workloads with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

let models_of name =
  match workload name with
  | Predict (cells, _) -> List.sort_uniq compare (List.map (fun c -> c.model) cells)
  | Cold path -> path_models path
  | Serve -> serve_models
