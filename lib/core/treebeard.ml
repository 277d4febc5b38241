module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Numeric = Tb_analysis.Numeric
module D = Tb_diag.Diagnostic
module Config = Tb_cpu.Config

type quant_request = { bits : [ `I8 | `I16 ]; tolerance : float }
type precision = [ `Float | `Quantized of quant_request ]
type tier = Passman.tier

let tier_to_string = function
  | `Float -> "float"
  | `Int8 -> "int8"
  | `Int16 -> "int16"

let precision_of_string = function
  | "float" -> Ok `Float
  | "int8" ->
    Ok (`Quantized { bits = `I8; tolerance = Numeric.default_tolerance })
  | "int16" ->
    Ok (`Quantized { bits = `I16; tolerance = Numeric.default_tolerance })
  | s -> Error (Printf.sprintf "unknown precision %S (float|int8|int16)" s)

let precision_to_string = function
  | `Float -> "float"
  | `Quantized { bits = `I8; _ } -> "int8"
  | `Quantized { bits = `I16; _ } -> "int16"

let width_of_bits = function `I8 -> Numeric.I8 | `I16 -> Numeric.I16
let qspec_of_plan = Passman.qspec_of_plan
let tune_resident_k ~target:_ _ _ = 0

(* N002 (threshold collisions) does not refute the certificate: dead-zone
   rows may route differently from the float path, which the quantized
   tier's contract explicitly permits. Overflow (N001), excess deviation
   (N003) and a possible decision flip (N004) do. *)
let refuting_findings (cert : Numeric.certificate) =
  List.filter (fun d -> d.D.code <> "N002") cert.Numeric.findings

type resolution = Passman.resolution =
  | Float_tier of D.t list
  | Quant_tier of Numeric.certificate

let resolve_precision ?(precision = `Float) forest =
  match precision with
  | `Float -> Float_tier []
  | `Quantized { bits; tolerance } ->
    let width = width_of_bits bits in
    let cert = Numeric.certify ~tolerance ~width forest in
    (match refuting_findings cert with
    | [] -> Quant_tier cert
    | blocking ->
      let info =
        D.infof ~level:D.Numeric ~code:"N005" ~path:[]
          "precision %s refused: %d certification finding(s) (%s); falling \
           back to the float tier"
          (Numeric.width_to_string width)
          (List.length blocking)
          (String.concat ", "
             (List.sort_uniq compare
                (List.map (fun d -> d.D.code) blocking)))
      in
      Float_tier
        (info :: List.map (fun d -> { d with D.severity = D.Info }) blocking))

type t = Passman.compiled = {
  forest : Forest.t;
  schedule : Schedule.t;
  lowered : Tb_lir.Lower.t;
  artifact : Tb_lir.Pack.t;
  predict : float array array -> float array array;
  tier : tier;
  certificate : Numeric.certificate option;
  precision_diags : D.t list;
}

let make ?(plan = `Schedule Schedule.default) ?profiles ?training_rows
    ?(backend = `Threaded) ?(precision = `Float) source =
  let forest =
    match source with
    | `Forest f -> f
    | `File path -> Tb_model.Serialize.of_file path
  in
  let profiles =
    match profiles with
    | Some _ as p -> p
    | None ->
      Option.map (Tb_model.Model_stats.profile_forest forest) training_rows
  in
  let schedule, target =
    match plan with
    | `Schedule s ->
      (* The pack's metadata names a target; an explicit schedule names
         the Intel testbed. *)
      (s, Config.intel_rocket_lake)
    | `Auto target ->
      let sample =
        match training_rows with
        | Some rows when Array.length rows > 0 -> rows
        | Some _ | None ->
          (* No data provided: synthesize a neutral probe batch. *)
          let rng = Tb_util.Prng.create 7 in
          Array.init 48 (fun _ ->
              Array.init forest.Forest.num_features (fun _ ->
                  Tb_util.Prng.gaussian rng))
      in
      ((Explore.greedy ~target ?profiles forest sample).Explore.schedule, target)
  in
  let schedule =
    match backend with
    | `Threaded -> schedule
    | `Single_thread -> fst (Schedule.clamp_threads ~max_threads:1 schedule)
  in
  Passman.run ~mode:No_verify ?profiles ~backend ~target
    (resolve_precision ~precision forest)
    forest schedule
  |> Result.get_ok |> fst

let predict_forest t rows = t.predict rows

let predict_one t row =
  match t.predict [| row |] with
  | [| out |] -> out
  | _ -> assert false

let dump_ir t = Tb_lir.Lower.dump t.lowered
