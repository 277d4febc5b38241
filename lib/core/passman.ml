module D = Tb_diag.Diagnostic
module Forest = Tb_model.Forest
module Mir = Tb_mir.Mir
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Lir_check = Tb_analysis.Lir_check
module Validate = Tb_analysis.Validate
module Numeric = Tb_analysis.Numeric

type mode = No_verify | Verify_each

type stage_report = {
  stage : string;
  diagnostics : D.t list;
  wall_s : float;
}

type report = { mode : mode; stages : stage_report list }

let diagnostics r = List.concat_map (fun s -> s.diagnostics) r.stages

let ok r = not (D.has_errors (diagnostics r))

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-16s %9.3f ms  %s@," s.stage (s.wall_s *. 1e3)
        (if s.diagnostics = [] then "ok" else D.summary s.diagnostics);
      List.iter (fun d -> Format.fprintf fmt "  %s@," (D.to_string d)) s.diagnostics)
    r.stages;
  Format.fprintf fmt "@]"

let report_to_string r = Format.asprintf "%a" pp_report r

type tier = [ `Float | `Int8 | `Int16 ]

type resolution =
  | Float_tier of D.t list
  | Quant_tier of Numeric.certificate

let tier_of_resolution = function
  | Float_tier _ -> `Float
  | Quant_tier { Numeric.plan = { Numeric.width = I8; _ }; _ } -> `Int8
  | Quant_tier { Numeric.plan = { Numeric.width = I16; _ }; _ } -> `Int16

type compiled = {
  forest : Forest.t;
  schedule : Tb_hir.Schedule.t;
  lowered : Lower.t;
  artifact : Pack.t;
  predict : float array array -> float array array;
  tier : tier;
  certificate : Numeric.certificate option;
  precision_diags : D.t list;
}

let qspec_of_plan (p : Numeric.plan) =
  {
    Layout.qbits = Numeric.bits p.Numeric.width;
    q_max = p.Numeric.q_max;
    feature_exp = Array.copy p.Numeric.feature_exp;
    leaf_exp = p.Numeric.leaf_exp;
  }

(* Fold-with-early-exit over the pipeline: each stage runs its pass, then
   (under [Verify_each]) its check, and appends a timed report; the first
   error-carrying stage stops compilation. *)
exception Stage_failed

type recorder = { rmode : mode; mutable rev : stage_report list }

let stage r name ?(check = fun _ -> []) pass =
  let (x, diagnostics), wall_s =
    Tb_util.Timer.time_once (fun () ->
        let x = pass () in
        (x, if r.rmode = Verify_each then check x else []))
  in
  r.rev <- { stage = name; diagnostics; wall_s } :: r.rev;
  if D.has_errors diagnostics then raise Stage_failed;
  x

(* HIR → MIR → LIR, one pass per stage. Returns the [lir:assemble] stage,
   so a quantized compile that falls back re-assembles the float program
   from the same passes instead of lowering again. *)
let lower_stages r ~batch_size ?profiles forest schedule =
  stage r "schedule" ignore ~check:(fun () ->
      Tb_analysis.Hir_check.check_schedule ~batch_size schedule);
  let hir =
    stage r "hir" ~check:Tb_analysis.Hir_check.check_program (fun () ->
        Tb_hir.Program.build ?profiles forest schedule)
  in
  let mir_pass name pass m =
    stage r name
      ~check:(Tb_analysis.Mir_check.check ~batch_size hir)
      (fun () -> pass m)
  in
  let mir =
    mir_pass "mir:lower" Mir.lower_of_hir hir
    |> mir_pass "mir:specialize" (Mir.apply_walk_specialization hir)
    |> mir_pass "mir:interleave" Mir.apply_interleaving
    |> mir_pass "mir:parallelize" Mir.apply_parallelization
  in
  let num_features = forest.Forest.num_features in
  let layout =
    stage r "lir:layout" ~check:(Lir_check.check_layout ~num_features)
      (fun () -> Layout.build hir)
  in
  stage r "lir:walks" ignore ~check:(fun () ->
      Lir_check.check_walks
        (Lir_check.env_of_layout ~num_features layout)
        layout mir);
  (* Interleaving and parallelization do not change walk kinds, so the
     final MIR validates the specialized walks. *)
  stage r "validate" ignore ~check:(fun () ->
      Validate.to_diagnostics (Validate.check_all hir mir layout));
  fun ?quant () ->
    stage r "lir:assemble" (fun () -> Lower.assemble ?quant hir mir layout)

let pipeline mode f =
  let r = { rmode = mode; rev = [] } in
  let finish () = { mode; stages = List.rev r.rev } in
  match f r with
  | x -> Ok (x, finish ())
  | exception Stage_failed -> Error (finish ())

let lower ?(mode = Verify_each) ?(batch_size = 1024) ?profiles forest schedule
    =
  pipeline mode (fun r ->
      lower_stages r ~batch_size ?profiles forest schedule ())

let run ~mode ?(batch_size = 1024) ?profiles ~target resolution forest
    schedule =
  pipeline mode @@ fun r ->
  let assemble = lower_stages r ~batch_size ?profiles forest schedule in
  let resolution, lowered =
    match resolution with
    | Float_tier _ -> (resolution, assemble ())
    | Quant_tier cert -> (
      let plan = cert.Numeric.plan in
      let lowered = assemble ~quant:(qspec_of_plan plan) () in
      (* A certified plan can still be refuted by the quantized stage pair
         (a compiler bug in the quantized lowering): degrade to the float
         tier and surface the findings rather than serve wrong integers. *)
      match
        stage r "validate:quant" (fun () ->
            Validate.check_quant forest plan lowered)
      with
      | [] -> (resolution, lowered)
      | findings -> (Float_tier (Validate.to_diagnostics findings), assemble ()))
  in
  let quant, certificate, precision_diags =
    match resolution with
    | Float_tier diags -> (None, None, diags)
    | Quant_tier cert ->
      (* [resident_k] is an inert wire field: instantiate ignores it. *)
      let quant =
        {
          Pack.resident_k = 0;
          dev_bound = Array.copy cert.Numeric.dev_bound;
          tolerance = cert.Numeric.plan.Numeric.tolerance;
        }
      in
      (Some quant, Some cert, [])
  in
  let artifact =
    stage r "pack" (fun () ->
        Pack.of_lower ~target:target.Tb_cpu.Config.name ?quant lowered)
  in
  let predict =
    stage r "instantiate" (fun () -> Tb_vm.Jit.instantiate artifact)
  in
  {
    forest;
    schedule;
    lowered;
    artifact;
    predict;
    tier = tier_of_resolution resolution;
    certificate;
    precision_diags;
  }

let compile ?(mode = Verify_each) ?batch_size ?profiles
    ?(schedule = Tb_hir.Schedule.default) forest =
  run ~mode ?batch_size ?profiles ~target:Tb_cpu.Config.intel_rocket_lake
    (Float_tier []) forest schedule
