(* The integer fast path, end to end.

   The quantized backend's contract is *bitwise* agreement with the
   certified integer evaluator ({!Numeric.qpredict_raw}) on every row —
   ties, saturated inputs and dead zones included — because both sides
   quantize identically and integer addition commutes exactly. The
   properties here replay that contract at each layer: the quantized
   lowering's layout walk ({!Validate.check_quant}) and the
   packed-artifact JIT, at int8 and int16, whatever the pack's inert
   [resident_k] field records.
   Divergence from the *float* path is only allowed on rows inside a
   rounding dead zone, and elsewhere must stay within the certificate's
   proved deviation bound. *)

open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Schedule = Tb_hir.Schedule
module Layout = Tb_lir.Layout
module Lower = Tb_lir.Lower
module Pack = Tb_lir.Pack
module Jit = Tb_vm.Jit
module Artifact = Tb_serve.Artifact
module Numeric = Tb_analysis.Numeric
module Validate = Tb_analysis.Validate
module Treebeard = Tb_core.Treebeard
module D = Tb_diag.Diagnostic

let grid = Array.of_list Schedule.table2_grid
let bits = Int64.bits_of_float

let bitwise_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

(* N002 (threshold collisions) does not refute a certificate — dead-zone
   routing divergence is permitted by contract. Anything else does. *)
let refuted (cert : Numeric.certificate) =
  List.exists (fun d -> d.D.code <> "N002") cert.Numeric.findings

let qspec_of_plan (p : Numeric.plan) =
  {
    Layout.qbits = Numeric.bits p.Numeric.width;
    q_max = p.Numeric.q_max;
    feature_exp = Array.copy p.Numeric.feature_exp;
    leaf_exp = p.Numeric.leaf_exp;
  }

let pack_quant (cert : Numeric.certificate) k =
  {
    Pack.resident_k = k;
    dev_bound = Array.copy cert.Numeric.dev_bound;
    tolerance = cert.Numeric.plan.Numeric.tolerance;
  }

(* Ordinary rows, scaled-up ones that exercise input saturation against
   the padded (infinite-threshold) dummy lanes, and non-finite ones: NaN
   quantizes to 0, and ±inf saturate to the plan's extremes, which must
   still route against the ±inf threshold markers as the integer
   evaluator routes them. The non-finite rows draw nothing from [rng], so
   the models and rows a property samples after them are unchanged. Only
   the quantized tier has a defined answer on them: on the float tier a
   NaN or +inf feature fails every [x < t], so a padded walk leaves
   through its dummy path. *)
let probe_rows rng num_features =
  let rows = random_rows rng num_features 10 in
  let scaled =
    Array.map (Array.map (fun x -> 1e3 *. x)) (random_rows rng num_features 2)
  in
  let fill v = Array.make num_features v in
  let mixed =
    Array.mapi
      (fun f x ->
        match f mod 4 with 0 -> nan | 1 -> infinity | 2 -> neg_infinity | _ -> x)
      rows.(0)
  in
  Array.concat
    [ rows; scaled; [| fill nan; fill infinity; fill neg_infinity; mixed |] ]

let finite_rows rows =
  List.filter (Array.for_all Float.is_finite) (Array.to_list rows) |> Array.of_list

(* Random model with a *sound* plan — only N001 (overflow) makes the
   quantized execution itself unsound; excess deviation (N003), flip risk
   (N004) and collisions (N002) don't invalidate the bitwise contract or
   the proved dev_bound, so such models stay in the sample. A huge
   tolerance keeps N003 from firing and maximizes coverage. *)
let certified_model ?width rng =
  let forest = Test_numeric.random_model rng in
  let width =
    match width with
    | Some w -> w
    | None -> if Prng.int rng 2 = 0 then Numeric.I8 else Numeric.I16
  in
  let cert = Numeric.certify ~tolerance:1e12 ~width forest in
  if List.exists (fun d -> d.D.code = "N001") cert.Numeric.findings then None
  else Some (forest, cert)

(* ---------------- bitwise differential properties ---------------- *)

let jit_bitwise_property seed =
  let rng = Prng.create seed in
  match certified_model rng with
  | None -> true
  | Some (forest, cert) ->
    let plan = cert.Numeric.plan in
    let qm = Numeric.quantize plan forest in
    let schedule = grid.(Prng.int rng (Array.length grid)) in
    let lowered = Lower.lower ~quant:(qspec_of_plan plan) forest schedule in
    let rows = probe_rows rng forest.Forest.num_features in
    let want = Array.map (Numeric.qpredict_raw qm) rows in
    (* The quantized stage pair on its own tie and Gaussian probes... *)
    (match Validate.check_quant forest plan lowered with
    | [] -> ()
    | f :: _ -> QCheck2.Test.fail_reportf "check_quant: %s" f.Validate.message);
    (* ... the lowering's layout walk on these rows, saturated and
       non-finite ones included: quantize the row, add each tree's walk
       to the quantized base, dequantize... *)
    let lay = lowered.Lower.layout in
    let q = Option.get lay.Layout.quant in
    Array.iteri
      (fun i row ->
        let qrow = Layout.quantize_row q row in
        let acc =
          Array.make lowered.Lower.num_outputs
            (Layout.quantize_leaf q lowered.Lower.base_score)
        in
        for tree = 0 to lay.Layout.num_trees - 1 do
          let c = lowered.Lower.tree_class.(tree) in
          acc.(c) <- acc.(c) +. Layout.walk lay ~tree qrow
        done;
        let got = Array.map (fun a -> a *. Layout.dequant_scale q) acc in
        if not (bitwise_eq got want.(i)) then
          QCheck2.Test.fail_reportf
            "quantized layout walk diverged from qpredict_raw on row %d" i)
      rows;
    (* ... and the JIT over the packed artifact, on the whole batch and on
       every row alone (a 1-row call runs tree jams). *)
    let predict =
      Jit.instantiate_single_thread (Pack.of_lower ~quant:(pack_quant cert 0) lowered)
    in
    let got = predict rows in
    Array.iteri
      (fun i w ->
        if not (bitwise_eq got.(i) w) then
          QCheck2.Test.fail_reportf "quantized JIT diverged on row %d" i;
        if not (bitwise_eq (predict [| rows.(i) |]).(0) w) then
          QCheck2.Test.fail_reportf "quantized JIT diverged on row %d called alone" i)
      want;
    true

(* [resident_k] is an inert wire field: instantiate ignores it. Packs
   that differ only in it predict bit for bit alike, and like
   qpredict_raw, at both widths; the golden int16 fixture, which records
   k = 2, predicts exactly like its k = 0 re-pack. *)
let test_resident_k_inert () =
  let rng = Prng.create 17 in
  List.iter
    (fun width ->
      let rec certified () =
        match certified_model ~width rng with
        | Some c -> c
        | None -> certified ()
      in
      for _ = 1 to 6 do
        let forest, cert = certified () in
        let qm = Numeric.quantize cert.Numeric.plan forest in
        let schedule = grid.(Prng.int rng (Array.length grid)) in
        let lowered =
          Lower.lower ~quant:(qspec_of_plan cert.Numeric.plan) forest schedule
        in
        let rows = probe_rows rng forest.Forest.num_features in
        let want = Array.map (Numeric.qpredict_raw qm) rows in
        List.iter
          (fun k ->
            let got =
              Jit.instantiate_single_thread
                (Pack.of_lower ~quant:(pack_quant cert k) lowered)
                rows
            in
            if not (Array.for_all2 bitwise_eq got want) then
              Alcotest.failf "%s pack with resident_k = %d diverged from \
                              qpredict_raw"
                (Numeric.width_to_string width) k)
          [ 0; 2; 3 ]
      done)
    [ Numeric.I8; Numeric.I16 ];
  let decode b =
    match Pack.decode b with
    | Ok pk -> pk
    | Error e -> Alcotest.failf "[%s] %s" e.Pack.code e.Pack.message
  in
  let golden =
    match
      Artifact.read_file
        (Filename.concat golden_dir "abalone-int16.tbpack")
    with
    | Error m -> Alcotest.failf "missing golden quant artifact (%s)" m
    | Ok b -> decode b
  in
  let q = Option.get golden.Pack.quant in
  check_int "golden fixture records k = 2" 2 q.Pack.resident_k;
  let repacked =
    decode
      (Pack.encode
         { golden with Pack.quant = Some { q with Pack.resident_k = 0 } })
  in
  let spec = Option.get golden.Pack.layout.Layout.quant in
  let rows = probe_rows rng (Array.length spec.Layout.feature_exp) in
  check_bool "golden k = 2 == its k = 0 re-pack (bitwise)" true
    (Array.for_all2 bitwise_eq
       (Jit.instantiate_single_thread golden rows)
       (Jit.instantiate_single_thread repacked rows))

(* Quantized-vs-float contract: outside every dead zone the dequantized
   output stays within the proved per-class deviation bound of the float
   reference; dead-zone rows are exempt (routing may differ). *)
let deviation_contract_property seed =
  let rng = Prng.create seed in
  match certified_model rng with
  | None -> true
  | Some (forest, cert) ->
    let plan = cert.Numeric.plan in
    let qm = Numeric.quantize plan forest in
    let rows = random_rows rng forest.Forest.num_features 12 in
    Array.iter
      (fun row ->
        if not (Numeric.dead_zone_row plan forest row) then begin
          let q = Numeric.qpredict_raw qm row in
          let f = Numeric.reference_raw forest row in
          Array.iteri
            (fun c qv ->
              let dev = Float.abs (qv -. f.(c)) in
              if dev > cert.Numeric.dev_bound.(c) then
                QCheck2.Test.fail_reportf
                  "class %d deviation %g exceeds proved bound %g" c dev
                  cert.Numeric.dev_bound.(c))
            q
        end)
      rows;
    true

(* ---------------- pack round-trip ---------------- *)

(* Dyadic thresholds and leaves: quantization is exact, so the
   certificate is clean at I16 and the proved deviation bound is 0. *)
let clean_forest () =
  let node f t l r =
    Tree.Node
      { feature = f; threshold = t; left = Tree.Leaf l; right = Tree.Leaf r }
  in
  Forest.make ~name:"quant-clean" ~base_score:0.25 ~task:Forest.Regression
    ~num_features:3
    [|
      node 0 0.5 1.0 (-0.5);
      node 1 (-0.25) 0.75 2.0;
      node 2 1.5 (-1.0) 0.5;
    |]

let quantized_lowering ?(schedule = Schedule.default) () =
  let forest = clean_forest () in
  let cert = Numeric.certify ~width:Numeric.I16 forest in
  Alcotest.(check bool) "clean model certifies" true (not (refuted cert));
  (forest, cert, Lower.lower ~quant:(qspec_of_plan cert.Numeric.plan) forest schedule)

let test_pack_roundtrip () =
  let _, cert, lowered = quantized_lowering () in
  let pack = Pack.of_lower ~model:"quant-clean" ~quant:(pack_quant cert 1) lowered in
  match Pack.decode (Pack.encode pack) with
  | Error e -> Alcotest.failf "decode failed: %s: %s" e.Pack.code e.Pack.message
  | Ok got ->
    Alcotest.(check bool) "round-trips" true
      (Bytes.equal (Pack.encode pack) (Pack.encode got));
    let q = Option.get got.Pack.quant in
    check_int "resident_k survives" 1 q.Pack.resident_k;
    check_float "tolerance survives" cert.Numeric.plan.Numeric.tolerance
      q.Pack.tolerance;
    let spec = Option.get got.Pack.layout.Layout.quant in
    check_int "qbits survives" 16 spec.Layout.qbits

let test_pack_mismatch_raises () =
  let forest, cert, lowered = quantized_lowering () in
  let float_lowered = Lower.lower forest Schedule.default in
  let raises f =
    match f () with
    | (_ : Pack.t) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "quant metadata on a float lowering" true
    (raises (fun () -> Pack.of_lower ~quant:(pack_quant cert 0) float_lowered));
  Alcotest.(check bool) "quantized lowering without metadata" true
    (raises (fun () -> Pack.of_lower lowered))

let test_float_pack_has_no_quant_block () =
  let forest, _, _ = quantized_lowering () in
  let lowered = Lower.lower forest Schedule.default in
  let pack = Pack.of_lower lowered in
  match Pack.decode (Pack.encode pack) with
  | Error e -> Alcotest.failf "decode failed: %s" e.Pack.message
  | Ok got ->
    Alcotest.(check bool) "no quant metadata" true (got.Pack.quant = None);
    Alcotest.(check bool) "no quantized layout" true
      (got.Pack.layout.Layout.quant = None)

(* ---------------- the compile API ---------------- *)

let test_make_int16 () =
  let forest = clean_forest () in
  let t =
    Treebeard.make
      ~precision:
        (`Quantized
           { Treebeard.bits = `I16; tolerance = Numeric.default_tolerance })
      (`Forest forest)
  in
  Alcotest.(check string) "tier" "int16" (Treebeard.tier_to_string t.Treebeard.tier);
  Alcotest.(check bool) "certificate present" true
    (t.Treebeard.certificate <> None);
  Alcotest.(check bool) "no fallback diagnostics" true
    (t.Treebeard.precision_diags = []);
  let cert = Option.get t.Treebeard.certificate in
  let qm = Numeric.quantize cert.Numeric.plan forest in
  let rng = Prng.create 41 in
  let rows = probe_rows rng forest.Forest.num_features in
  let got = Treebeard.predict_forest t rows in
  Array.iteri
    (fun i row ->
      let want = Numeric.qpredict_raw qm row in
      if not (bitwise_eq got.(i) want) then
        Alcotest.failf "quantized compile diverged from qpredict_raw on row %d"
          i)
    rows

let test_make_fallback () =
  (* 0.1 is not dyadic, so the proved deviation bound is positive and an
     impossible tolerance must refute the plan (N003) and degrade the
     compile to the float tier. *)
  let forest =
    Forest.make ~name:"quant-dirty" ~task:Forest.Regression ~num_features:2
      [|
        Tree.Node
          {
            feature = 0;
            threshold = 0.3;
            left = Tree.Leaf 0.1;
            right = Tree.Leaf 0.7;
          };
      |]
  in
  let t =
    Treebeard.make
      ~precision:(`Quantized { Treebeard.bits = `I16; tolerance = 1e-30 })
      (`Forest forest)
  in
  Alcotest.(check string) "fell back" "float"
    (Treebeard.tier_to_string t.Treebeard.tier);
  Alcotest.(check bool) "N005 reported" true
    (List.exists (fun d -> d.D.code = "N005") t.Treebeard.precision_diags);
  Alcotest.(check bool) "blocking findings demoted to info" true
    (not (D.has_errors t.Treebeard.precision_diags));
  (* The fallback predictor is the float path, bit for bit. *)
  let plain = Treebeard.make (`Forest forest) in
  let rng = Prng.create 43 in
  let rows = random_rows rng forest.Forest.num_features 8 in
  let got = Treebeard.predict_forest t rows in
  let want = Treebeard.predict_forest plain rows in
  Array.iteri
    (fun i g ->
      if not (bitwise_eq g want.(i)) then
        Alcotest.failf "fallback diverged from the float compile on row %d" i)
    got

let test_precision_strings () =
  (match Treebeard.precision_of_string "int16" with
  | Ok p -> check_string "int16" "int16" (Treebeard.precision_to_string p)
  | Error e -> Alcotest.fail e);
  (match Treebeard.precision_of_string "float" with
  | Ok p -> check_string "float" "float" (Treebeard.precision_to_string p)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad name rejected" true
    (Result.is_error (Treebeard.precision_of_string "bf16"))

let test_check_quant_requires_quantized () =
  let forest = clean_forest () in
  let cert = Numeric.certify ~width:Numeric.I16 forest in
  let lowered = Lower.lower forest Schedule.default in
  match Validate.check_quant forest cert.Numeric.plan lowered with
  | [ f ] ->
    Alcotest.(check string) "T005" "T005" f.Validate.code;
    Alcotest.(check bool) "error severity" true
      (f.Validate.severity = D.Error)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_check_quant_clean () =
  let forest, cert, lowered = quantized_lowering () in
  Alcotest.(check int) "no findings" 0
    (List.length (Validate.check_quant forest cert.Numeric.plan lowered))

(* The leaf-store indices of one tree of a sparse layout: its tiles from
   the root, each tile's children being the entries its LUT row selects. *)
let sparse_leaves (lay : Layout.t) tree =
  let rec tiles s acc =
    let row = lay.Layout.lut.(lay.Layout.shape_ids.(s)) in
    let children = List.init (1 + Array.fold_left max 0 row) Fun.id in
    let p = lay.Layout.child_ptr.(s) in
    if p >= 0 then List.fold_left (fun acc c -> tiles (p + c) acc) acc children
    else List.map (fun c -> -p - 1 + c) children @ acc
  in
  let r = lay.Layout.tree_root.(tree) in
  if r < 0 then [ -r - 1 ] else tiles r []

(* A quantized lowering whose layout walk is off by one quantization step
   in every leaf of one tree disagrees with the certified evaluator on
   every row that reaches that tree, so T005 must refute it with a
   witness. *)
let test_check_quant_catches_raised_leaves () =
  let forest, cert, lowered = quantized_lowering () in
  let lay = lowered.Lower.layout in
  let leaf_values = Array.copy lay.Layout.leaf_values in
  List.iter
    (fun i -> leaf_values.(i) <- leaf_values.(i) +. 1.0)
    (sparse_leaves lay 0);
  let mutant = { lowered with Lower.layout = { lay with Layout.leaf_values } } in
  match Validate.check_quant forest cert.Numeric.plan mutant with
  | [] -> Alcotest.fail "raised leaves were not refuted"
  | findings ->
    List.iter
      (fun (f : Validate.finding) ->
        check_string "T005" "T005" f.Validate.code;
        check_bool "error severity" true (f.Validate.severity = D.Error);
        check_bool "witness row" true (f.Validate.witness <> None))
      findings

(* ---------------- one pipeline, three callers ---------------- *)

module Passman = Tb_core.Passman
module Registry = Tb_serve.Registry

(* A handful of Table II schedules: both loop orders, every tile size,
   both tilings, padded and unpadded, several interleave factors. *)
let pipeline_schedules =
  Array.of_list (List.filteri (fun i _ -> i mod 29 = 3) Schedule.table2_grid)

(* Regressions certify at int16 under a huge tolerance: N003 cannot fire,
   N004 is classification-only, and these forests are too small for
   N001. *)
let regression_forest rng =
  let num_features = 2 + Prng.int rng 4 in
  Forest.make ~name:"one-pipeline"
    ~base_score:(Prng.float rng 1.0 -. 0.5)
    ~task:Forest.Regression ~num_features
    (Array.init
       (1 + Prng.int rng 6)
       (fun _ -> Tree.random ~max_depth:(2 + Prng.int rng 4) ~num_features rng))

let int16 = `Quantized { Treebeard.bits = `I16; tolerance = 1e12 }

let stage_times_valid (report : Passman.report) =
  List.for_all (fun s -> s.Passman.wall_s >= 0.0) report.Passman.stages

let same_predictions a b = Array.for_all2 bitwise_eq a b

(* [make] and Passman's verified callers run one pipeline: on the same
   inputs they build the same program and bitwise-equal predictors, on
   the float tier and the int16 tier alike. *)
let one_pipeline_property seed =
  let rng = Prng.create seed in
  let forest = regression_forest rng in
  let schedule =
    pipeline_schedules.(Prng.int rng (Array.length pipeline_schedules))
  in
  (* The float half profiles, compiles and compares on the finite rows;
     the int16 half checks every probe row. *)
  let probes = probe_rows rng forest.Forest.num_features in
  let rows = finite_rows probes in
  let profiles = Tb_model.Model_stats.profile_forest forest rows in
  let plan = `Schedule schedule in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let verified = function
    | Ok (c, report) ->
      if not (stage_times_valid report) then fail "negative stage time";
      c
    | Error report ->
      fail "verification failed:\n%s" (Passman.report_to_string report)
  in
  (* Float: make == Passman.compile. *)
  let made = Treebeard.make ~plan ~training_rows:rows (`Forest forest) in
  let checked = verified (Passman.compile ~profiles ~schedule forest) in
  if not (same_predictions (made.predict rows) (checked.predict rows)) then
    fail "float: make and Passman.compile predictions differ";
  let encode (t : Treebeard.t) = Pack.encode (Pack.of_lower t.lowered) in
  if not (Bytes.equal (encode made) (encode checked)) then
    fail "float: make and Passman.compile lowered different programs";
  (* Int16: make == Passman.run (Verify_each) == qpredict_raw. *)
  let resolution = Treebeard.resolve_precision ~precision:int16 forest in
  let cert =
    match resolution with
    | Treebeard.Quant_tier cert -> cert
    | Treebeard.Float_tier _ -> fail "regression forest did not certify"
  in
  let made =
    Treebeard.make ~plan ~training_rows:rows ~precision:int16 (`Forest forest)
  in
  let checked =
    verified
      (Passman.run ~mode:Verify_each ~profiles
         ~target:Tb_cpu.Config.intel_rocket_lake resolution forest schedule)
  in
  if made.Treebeard.tier <> `Int16 || checked.Passman.tier <> `Int16 then
    fail "int16 compile fell back to %s"
      (Treebeard.tier_to_string made.Treebeard.tier);
  let qm = Numeric.quantize cert.Numeric.plan forest in
  let want = Array.map (Numeric.qpredict_raw qm) probes in
  if not (same_predictions want (made.Treebeard.predict probes)) then
    fail "int16: make diverged from qpredict_raw";
  if not (same_predictions want (checked.Passman.predict probes)) then
    fail "int16: Passman.run diverged from qpredict_raw";
  if
    not
      (Bytes.equal
         (Pack.encode made.Treebeard.artifact)
         (Pack.encode checked.Passman.artifact))
  then fail "int16: make and Passman.run packed different artifacts";
  true

(* The registry's quantized path: every schedule's compile is checked and
   served as int16, and a restart hydrates it from disk. *)
let test_registry_int16 () =
  let rng = Prng.create 5 in
  let forest = regression_forest rng in
  let cert = Numeric.certify ~tolerance:1e12 ~width:Numeric.I16 forest in
  let qm = Numeric.quantize cert.Numeric.plan forest in
  let rows = probe_rows rng forest.Forest.num_features in
  let want = Array.map (Numeric.qpredict_raw qm) rows in
  let dir = Test_artifact.fresh_dir () in
  let registry () =
    let reg = Registry.create ~cache_dir:dir () in
    Registry.register reg ~name:"m" forest;
    reg
  in
  let schedules = [ pipeline_schedules.(0); pipeline_schedules.(5) ] in
  let serve reg expect =
    List.iter
      (fun schedule ->
        let c, prov =
          Registry.compiled ~precision:int16 reg ~model:"m" ~schedule
        in
        check_string "provenance" expect (Registry.provenance_string prov);
        check_string "tier" "int16" (Treebeard.tier_to_string c.Registry.tier);
        check_bool "bitwise == qpredict_raw" true
          (same_predictions want (c.Registry.predict rows));
        check_bool "wall times ordered" true
          (0.0 <= c.Registry.wall_instantiate_us
          && c.Registry.wall_instantiate_us <= c.Registry.wall_compile_us))
      schedules
  in
  let cold = registry () in
  serve cold "compile";
  check_int "one compile per schedule" 2 (Registry.compile_count cold);
  check_bool "no fallback" true (Registry.precision_fallbacks cold = []);
  let warm = registry () in
  serve warm "disk";
  check_int "warm restart compiles nothing" 0 (Registry.compile_count warm)

(* A refuted request is served from the float tier's entry. *)
let test_registry_fallback () =
  let forest =
    Forest.make ~name:"quant-dirty" ~task:Forest.Regression ~num_features:2
      [|
        Tree.Node
          {
            feature = 0;
            threshold = 0.3;
            left = Tree.Leaf 0.1;
            right = Tree.Leaf 0.7;
          };
      |]
  in
  let reg = Registry.create () in
  Registry.register reg ~name:"m" forest;
  let impossible = `Quantized { Treebeard.bits = `I16; tolerance = 1e-30 } in
  let schedule = Schedule.default in
  let c, prov =
    Registry.compiled ~precision:impossible reg ~model:"m" ~schedule
  in
  check_string "compiled" "compile" (Registry.provenance_string prov);
  check_string "fell back" "float" (Treebeard.tier_to_string c.Registry.tier);
  check_int "fallback recorded" 1
    (List.length (Registry.precision_fallbacks reg));
  let _, prov = Registry.compiled reg ~model:"m" ~schedule in
  check_string "stored under the float key" "hit"
    (Registry.provenance_string prov)

(* A certified plan whose lowering the quantized stage pair refutes. The
   quantized layout keeps a +inf threshold as a routing marker (above
   every row) while the certified evaluator saturates it to q_max, so the
   two diverge on every saturated row. Certification itself refutes an
   infinite threshold, so the plan comes from a finite twin — in the
   registry, through the certificate memoized before the model was
   replaced. *)
let test_refuted_lowering () =
  let stump threshold =
    Forest.make ~name:"stump" ~task:Forest.Regression ~num_features:2
      [|
        Tree.Node
          { feature = 0; threshold; left = Tree.Leaf 0.1; right = Tree.Leaf 0.7 };
      |]
  in
  let finite = stump 0.3 and marker = stump infinity in
  let resolution = Treebeard.resolve_precision ~precision:int16 finite in
  (match resolution with
  | Treebeard.Quant_tier _ -> ()
  | Treebeard.Float_tier _ -> Alcotest.fail "finite stump did not certify");
  let c, _ =
    Passman.run ~mode:No_verify ~target:Tb_cpu.Config.intel_rocket_lake
      resolution marker Schedule.default
    |> Result.get_ok
  in
  check_string "run fell back" "float"
    (Treebeard.tier_to_string c.Passman.tier);
  check_bool "T005 findings attached" true
    (c.Passman.precision_diags <> []
    && List.for_all (fun d -> d.D.code = "T005") c.Passman.precision_diags);
  let reg = Registry.create () in
  Registry.register reg ~name:"m" finite;
  let request schedule =
    let c, prov = Registry.compiled ~precision:int16 reg ~model:"m" ~schedule in
    (Treebeard.tier_to_string c.Registry.tier, Registry.provenance_string prov)
  in
  let clean = pipeline_schedules.(0) and refuted = pipeline_schedules.(5) in
  check_string "finite stump serves int16" "int16" (fst (request clean));
  Registry.register reg ~name:"m" marker;
  let tier, prov = request refuted in
  check_string "refuted compile" "compile" prov;
  check_string "refuted compile fell back" "float" tier;
  check_int "one fallback" 1 (List.length (Registry.precision_fallbacks reg));
  let tier, prov = request refuted in
  check_string "repeat request hits the float entry" "hit" prov;
  check_string "repeat request tier" "float" tier;
  check_int "still one fallback" 1
    (List.length (Registry.precision_fallbacks reg));
  check_int "two compiles" 2 (Registry.compile_count reg);
  let _, prov = Registry.compiled reg ~model:"m" ~schedule:refuted in
  check_string "stored under the float key" "hit"
    (Registry.provenance_string prov)

let suite =
  [
    qcheck ~count:40 ~name:"quantized lowering+JIT == qpredict_raw (bitwise)"
      seed_gen jit_bitwise_property;
    qcheck ~count:40 ~name:"deviation bound honored outside dead zones"
      seed_gen deviation_contract_property;
    quick "resident_k is inert: k in {0,2,3} and the golden k=2 pack agree"
      test_resident_k_inert;
    quick "pack: quantized round-trip" test_pack_roundtrip;
    quick "pack: quant/layout mismatch raises" test_pack_mismatch_raises;
    quick "pack: float artifacts carry no quant block"
      test_float_pack_has_no_quant_block;
    quick "make: ~precision int16 resolves and matches qpredict_raw"
      test_make_int16;
    quick "make: impossible tolerance falls back to float with N005"
      test_make_fallback;
    quick "precision_of_string round-trips" test_precision_strings;
    quick "check_quant: float lowering is refused" test_check_quant_requires_quantized;
    quick "check_quant: clean quantized lowering passes" test_check_quant_clean;
    quick "check_quant: raised leaves of one tree -> T005 with witness"
      test_check_quant_catches_raised_leaves;
    qcheck ~count:12 ~name:"make == Passman on one pipeline (float, int16)"
      seed_gen one_pipeline_property;
    quick "registry int16: every schedule checked, warm restart hydrates"
      test_registry_int16;
    quick "registry: refuted request served by the float entry"
      test_registry_fallback;
    quick "refuted lowering: float entry, one fallback, then a hit"
      test_refuted_lowering;
  ]
