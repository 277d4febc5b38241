(* Soundness harness for the quantization certifier (Tb_analysis.Numeric).

   The certificate makes four statically-proved claims; the harness
   replays concrete quantized executions of random models against every
   one of them:

   - accumulators: every integer class accumulator of every row stays
     within the proved acc_bound, and acc_bound itself is within the
     doubled-width cap unless N001 fired;
   - routing: on rows outside every rounding dead zone
     (dead_zone_row = false), the quantized path reaches exactly the
     leaf the float path reaches, tree by tree;
   - deviation: on those routing-stable rows, the dequantized output is
     within the proved dev_bound of the Neumaier float reference;
   - flips: a routing-stable row whose argmax/sign differs between the
     two paths can only exist when the certificate announced the risk
     (N004, ambiguous_pairs > 0).

   The seeded tests are the negative half: models constructed to
   overflow the accumulator, collide thresholds, blow the tolerance or
   flip a margin must produce exactly the advertised finding. *)

open Helpers
module Prng = Tb_util.Prng
module Stats = Tb_util.Stats
module Json = Tb_util.Json
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Numeric = Tb_analysis.Numeric
module D = Tb_diag.Diagnostic

let codes (cert : Numeric.certificate) =
  List.map (fun d -> d.D.code) cert.Numeric.findings

let has code cert = List.mem code (codes cert)

(* Random model covering all three tasks — Forest.random is
   single-output only, so multiclass ensembles are assembled by hand
   (one tree per class per round, the XGBoost convention Forest.make
   checks). *)
let random_model rng =
  let num_features = 1 + Prng.int rng 6 in
  let tree () = Tree.random ~max_depth:(2 + Prng.int rng 4) ~num_features rng in
  let base_score = Prng.float rng 1.0 -. 0.5 in
  match Prng.int rng 3 with
  | 0 ->
    let trees = Array.init (1 + Prng.int rng 8) (fun _ -> tree ()) in
    Forest.make ~name:"storm-reg" ~base_score ~task:Forest.Regression
      ~num_features trees
  | 1 ->
    let trees = Array.init (1 + Prng.int rng 8) (fun _ -> tree ()) in
    Forest.make ~name:"storm-bin" ~base_score ~task:Forest.Binary_logistic
      ~num_features trees
  | _ ->
    let k = 2 + Prng.int rng 3 in
    let rounds = 1 + Prng.int rng 3 in
    let trees = Array.init (k * rounds) (fun _ -> tree ()) in
    Forest.make ~name:"storm-multi" ~base_score ~task:(Forest.Multiclass k)
      ~num_features trees

let soundness_property seed =
  let rng = Prng.create seed in
  let forest = random_model rng in
  let width = if Prng.int rng 2 = 0 then Numeric.I8 else Numeric.I16 in
  let cert = Numeric.certify ~width forest in
  let plan = cert.Numeric.plan in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  (* Static claim: no N001 means the accumulator bound fits the cap. *)
  if not (has "N001" cert) then
    Array.iter
      (fun b ->
        if b > plan.Numeric.acc_max then
          fail "acc_bound %d exceeds cap %d yet no N001 fired" b
            plan.Numeric.acc_max)
      cert.Numeric.acc_bound;
  let qm = Numeric.quantize plan forest in
  (* Ordinary rows plus scaled-up ones that exercise input saturation. *)
  let rows =
    Array.append
      (random_rows rng forest.Forest.num_features 16)
      (Array.map
         (Array.map (fun x -> 1e3 *. x))
         (random_rows rng forest.Forest.num_features 4))
  in
  Array.iter
    (fun row ->
      let qrow = Numeric.quantize_input plan row in
      let acc = Forest.predict_raw qm.Numeric.qforest qrow in
      Array.iteri
        (fun c a ->
          if Float.abs a > float_of_int cert.Numeric.acc_bound.(c) then
            fail "class %d accumulator %g outside proved bound %d" c a
              cert.Numeric.acc_bound.(c))
        acc;
      if not (Numeric.dead_zone_row plan forest row) then begin
        (* Routing-stable: same leaf per tree ... *)
        Array.iteri
          (fun i qt ->
            let got = Tree.predict_leaf_index qt qrow in
            let want = Tree.predict_leaf_index forest.Forest.trees.(i) row in
            if got <> want then
              fail "tree %d: quantized routing reached leaf %d, float %d, \
                    on a row outside every dead zone"
                i got want)
          qm.Numeric.qforest.Forest.trees;
        (* ... deviation within the proved bound ... *)
        let q = Numeric.qpredict_raw qm row in
        let f = Numeric.reference_raw forest row in
        Array.iteri
          (fun c qv ->
            let dev = Float.abs (qv -. f.(c)) in
            if dev > cert.Numeric.dev_bound.(c) then
              fail "class %d measured deviation %g exceeds proved %g" c dev
                cert.Numeric.dev_bound.(c))
          q;
        (* ... and a decision flip only where N004 announced it. *)
        let flipped =
          match forest.Forest.task with
          | Forest.Regression -> false
          | Forest.Binary_logistic -> q.(0) >= 0.0 <> (f.(0) >= 0.0)
          | Forest.Multiclass _ -> Stats.argmax q <> Stats.argmax f
        in
        if flipped && cert.Numeric.ambiguous_pairs = 0 then
          fail "decision flipped on a routing-stable row but N004 did not \
                fire"
      end)
    rows;
  true

(* ---------------- summary / prefix tables ---------------- *)

let test_summarize_census () =
  (* f0 < 1.0 ? (f1 < 2.0 ? 1 : 2) : (f0 < 1.5 ? 3 : 4) *)
  let tree =
    Tree.Node
      {
        feature = 0;
        threshold = 1.0;
        left =
          Tree.Node
            { feature = 1; threshold = 2.0; left = Tree.Leaf 1.0;
              right = Tree.Leaf 2.0 };
        right =
          Tree.Node
            { feature = 0; threshold = 1.5; left = Tree.Leaf 3.0;
              right = Tree.Leaf 4.0 };
      }
  in
  let forest =
    Forest.make ~base_score:0.5 ~task:Forest.Regression ~num_features:3
      [| tree |]
  in
  let s = Numeric.summarize forest in
  let f0 = s.Numeric.features.(0) in
  check_int "f0 occurrences" 2 f0.Numeric.occurrences;
  check_int "f0 distinct" 2 f0.Numeric.distinct;
  check_float "f0 lo" 1.0 f0.Numeric.range.Numeric.lo;
  check_float "f0 hi" 1.5 f0.Numeric.range.Numeric.hi;
  check_float "f0 min gap" 0.5 f0.Numeric.min_gap;
  let f2 = s.Numeric.features.(2) in
  check_int "unused feature has no thresholds" 0 f2.Numeric.occurrences;
  check_bool "unused min_gap infinite" true (f2.Numeric.min_gap = infinity);
  check_float "tree lo" 1.0 s.Numeric.tree_values.(0).Numeric.lo;
  check_float "tree hi" 4.0 s.Numeric.tree_values.(0).Numeric.hi;
  check_float "class lo includes base" 1.5 s.Numeric.class_bounds.(0).Numeric.lo;
  check_float "class hi includes base" 4.5 s.Numeric.class_bounds.(0).Numeric.hi

let test_prefix_bounds_partial_sums () =
  let rng = Prng.create 97 in
  for _ = 1 to 25 do
    let forest = random_model rng in
    let n = Array.length forest.Forest.trees in
    let k = Forest.num_outputs forest in
    (* Random permutation. *)
    let order = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Prng.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    let pt = Numeric.prefix_bounds ~order forest in
    for c = 0 to k - 1 do
      check_float "suffix at n is empty" 0.0 pt.Numeric.suffix_lo.(c).(n);
      check_float "suffix at n is empty" 0.0 pt.Numeric.suffix_hi.(c).(n)
    done;
    let rows = random_rows rng forest.Forest.num_features 8 in
    Array.iter
      (fun row ->
        let preds =
          Array.map (fun t -> Tree.predict t row) forest.Forest.trees
        in
        (* Walk the order backward accumulating the true suffix sums,
           checking containment at every prefix length. *)
        let suffix = Array.make k 0.0 in
        let slack = ref 1e-9 in
        for pos = n downto 0 do
          for c = 0 to k - 1 do
            let iv = Numeric.suffix_interval pt ~cls:c ~prefix:pos in
            if
              suffix.(c) < iv.Numeric.lo -. !slack
              || suffix.(c) > iv.Numeric.hi +. !slack
            then
              Alcotest.failf
                "class %d prefix %d: suffix sum %g outside [%g, %g]" c pos
                suffix.(c) iv.Numeric.lo iv.Numeric.hi
          done;
          if pos > 0 then begin
            let t = order.(pos - 1) in
            let c = Forest.class_of_tree forest t in
            suffix.(c) <- suffix.(c) +. preds.(t);
            slack := !slack +. (1e-12 *. Float.abs preds.(t))
          end
        done;
        (* Prefix 0 ties the table to the summary's class bounds. *)
        let s = Numeric.summarize forest in
        for c = 0 to k - 1 do
          let iv = Numeric.suffix_interval pt ~cls:c ~prefix:0 in
          check_bool "class_bounds = base + suffix(0)" true
            (floats_close ~eps:1e-9
               (forest.Forest.base_score +. iv.Numeric.lo)
               s.Numeric.class_bounds.(c).Numeric.lo
            && floats_close ~eps:1e-9
                 (forest.Forest.base_score +. iv.Numeric.hi)
                 s.Numeric.class_bounds.(c).Numeric.hi)
        done)
      rows
  done

let test_prefix_bounds_rejects_non_permutation () =
  let rng = Prng.create 3 in
  let forest = Forest.random ~num_trees:4 ~num_features:3 rng in
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Numeric.prefix_bounds: order is not a permutation")
    (fun () -> ignore (Numeric.prefix_bounds ~order:[| 0; 1; 2; 2 |] forest));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Numeric.prefix_bounds: order length mismatch")
    (fun () -> ignore (Numeric.prefix_bounds ~order:[| 0; 1 |] forest))

(* ---------------- seeded findings ---------------- *)

let leafy v = Tree.Leaf v

let test_n001_accumulator_overflow () =
  (* 600 trees, every leaf ~100: at int8 the leaf scale keeps each
     quantized leaf near 127, and 600 * 127 overflows the 16-bit
     accumulator; at int16 the 32-bit accumulator absorbs it. *)
  let trees = Array.init 600 (fun _ -> leafy 100.0) in
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:1 trees
  in
  let c8 = Numeric.certify ~width:Numeric.I8 forest in
  check_bool "int8 accumulator overflow fires N001" true (has "N001" c8);
  check_bool "acc bound exceeds cap" true
    (c8.Numeric.acc_bound.(0) > c8.Numeric.plan.Numeric.acc_max);
  let c16 = Numeric.certify ~width:Numeric.I16 forest in
  check_bool "int16 accumulator fits" false (has "N001" c16)

let test_n001_unscalable_threshold () =
  (* A threshold of 1e30 cannot be brought into int8 range even at the
     2^-60 floor. *)
  let tree =
    Tree.Node
      { feature = 0; threshold = 1e30; left = leafy 0.0; right = leafy 1.0 }
  in
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:1 [| tree |]
  in
  let cert = Numeric.certify ~width:Numeric.I8 forest in
  check_bool "unscalable threshold fires N001" true (has "N001" cert)

let test_n002_threshold_collision () =
  (* 1.0 and 1.004 on one feature: at int8 the scale is 2^6 and both
     round to 64; at int16 the scale is 2^14 and they separate. *)
  let node t l r = Tree.Node { feature = 0; threshold = t; left = l; right = r } in
  let tree = node 1.0 (leafy 0.0) (node 1.004 (leafy 1.0) (leafy 2.0)) in
  let forest =
    Forest.make ~task:Forest.Regression ~num_features:1 [| tree |]
  in
  let c8 = Numeric.certify ~width:Numeric.I8 forest in
  check_bool "int8 collision fires N002" true (has "N002" c8);
  (match c8.Numeric.collisions with
  | [ col ] ->
    check_int "one collided pair" 1 col.Numeric.pairs;
    check_bool "dead zone width reported" true
      (floats_close ~eps:1e-9 col.Numeric.widest_gap 0.004)
  | l -> Alcotest.failf "expected one collision record, got %d" (List.length l));
  let c16 = Numeric.certify ~width:Numeric.I16 forest in
  check_bool "int16 separates the thresholds" false (has "N002" c16)

let test_n003_tolerance () =
  let rng = Prng.create 5 in
  let forest = Forest.random ~num_trees:6 ~max_depth:4 ~num_features:3 rng in
  let tight = Numeric.certify ~tolerance:1e-12 ~width:Numeric.I8 forest in
  check_bool "impossible tolerance fires N003" true (has "N003" tight);
  let loose = Numeric.certify ~tolerance:1e6 ~width:Numeric.I8 forest in
  check_bool "huge tolerance passes N003" false (has "N003" loose);
  check_bool "dev bound positive" true (tight.Numeric.dev_bound.(0) > 0.0)

let test_n004_margin_flip () =
  (* Binary model whose reachable margin straddles 0: flip risk. *)
  let node t l r = Tree.Node { feature = 0; threshold = t; left = l; right = r } in
  let risky =
    Forest.make ~task:Forest.Binary_logistic ~num_features:1
      [| node 0.5 (leafy (-0.001)) (leafy 0.001) |]
  in
  let cert = Numeric.certify ~width:Numeric.I8 risky in
  check_bool "near-zero margin fires N004" true (has "N004" cert);
  check_bool "ambiguous pair counted" true (cert.Numeric.ambiguous_pairs > 0);
  (* Same shape but margins far from 0 on both sides: no flip possible. *)
  let safe =
    Forest.make ~base_score:0.0 ~task:Forest.Binary_logistic ~num_features:1
      [| node 0.5 (leafy 50.0) (leafy 80.0) |]
  in
  let cert = Numeric.certify ~width:Numeric.I16 safe in
  check_bool "decided margin passes N004" false (has "N004" cert);
  check_int "no ambiguous pairs" 0 cert.Numeric.ambiguous_pairs;
  (* Regression never fires N004. *)
  let reg =
    Forest.make ~task:Forest.Regression ~num_features:1
      [| node 0.5 (leafy (-0.001)) (leafy 0.001) |]
  in
  check_bool "regression exempt from N004" false
    (has "N004" (Numeric.certify ~width:Numeric.I8 reg))

let test_width_strings () =
  List.iter
    (fun w ->
      match Numeric.width_of_string (Numeric.width_to_string w) with
      | Ok w' -> check_bool "width round trip" true (w = w')
      | Error e -> Alcotest.fail e)
    [ Numeric.I8; Numeric.I16 ];
  check_int "int8 bits" 8 (Numeric.bits Numeric.I8);
  check_int "int16 bits" 16 (Numeric.bits Numeric.I16);
  check_bool "unknown width rejected" true
    (Result.is_error (Numeric.width_of_string "int32"))

let test_report_json () =
  let rng = Prng.create 13 in
  let forest = random_model rng in
  let cert = Numeric.certify ~width:Numeric.I16 forest in
  let j = Numeric.report_to_json cert in
  check_string "model name" forest.Forest.name
    (Json.to_str (Json.member "model" j));
  check_string "width" "int16" (Json.to_str (Json.member "width" j));
  check_int "findings serialized"
    (List.length cert.Numeric.findings)
    (List.length (Json.to_list (Json.member "findings" j)));
  check_int "one dev bound per class"
    (Forest.num_outputs forest)
    (List.length (Json.to_list (Json.member "dev_bound" j)))

let test_certified_clean_model () =
  (* Exactly-representable thresholds and leaves, decided margin: clean
     at both widths under a modest tolerance. *)
  let node t l r = Tree.Node { feature = 0; threshold = t; left = l; right = r } in
  let forest =
    Forest.make ~base_score:0.0 ~task:Forest.Regression ~num_features:1
      [| node 1.5 (leafy 2.0) (leafy 4.0); node 0.25 (leafy (-1.0)) (leafy 1.0) |]
  in
  List.iter
    (fun width ->
      let cert = Numeric.certify ~width forest in
      check_bool "power-of-two model certifies clean" true
        (Numeric.certified_clean cert);
      (* Exact representation: deviation bound collapses to the float
         slack, orders of magnitude under the tolerance. *)
      check_bool "dev bound tiny" true (cert.Numeric.dev_bound.(0) < 1e-9))
    [ Numeric.I8; Numeric.I16 ]

let suite =
  [
    qcheck ~count:200
      ~name:
        "quantized replay within proved bounds (acc/routing/deviation/flip)"
      seed_gen soundness_property;
    quick "summarize: censuses + intervals" test_summarize_census;
    quick "prefix tables bound every partial sum"
      test_prefix_bounds_partial_sums;
    quick "prefix tables reject non-permutations"
      test_prefix_bounds_rejects_non_permutation;
    quick "N001: accumulator overflow at int8 only"
      test_n001_accumulator_overflow;
    quick "N001: unscalable threshold" test_n001_unscalable_threshold;
    quick "N002: threshold collision reports dead zone"
      test_n002_threshold_collision;
    quick "N003: tolerance gates the deviation bound" test_n003_tolerance;
    quick "N004: margin flip risk, classification only"
      test_n004_margin_flip;
    quick "width parsing round trips" test_width_strings;
    quick "certificate JSON report" test_report_json;
    quick "exactly-representable model certifies clean"
      test_certified_clean_model;
  ]
