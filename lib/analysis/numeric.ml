(* Static value-range & quantization certification over forests.

   Everything here is interval arithmetic over the model — no inputs, no
   profiling. The derived facts come in three layers:

   1. summarize: per-feature threshold censuses (count / distinct / range
      / min adjacent gap) and per-tree reachable leaf intervals, folded
      into per-class reachable raw-margin bounds.

   2. prefix_bounds: for a tree evaluation order, the min/max
      contribution of every suffix — the table the future early-exit MIR
      pass consumes (stop scoring a row once the decision is invariant
      over [partial + suffix interval]).

   3. certify: derive per-feature power-of-two scales for a target
      integer width and either prove integer-only inference safe or
      refute it with N001..N004 findings. The companion executable
      quantized path (quantize / qpredict_raw) is the reference
      semantics the soundness harness replays against the proved bounds.

   Scale discipline: every scale is a power of two (2^e, e in
   [-60, 60]), so dequantization (multiply by 2^-e) is exact in doubles
   and the proved deviation bound is a statement about leaf rounding
   only, not about float arithmetic in the dequantizer. *)

module D = Tb_diag.Diagnostic
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Json = Tb_util.Json

type interval = { lo : float; hi : float }

let empty_interval = { lo = infinity; hi = neg_infinity }
let join a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

type feature_census = {
  feature : int;
  occurrences : int;
  distinct : int;
  range : interval;
  min_gap : float;
}

type summary = {
  forest_name : string;
  num_classes : int;
  features : feature_census array;
  tree_values : interval array;
  class_bounds : interval array;
}

(* Distinct sorted thresholds of one feature; shared by the census and
   the collision check. *)
let thresholds_by_feature (forest : Forest.t) =
  let per_feature = Array.make forest.Forest.num_features [] in
  Array.iter
    (fun tree ->
      Tree.fold
        ~leaf:(fun _ -> ())
        ~node:(fun f t () () ->
          per_feature.(f) <- t :: per_feature.(f))
        tree)
    forest.Forest.trees;
  Array.map
    (fun ts ->
      let all = Array.of_list ts in
      Array.sort compare all;
      let distinct =
        Array.of_list
          (Array.fold_right
             (fun t acc ->
               match acc with
               | t' :: _ when Float.equal t t' -> acc
               | _ -> t :: acc)
             all [])
      in
      (all, distinct))
    per_feature

let tree_value_interval tree =
  Tree.fold
    ~leaf:(fun v -> { lo = v; hi = v })
    ~node:(fun _ _ l r -> join l r)
    tree

let summarize (forest : Forest.t) =
  let k = Forest.num_outputs forest in
  let features =
    Array.mapi
      (fun f (all, distinct) ->
        let range =
          Array.fold_left
            (fun acc t -> join acc { lo = t; hi = t })
            empty_interval distinct
        in
        let min_gap = ref infinity in
        for i = 1 to Array.length distinct - 1 do
          min_gap := Float.min !min_gap (distinct.(i) -. distinct.(i - 1))
        done;
        {
          feature = f;
          occurrences = Array.length all;
          distinct = Array.length distinct;
          range;
          min_gap = !min_gap;
        })
      (thresholds_by_feature forest)
  in
  let tree_values = Array.map tree_value_interval forest.Forest.trees in
  let class_bounds =
    Array.init k (fun _ ->
        { lo = forest.Forest.base_score; hi = forest.Forest.base_score })
  in
  Array.iteri
    (fun i iv ->
      let c = Forest.class_of_tree forest i in
      class_bounds.(c) <-
        { lo = class_bounds.(c).lo +. iv.lo; hi = class_bounds.(c).hi +. iv.hi })
    tree_values;
  {
    forest_name = forest.Forest.name;
    num_classes = k;
    features;
    tree_values;
    class_bounds;
  }

(* ---------------- per-prefix partial-sum tables ---------------- *)

type prefix_table = {
  order : int array;
  suffix_lo : float array array;
  suffix_hi : float array array;
}

let prefix_bounds ?order (forest : Forest.t) =
  let n = Array.length forest.Forest.trees in
  let order =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
      if Array.length o <> n then
        invalid_arg "Numeric.prefix_bounds: order length mismatch";
      let seen = Array.make n false in
      Array.iter
        (fun i ->
          if i < 0 || i >= n || seen.(i) then
            invalid_arg "Numeric.prefix_bounds: order is not a permutation";
          seen.(i) <- true)
        o;
      Array.copy o
  in
  let k = Forest.num_outputs forest in
  let tree_values = Array.map tree_value_interval forest.Forest.trees in
  let suffix_lo = Array.init k (fun _ -> Array.make (n + 1) 0.0) in
  let suffix_hi = Array.init k (fun _ -> Array.make (n + 1) 0.0) in
  for pos = n - 1 downto 0 do
    let tree = order.(pos) in
    let c = Forest.class_of_tree forest tree in
    for cls = 0 to k - 1 do
      let add_lo = if cls = c then tree_values.(tree).lo else 0.0 in
      let add_hi = if cls = c then tree_values.(tree).hi else 0.0 in
      suffix_lo.(cls).(pos) <- suffix_lo.(cls).(pos + 1) +. add_lo;
      suffix_hi.(cls).(pos) <- suffix_hi.(cls).(pos + 1) +. add_hi
    done
  done;
  { order; suffix_lo; suffix_hi }

let suffix_interval t ~cls ~prefix =
  { lo = t.suffix_lo.(cls).(prefix); hi = t.suffix_hi.(cls).(prefix) }

(* ---------------- quantization plans ---------------- *)

type width = I8 | I16

let bits = function I8 -> 8 | I16 -> 16
let width_to_string = function I8 -> "int8" | I16 -> "int16"

let width_of_string = function
  | "int8" | "i8" | "8" -> Ok I8
  | "int16" | "i16" | "16" -> Ok I16
  | s -> Error (Printf.sprintf "unknown width %S (try int8 or int16)" s)

type plan = {
  width : width;
  q_max : int;
  acc_max : int;
  feature_exp : int option array;
  leaf_exp : int;
  tolerance : float;
}

type collision = {
  c_feature : int;
  pairs : int;
  widest_gap : float;
}

type certificate = {
  plan : plan;
  summary : summary;
  dev_bound : float array;
  acc_bound : int array;
  collisions : collision list;
  ambiguous_pairs : int;
  findings : D.t list;
}

let default_tolerance = 1e-3

let exp_min = -60
let exp_max = 60
let pow2 e = Float.ldexp 1.0 e

(* Largest e in [exp_min, exp_max] with mag * 2^e <= cap — so a scaled
   magnitude never exceeds cap by construction. Returns None when even
   2^exp_min overflows (absurd dynamic range — an N001). *)
let exp_for ~cap mag =
  if mag = 0.0 then Some exp_max
  else if not (Float.is_finite mag) then None
  else begin
    let cap = float_of_int cap in
    let e = ref (int_of_float (Float.floor (Float.log2 (cap /. mag)))) in
    if !e > exp_max then e := exp_max;
    if !e < exp_min then e := exp_min;
    while !e > exp_min && mag *. pow2 !e > cap do
      decr e
    done;
    while !e < exp_max && mag *. pow2 (!e + 1) <= cap do
      incr e
    done;
    if mag *. pow2 !e > cap then None else Some !e
  end

(* Saturating integer scaling. Totality over any input (including plans
   whose exponent was refuted by N001): the result always fits
   [-q_max - 1, q_max], and the evaluator, the collision check and
   dead_zone_row all go through here so they agree bit for bit. The low
   saturation point sits one below -q_max so a saturated-low input stays
   strictly below every representable threshold. *)
let quantize_scaled ~q_max scaled =
  let v = Float.round scaled in
  if Float.is_nan v then 0
  else if v >= float_of_int q_max then q_max
  else if v <= float_of_int (-q_max - 1) then -q_max - 1
  else int_of_float v

let qthreshold plan e t = quantize_scaled ~q_max:plan.q_max (t *. pow2 e)
let qleaf plan v = quantize_scaled ~q_max:plan.q_max (v *. pow2 plan.leaf_exp)

(* ---------------- certificates ---------------- *)

let finding ~code ~path fmt = D.warningf ~level:D.Numeric ~code ~path fmt

let certify ?(tolerance = default_tolerance) ~width (forest : Forest.t) =
  let summary = summarize forest in
  let q_max = (1 lsl (bits width - 1)) - 1 in
  let acc_max = (1 lsl ((2 * bits width) - 1)) - 1 in
  let findings = ref [] in
  let add d = findings := d :: !findings in
  (* Per-feature threshold scales: the finest power of two whose scaled
     threshold range still fits the width. *)
  let feature_exp =
    Array.map
      (fun (fc : feature_census) ->
        if fc.occurrences = 0 then None
        else begin
          let mag = Float.max (Float.abs fc.range.lo) (Float.abs fc.range.hi) in
          match exp_for ~cap:q_max mag with
          | Some e -> Some e
          | None ->
            add
              (finding ~code:"N001"
                 ~path:[ Printf.sprintf "feature %d" fc.feature ]
                 "threshold range [%g, %g] cannot be scaled into %s even at \
                  2^%d: scaled thresholds overflow the width"
                 fc.range.lo fc.range.hi (width_to_string width) exp_min);
            (* Saturating quantization keeps the evaluator total anyway. *)
            Some exp_min
        end)
      summary.features
  in
  (* One shared leaf/base scale: class accumulation must stay in one
     fixed-point grid. *)
  let leaf_mag =
    Array.fold_left
      (fun acc (iv : interval) ->
        Float.max acc (Float.max (Float.abs iv.lo) (Float.abs iv.hi)))
      (Float.abs forest.Forest.base_score)
      summary.tree_values
  in
  let leaf_exp =
    match exp_for ~cap:q_max leaf_mag with
    | Some e -> e
    | None ->
      add
        (finding ~code:"N001" ~path:[ "leaves" ]
           "leaf/base magnitude %g cannot be scaled into %s even at 2^%d"
           leaf_mag (width_to_string width) exp_min);
      exp_min
  in
  let plan =
    { width; q_max; acc_max; feature_exp; leaf_exp; tolerance }
  in
  (* Per-class worst-case running-accumulator magnitude (any evaluation
     order: sum of per-tree worst magnitudes) and dequantization error
     bound over routing-stable rows (per-tree worst leaf rounding error,
     Neumaier slack for the float reference included). *)
  let k = summary.num_classes in
  let qbase = qleaf plan forest.Forest.base_score in
  let acc_bound = Array.make k (abs qbase) in
  let dev_bound = Array.make k 0.0 in
  let abs_mass = Array.make k (Float.abs forest.Forest.base_score) in
  let base_err =
    Float.abs
      (forest.Forest.base_score -. (float_of_int qbase *. pow2 (-plan.leaf_exp)))
  in
  Array.iteri (fun c _ -> dev_bound.(c) <- base_err) acc_bound;
  Array.iteri
    (fun i tree ->
      let c = Forest.class_of_tree forest i in
      let worst_q, worst_err, worst_abs =
        Tree.fold
          ~leaf:(fun v ->
            let q = qleaf plan v in
            let err =
              Float.abs (v -. (float_of_int q *. pow2 (-plan.leaf_exp)))
            in
            (abs q, err, Float.abs v))
          ~node:(fun _ _ (ql, el, al) (qr, er, ar) ->
            (max ql qr, Float.max el er, Float.max al ar))
          tree
      in
      acc_bound.(c) <- acc_bound.(c) + worst_q;
      dev_bound.(c) <- dev_bound.(c) +. worst_err;
      abs_mass.(c) <- abs_mass.(c) +. worst_abs)
    forest.Forest.trees;
  Array.iteri
    (fun c m -> dev_bound.(c) <- dev_bound.(c) +. (8.0 *. epsilon_float *. m))
    abs_mass;
  (* N001: the doubled-width accumulator can wrap. *)
  Array.iteri
    (fun c bound ->
      if bound > acc_max then
        add
          (finding ~code:"N001"
             ~path:[ Printf.sprintf "class %d" c ]
             "worst-case %s accumulator magnitude %d exceeds the %d-bit \
              accumulator cap %d (%d trees at leaf scale 2^%d)"
             (width_to_string width) bound
             (2 * bits width)
             acc_max
             (Array.length forest.Forest.trees / k)
             plan.leaf_exp))
    acc_bound;
  (* N002: distinct thresholds colliding after scaling. *)
  let by_feature = thresholds_by_feature forest in
  let collisions =
    List.filter_map
      (fun (fc : feature_census) ->
        match feature_exp.(fc.feature) with
        | None -> None
        | Some e ->
          let _, distinct = by_feature.(fc.feature) in
          let pairs = ref 0 and widest = ref 0.0 in
          for i = 1 to Array.length distinct - 1 do
            if qthreshold plan e distinct.(i) = qthreshold plan e distinct.(i - 1)
            then begin
              incr pairs;
              widest := Float.max !widest (distinct.(i) -. distinct.(i - 1))
            end
          done;
          if !pairs = 0 then None
          else
            Some
              { c_feature = fc.feature; pairs = !pairs; widest_gap = !widest })
      (Array.to_list summary.features)
  in
  List.iter
    (fun col ->
      add
        (finding ~code:"N002"
           ~path:[ Printf.sprintf "feature %d" col.c_feature ]
           "%d adjacent distinct threshold pair(s) quantize to the same %s \
            value at scale 2^%d; rows inside a dead zone (widest %g) can \
            be routed differently by the integer path"
           col.pairs (width_to_string width)
           (match feature_exp.(col.c_feature) with Some e -> e | None -> 0)
           col.widest_gap))
    collisions;
  (* N003: proved deviation bound vs the requested tolerance. *)
  Array.iteri
    (fun c d ->
      if d > tolerance then
        add
          (finding ~code:"N003"
             ~path:[ Printf.sprintf "class %d" c ]
             "proved worst-case dequantized deviation %.3g exceeds the \
              tolerance %.3g (%d trees at leaf scale 2^%d)"
             d tolerance
             (Array.length forest.Forest.trees / k)
             plan.leaf_exp))
    dev_bound;
  (* N004: a class decision can flip on a routing-stable row. *)
  let ambiguous = ref 0 and worst_slack = ref neg_infinity in
  (match forest.Forest.task with
  | Forest.Regression -> ()
  | Forest.Binary_logistic ->
    let m = summary.class_bounds.(0) and d = dev_bound.(0) in
    if m.lo <= d && m.hi >= -.d then begin
      incr ambiguous;
      worst_slack := d
    end
  | Forest.Multiclass _ ->
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        let m =
          {
            lo = summary.class_bounds.(i).lo -. summary.class_bounds.(j).hi;
            hi = summary.class_bounds.(i).hi -. summary.class_bounds.(j).lo;
          }
        in
        let d = dev_bound.(i) +. dev_bound.(j) in
        if m.lo <= d && m.hi >= -.d then begin
          incr ambiguous;
          worst_slack := Float.max !worst_slack d
        end
      done
    done);
  if !ambiguous > 0 then
    add
      (finding ~code:"N004" ~path:[]
         "%d class pair(s) have reachable margins within the combined \
          deviation bound (worst %.3g) of the decision boundary: \
          quantization alone can flip the predicted class"
         !ambiguous !worst_slack);
  {
    plan;
    summary;
    dev_bound;
    acc_bound;
    collisions;
    ambiguous_pairs = !ambiguous;
    findings = List.stable_sort D.compare (List.rev !findings);
  }

let certified_clean c = c.findings = []

(* ---------------- the executable quantized path ---------------- *)

type qmodel = { qplan : plan; qforest : Forest.t }

(* The plan's integers held as integer-valued floats, so the ordinary
   tree walk evaluates the quantized model: every compare is between two
   integers and every partial sum is an integer far below 2^53, so each
   float add is exact. *)
let quantize plan (forest : Forest.t) =
  let quantize_tree =
    Tree.fold
      ~leaf:(fun v -> Tree.Leaf (float_of_int (qleaf plan v)))
      ~node:(fun feature t left right ->
        match plan.feature_exp.(feature) with
        | Some e ->
          let threshold = float_of_int (qthreshold plan e t) in
          Tree.Node { feature; threshold; left; right }
        | None -> invalid_arg "Numeric.quantize: node on an unused feature")
  in
  {
    qplan = plan;
    qforest =
      {
        forest with
        Forest.trees = Array.map quantize_tree forest.Forest.trees;
        base_score = float_of_int (qleaf plan forest.Forest.base_score);
      };
  }

let quantize_input plan row =
  Array.mapi
    (fun f x ->
      match plan.feature_exp.(f) with
      | None -> 0.0
      | Some e -> float_of_int (quantize_scaled ~q_max:plan.q_max (x *. pow2 e)))
    row

let qpredict_raw m row =
  let scale = pow2 (-m.qplan.leaf_exp) in
  Array.map
    (fun acc -> acc *. scale)
    (Forest.predict_raw m.qforest (quantize_input m.qplan row))

let dead_zone_row plan (forest : Forest.t) row =
  let qrow = quantize_input plan row in
  let hit = ref false in
  Array.iter
    (fun tree ->
      Tree.fold
        ~leaf:(fun _ -> ())
        ~node:(fun f t () () ->
          match plan.feature_exp.(f) with
          | None -> ()
          | Some e ->
            if row.(f) < t <> (qrow.(f) < float_of_int (qthreshold plan e t))
            then hit := true)
        tree)
    forest.Forest.trees;
  !hit

let reference_raw (forest : Forest.t) row =
  let k = Forest.num_outputs forest in
  let terms = Array.init k (fun _ -> ref [ forest.Forest.base_score ]) in
  Array.iteri
    (fun i tree ->
      let c = Forest.class_of_tree forest i in
      terms.(c) := Tree.predict tree row :: !(terms.(c)))
    forest.Forest.trees;
  Array.map
    (fun ts -> Tb_util.Stats.neumaier_sum (Array.of_list !(ts)))
    terms

(* ---------------- JSON report ---------------- *)

let report_to_json (c : certificate) =
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("model", Json.Str c.summary.forest_name);
      ("width", Json.Str (width_to_string c.plan.width));
      ("tolerance", num c.plan.tolerance);
      ("classes", int c.summary.num_classes);
      ("leaf_exp", int c.plan.leaf_exp);
      ( "feature_exp",
        Json.List
          (Array.to_list
             (Array.map
                (function None -> Json.Null | Some e -> int e)
                c.plan.feature_exp)) );
      ("dev_bound", Json.List (Array.to_list (Array.map num c.dev_bound)));
      ("acc_bound", Json.List (Array.to_list (Array.map int c.acc_bound)));
      ( "collisions",
        Json.List
          (List.map
             (fun col ->
               Json.Obj
                 [
                   ("feature", int col.c_feature);
                   ("pairs", int col.pairs);
                   ("widest_gap", num col.widest_gap);
                 ])
             c.collisions) );
      ("ambiguous_pairs", int c.ambiguous_pairs);
      ("findings", Json.List (List.map D.to_json c.findings));
    ]
