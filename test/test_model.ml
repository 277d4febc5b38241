open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Serialize = Tb_model.Serialize
module Model_stats = Tb_model.Model_stats
module J = Tb_util.Json

let leaf v = Tree.Leaf v

let node f t l r = Tree.Node { feature = f; threshold = t; left = l; right = r }

let small_tree = node 0 0.5 (leaf 1.0) (node 1 (-0.25) (leaf 2.0) (leaf 3.0))

let test_predict_paths () =
  check_float "left" 1.0 (Tree.predict small_tree [| 0.0; 0.0 |]);
  check_float "right-left" 2.0 (Tree.predict small_tree [| 1.0; -1.0 |]);
  check_float "right-right" 3.0 (Tree.predict small_tree [| 1.0; 0.0 |])

let test_predict_boundary_goes_right () =
  (* The node predicate is strict <: equality goes right. *)
  check_float "boundary" 2.0 (Tree.predict small_tree [| 0.5; -1.0 |])

let test_leaf_index () =
  check_int "left" 0 (Tree.predict_leaf_index small_tree [| 0.0; 0.0 |]);
  check_int "mid" 1 (Tree.predict_leaf_index small_tree [| 1.0; -1.0 |]);
  check_int "right" 2 (Tree.predict_leaf_index small_tree [| 1.0; 0.0 |])

let test_tree_counts () =
  check_int "depth" 2 (Tree.depth small_tree);
  check_int "nodes" 2 (Tree.num_nodes small_tree);
  check_int "leaves" 3 (Tree.num_leaves small_tree);
  Alcotest.(check (array (float 0.0))) "leaves in order" [| 1.0; 2.0; 3.0 |]
    (Tree.leaves small_tree);
  Alcotest.(check (array int)) "leaf depths" [| 1; 2; 2 |] (Tree.leaf_depths small_tree)

let test_structure_key () =
  let t1 = node 0 0.1 (leaf 1.0) (leaf 2.0) in
  let t2 = node 3 9.9 (leaf 7.0) (leaf 8.0) in
  check_string "same structure" (Tree.structure_key t1) (Tree.structure_key t2);
  check_bool "different structure" false
    (String.equal (Tree.structure_key t1) (Tree.structure_key small_tree))

let test_max_feature () =
  check_int "max feature" 1 (Tree.max_feature small_tree);
  check_int "lone leaf" (-1) (Tree.max_feature (leaf 0.0))

let test_random_tree_depth_bound () =
  let rng = Prng.create 1 in
  for _ = 1 to 50 do
    let t = Tree.random ~max_depth:5 rng in
    check_bool "depth bounded" true (Tree.depth t <= 5)
  done

let test_leaf_index_counts_all_leaves () =
  let rng = Prng.create 2 in
  for _ = 1 to 30 do
    let t = Tree.random ~max_depth:6 ~num_features:4 rng in
    let row = random_row rng 4 in
    let idx = Tree.predict_leaf_index t row in
    check_float "index consistent with value" (Tree.predict t row) (Tree.leaves t).(idx)
  done

(* Forest *)

let test_forest_rejects_bad_features () =
  let rejects ~num_features trees =
    match Forest.make ~task:Forest.Regression ~num_features trees with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "raises" true (rejects ~num_features:1 [| small_tree |]);
  check_bool "id past num_features" true
    (rejects ~num_features:2 [| node 2 0.5 (leaf 1.0) (leaf 2.0) |]);
  check_bool "negative id" true
    (rejects ~num_features:2
       [| node 0 0.5 (leaf 1.0) (node (-1) 0.0 (leaf 2.0) (leaf 3.0)) |])

let test_forest_rejects_bad_multiclass () =
  let trees = Array.make 5 (leaf 0.0) in
  check_bool "raises" true
    (match Forest.make ~task:(Forest.Multiclass 3) ~num_features:1 trees with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_forest_predict_sums () =
  let f =
    Forest.make ~base_score:10.0 ~task:Forest.Regression ~num_features:2
      [| small_tree; small_tree |]
  in
  check_float "sum" (10.0 +. 2.0) (Forest.predict_single f [| 0.0; 0.0 |])

let test_forest_multiclass_routing () =
  let t v = leaf v in
  let f =
    Forest.make ~task:(Forest.Multiclass 2) ~num_features:1
      [| t 1.0; t 10.0; t 2.0; t 20.0 |]
  in
  let out = Forest.predict_raw f [| 0.0 |] in
  check_float "class 0" 3.0 out.(0);
  check_float "class 1" 30.0 out.(1);
  check_int "argmax class" 1 (Forest.predict_class f [| 0.0 |])

let test_forest_binary_class () =
  let f = Forest.make ~task:Forest.Binary_logistic ~num_features:1 [| leaf 0.3 |] in
  check_int "positive" 1 (Forest.predict_class f [| 0.0 |]);
  let g = Forest.make ~task:Forest.Binary_logistic ~num_features:1 [| leaf (-0.3) |] in
  check_int "negative" 0 (Forest.predict_class g [| 0.0 |])

let test_forest_batch () =
  let f = Forest.make ~task:Forest.Regression ~num_features:2 [| small_tree |] in
  let rows = [| [| 0.0; 0.0 |]; [| 1.0; 0.0 |] |] in
  let out = Forest.predict_batch_raw f rows in
  check_float "row 0" 1.0 out.(0).(0);
  check_float "row 1" 3.0 out.(1).(0)

(* Serialization *)

let test_serialize_roundtrip_tree () =
  let rng = Prng.create 3 in
  for _ = 1 to 30 do
    let t = Tree.random ~max_depth:7 rng in
    let t' = Serialize.tree_of_json (Serialize.tree_to_json t) in
    check_bool "tree roundtrip" true (Tree.equal t t')
  done

let roundtrip_forest f =
  let f' = Serialize.of_string (Serialize.to_string f) in
  check_string "name" f.Forest.name f'.Forest.name;
  check_int "features" f.Forest.num_features f'.Forest.num_features;
  check_float "base" f.Forest.base_score f'.Forest.base_score;
  check_bool "task" true (f.Forest.task = f'.Forest.task);
  check_int "trees" (Array.length f.Forest.trees) (Array.length f'.Forest.trees);
  Array.iter2
    (fun a b -> check_bool "tree equal" true (Tree.equal a b))
    f.Forest.trees f'.Forest.trees

let test_serialize_roundtrip_forest () =
  let rng = Prng.create 4 in
  roundtrip_forest (Forest.random ~num_trees:8 rng)

let test_serialize_roundtrip_multiclass () =
  let rng = Prng.create 5 in
  let trees = Array.init 6 (fun _ -> Tree.random ~max_depth:4 ~num_features:3 rng) in
  roundtrip_forest
    (Forest.make ~name:"mc" ~base_score:0.5 ~task:(Forest.Multiclass 3) ~num_features:3 trees)

let test_serialize_preserves_predictions () =
  let rng = Prng.create 6 in
  let f = Forest.random ~num_trees:10 ~num_features:5 rng in
  let f' = Serialize.of_string (Serialize.to_string f) in
  let rows = random_rows rng 5 50 in
  Array.iter
    (fun row ->
      check_float "prediction preserved" (Forest.predict_single f row)
        (Forest.predict_single f' row))
    rows

let test_serialize_file_roundtrip () =
  let rng = Prng.create 7 in
  let f = Forest.random ~num_trees:3 rng in
  let path = Filename.temp_file "tb_model" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.to_file path f;
      roundtrip_forest f;
      let f' = Serialize.of_file path in
      check_int "trees" 3 (Array.length f'.Forest.trees))

(* Prints [j] as another writer might: members shuffled, whitespace
   between tokens, some keys spelled with a \u escape, some whole
   numbers spelled as floats (3e0, 3.0), and fields the reader must
   skip — unknown keys, node keys inside leaf objects, and duplicate
   keys after the first (which wins). *)
let noisy_json rng j =
  let buf = Buffer.create 4096 in
  let ws () = Buffer.add_string buf [| ""; ""; " "; "\n  "; "\t"; "\r\n" |].(Prng.int rng 6) in
  let junk () =
    match Prng.int rng 4 with
    | 0 -> J.Obj [ ("a", J.List [ J.Num 1.5; J.Str "q\"\\/\n\xc3\xa9" ]); ("b", J.Null) ]
    | 1 -> J.List [ J.Bool true; J.Obj []; J.List []; J.Bool false ]
    | 2 -> J.Str "esc \"aped\" \\ \b\012\r\t \x01"
    | _ -> J.Num (-1e-300)
  in
  let key k =
    if k <> "" && Prng.int rng 4 = 0 then
      Printf.bprintf buf "\"\\u%04x%s\"" (Char.code k.[0])
        (String.sub k 1 (String.length k - 1))
    else Buffer.add_string buf (J.to_string (J.Str k))
  in
  let rec go v =
    ws ();
    (match v with
    | J.Obj fields ->
      let extra =
        (if Prng.int rng 3 = 0 then [ ("unknown", junk ()) ] else [])
        @
        if List.mem_assoc "leaf" fields && Prng.int rng 3 = 0 then
          [ (Prng.choose rng [| "feature"; "threshold"; "left"; "right" |], junk ()) ]
        else []
      in
      let members = Array.of_list (fields @ extra) in
      Prng.shuffle rng members;
      let dups =
        if fields <> [] && Prng.int rng 4 = 0 then
          [ (fst (Prng.choose rng (Array.of_list fields)), junk ()) ]
        else []
      in
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          ws ();
          key k;
          ws ();
          Buffer.add_char buf ':';
          go x)
        (Array.to_list members @ dups);
      ws ();
      Buffer.add_char buf '}'
    | J.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        items;
      ws ();
      Buffer.add_char buf ']'
    | J.Num f when Float.is_integer f && Float.abs f < 1e15 && Prng.int rng 3 = 0 ->
      Buffer.add_string buf
        (if Prng.bool rng then Printf.sprintf "%.0fe0" f else Printf.sprintf "%.1f" f)
    | scalar -> Buffer.add_string buf (J.to_string scalar));
    ws ()
  in
  go j;
  Buffer.contents buf

(* Serialization must preserve thresholds and leaf values to the bit:
   the quantization certifier proves bounds about the exact IEEE-754
   constants of the model, so a printer that drops low mantissa bits
   would silently invalidate every certificate of a reloaded model.
   Adversarial constants come straight from random 64-bit patterns
   (full 53-bit mantissas, denormals, extreme exponents), not from
   "round" values a lossy printer would survive. *)
let bits_preserving_roundtrip seed =
  let rng = Prng.create seed in
  let adversarial_float () =
    let rec go () =
      let f = Int64.float_of_bits (Prng.next_int64 rng) in
      if Float.is_finite f then f else go ()
    in
    go ()
  in
  let rec build depth =
    if depth = 0 || Prng.int rng 3 = 0 then leaf (adversarial_float ())
    else
      node (Prng.int rng 3)
        (adversarial_float ())
        (build (depth - 1))
        (build (depth - 1))
  in
  let trees = Array.init (1 + Prng.int rng 4) (fun _ -> build 4) in
  let forest =
    Forest.make ~name:"bits"
      ~base_score:(adversarial_float ())
      ~task:
        (if Array.length trees mod 2 = 0 && Prng.bool rng then Forest.Multiclass 2
         else Forest.Regression)
      ~num_features:3 trees
  in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let rec same_tree a b =
    match (a, b) with
    | Tree.Leaf x, Tree.Leaf y -> same_bits x y
    | ( Tree.Node { feature = f; threshold = t; left = l; right = r },
        Tree.Node { feature = f'; threshold = t'; left = l'; right = r' } ) ->
      f = f' && same_bits t t' && same_tree l l' && same_tree r r'
    | _ -> false
  in
  let same_forest what (f : Forest.t) (f' : Forest.t) =
    if f.name <> f'.name || f.task <> f'.task || f.num_features <> f'.num_features
       || Array.length f.trees <> Array.length f'.trees
    then QCheck2.Test.fail_reportf "%s: header or tree count differs" what;
    if not (same_bits f.base_score f'.base_score) then
      QCheck2.Test.fail_reportf "%s: base_score drifted: %h -> %h" what
        f.base_score f'.base_score;
    Array.iteri
      (fun i t ->
        if not (same_tree t f'.trees.(i)) then
          QCheck2.Test.fail_reportf
            "%s: tree %d: some threshold or leaf changed bit pattern" what i)
      f.trees
  in
  same_forest "round trip" forest (Serialize.of_string (Serialize.to_string forest));
  (* Another writer's spelling of the same model reads to the same bits,
     and the DOM-free reader agrees with the DOM oracle. *)
  let noisy = noisy_json rng (Serialize.forest_to_json forest) in
  let read = Serialize.of_string noisy in
  same_forest "noisy vs oracle"
    (Serialize.forest_of_json (J.of_string noisy))
    read;
  same_forest "noisy round trip" forest read;
  true

(* Every rejected model file raises [Parse_error] and nothing else, from
   the reader and from the DOM oracle alike. *)
let test_serialize_rejects_garbage () =
  let rejects what s =
    List.iter
      (fun (reader, read) ->
        match read s with
        | exception J.Parse_error _ -> ()
        | exception e ->
          Alcotest.failf "%s (%s): %s instead of Parse_error" what reader
            (Printexc.to_string e)
        | _ -> Alcotest.failf "%s (%s): accepted %S" what reader s)
      [
        ("of_string", Serialize.of_string);
        ("oracle", fun s -> Serialize.forest_of_json (J.of_string s));
      ]
  in
  rejects "unknown schema" "{\"nope\": 1}";
  let model ?(task = {|"regression"|}) ?(feature = "0") ?trees () =
    Printf.sprintf
      {|{"name":"g","task":%s,"num_features":2,"base_score":0,"trees":%s}|}
      task
      (match trees with
      | Some t -> t
      | None ->
        Printf.sprintf
          {|[{"feature":%s,"threshold":0.5,"left":{"leaf":1},"right":{"leaf":2}}]|}
          feature)
  in
  let good = model () in
  check_int "well-formed model reads" 1
    (Array.length (Serialize.of_string good).Forest.trees);
  for i = 0 to String.length good - 1 do
    rejects (Printf.sprintf "prefix of %d bytes" i) (String.sub good 0 i)
  done;
  rejects "string feature" (model ~feature:{|"3"|} ());
  rejects "fractional feature" (model ~feature:"1.5" ());
  rejects "negative feature" (model ~feature:"-1" ());
  rejects "feature past num_features" (model ~feature:"2" ());
  rejects "nested feature past num_features"
    (model
       ~trees:
         {|[{"feature":0,"threshold":0.5,"left":{"leaf":1},"right":{"feature":2,"threshold":0,"left":{"leaf":2},"right":{"leaf":3}}}]|}
       ());
  rejects "trees object" (model ~trees:"{}" ());
  rejects "unknown task" (model ~task:{|"x"|} ());
  rejects "one class" (model ~task:{|{"multiclass":1}|} ());
  rejects "partial multiclass round" (model ~task:{|{"multiclass":2}|} ());
  rejects "node without right" (model ~trees:{|[{"feature":0,"threshold":0.5,"left":{"leaf":1}}]|} ())

(* Model statistics *)

let test_profile_counts_hits () =
  let rows = [| [| 0.0; 0.0 |]; [| 1.0; -1.0 |]; [| 1.0; 0.0 |]; [| 1.0; 0.0 |] |] in
  let p = Model_stats.profile_tree small_tree rows in
  Alcotest.(check (array int)) "hits" [| 1; 1; 2 |] p.Model_stats.hits;
  check_float "prob" 0.5 p.Model_stats.leaf_probs.(2)

let test_profile_empty_rows_uniform () =
  let p = Model_stats.profile_tree small_tree [||] in
  Array.iter (fun q -> check_float "uniform" (1.0 /. 3.0) q) p.Model_stats.leaf_probs

let test_coverage_leaves () =
  let p = { Model_stats.leaf_probs = [| 0.7; 0.2; 0.05; 0.05 |]; hits = [||] } in
  check_int "cover 0.6" 1 (Model_stats.coverage_leaves p 0.6);
  check_int "cover 0.9" 2 (Model_stats.coverage_leaves p 0.9);
  check_int "cover 1.0" 4 (Model_stats.coverage_leaves p 1.0)

let test_is_leaf_biased () =
  let concentrated = { Model_stats.leaf_probs = Array.append [| 0.95 |] (Array.make 19 (0.05 /. 19.)); hits = [||] } in
  check_bool "biased" true
    (Model_stats.is_leaf_biased concentrated ~alpha:0.075 ~beta:0.9);
  let uniform = { Model_stats.leaf_probs = Array.make 20 0.05; hits = [||] } in
  check_bool "not biased" false
    (Model_stats.is_leaf_biased uniform ~alpha:0.075 ~beta:0.9)

let test_coverage_cdf_monotone () =
  let rng = Prng.create 8 in
  let f = Forest.random ~num_trees:10 ~num_features:4 rng in
  let rows = random_rows rng 4 200 in
  let cdf = Model_stats.coverage_cdf f rows ~f:0.9 in
  check_int "one point per tree" 10 (Array.length cdf);
  let last = ref 0.0 in
  Array.iter
    (fun (x, y) ->
      check_bool "x sorted" true (x >= !last);
      last := x;
      check_bool "y in range" true (y > 0.0 && y <= 1.0))
    cdf;
  check_float "cdf ends at 1" 1.0 (snd cdf.(9))

let test_expected_leaf_depth () =
  let p = { Model_stats.leaf_probs = [| 0.5; 0.25; 0.25 |]; hits = [||] } in
  (* depths: 1, 2, 2 *)
  check_float "expected depth" 1.5 (Model_stats.expected_leaf_depth small_tree p)

let suite =
  [
    quick "predict paths" test_predict_paths;
    quick "boundary equality goes right" test_predict_boundary_goes_right;
    quick "leaf index" test_leaf_index;
    quick "tree counts" test_tree_counts;
    quick "structure key" test_structure_key;
    quick "max feature" test_max_feature;
    quick "random tree depth bound" test_random_tree_depth_bound;
    quick "leaf index consistent with predict" test_leaf_index_counts_all_leaves;
    quick "forest rejects bad features" test_forest_rejects_bad_features;
    quick "forest rejects bad multiclass" test_forest_rejects_bad_multiclass;
    quick "forest predict sums" test_forest_predict_sums;
    quick "multiclass routing" test_forest_multiclass_routing;
    quick "binary class decision" test_forest_binary_class;
    quick "batch prediction" test_forest_batch;
    quick "serialize tree roundtrip" test_serialize_roundtrip_tree;
    quick "serialize forest roundtrip" test_serialize_roundtrip_forest;
    quick "serialize multiclass roundtrip" test_serialize_roundtrip_multiclass;
    quick "serialize preserves predictions" test_serialize_preserves_predictions;
    quick "serialize file roundtrip" test_serialize_file_roundtrip;
    qcheck ~count:100
      ~name:"serialize preserves IEEE-754 bit patterns exactly" seed_gen
      bits_preserving_roundtrip;
    quick "serialize rejects garbage" test_serialize_rejects_garbage;
    quick "profile counts hits" test_profile_counts_hits;
    quick "profile of empty rows is uniform" test_profile_empty_rows_uniform;
    quick "coverage leaves" test_coverage_leaves;
    quick "leaf bias classification" test_is_leaf_biased;
    quick "coverage cdf monotone" test_coverage_cdf_monotone;
    quick "expected leaf depth" test_expected_leaf_depth;
  ]
