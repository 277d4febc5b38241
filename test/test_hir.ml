open Helpers
module Prng = Tb_util.Prng
module Tree = Tb_model.Tree
module Forest = Tb_model.Forest
module Model_stats = Tb_model.Model_stats
module Shape = Tb_hir.Shape
module Lut = Tb_hir.Lut
module Itree = Tb_hir.Itree
module Tiling = Tb_hir.Tiling
module Tiled_tree = Tb_hir.Tiled_tree
module Padding = Tb_hir.Padding
module Reorder = Tb_hir.Reorder
module Schedule = Tb_hir.Schedule
module Program = Tb_hir.Program
module Hir_check = Tb_analysis.Hir_check

(* ------------------------------------------------------------------ *)
(* Shapes and LUT                                                      *)
(* ------------------------------------------------------------------ *)

let catalan = [| 1; 1; 2; 5; 14; 42; 132; 429; 1430 |]

let test_shape_enumeration_counts () =
  for n = 1 to 6 do
    let shapes = Shape.enumerate ~max_size:n in
    let expected = Array.fold_left ( + ) 0 (Array.sub catalan 1 n) in
    check_int (Printf.sprintf "count up to %d" n) expected (List.length shapes)
  done

let test_shape_sizes () =
  List.iter
    (fun s ->
      check_bool "size in range" true (Shape.size s >= 1 && Shape.size s <= 4);
      check_int "exits" (Shape.size s + 1) (Shape.num_exits s))
    (Shape.enumerate ~max_size:4)

(* Independent reference navigation: recursively walk the shape, consuming
   bits by level-order node index computed from scratch. *)
let reference_navigate shape ~tile_size ~bits =
  (* Assign level-order ids. *)
  let ids = Hashtbl.create 16 in
  let q = Queue.create () in
  Queue.add (shape, []) q;
  let n = ref 0 in
  while not (Queue.is_empty q) do
    let Shape.Node (l, r), path = Queue.pop q in
    Hashtbl.add ids path !n;
    incr n;
    (match l with Some s -> Queue.add (s, 0 :: path) q | None -> ());
    (match r with Some s -> Queue.add (s, 1 :: path) q | None -> ())
  done;
  (* Count exits left of the exit reached. *)
  let exit_counter = ref 0 in
  let result = ref (-1) in
  let rec dfs (Shape.Node (l, r)) path on_path =
    let id = Hashtbl.find ids path in
    let bit = (bits lsr (tile_size - 1 - id)) land 1 in
    let go_left = bit = 1 in
    (match l with
    | Some s -> dfs s (0 :: path) (on_path && go_left)
    | None ->
      if on_path && go_left && !result < 0 then result := !exit_counter;
      incr exit_counter);
    match r with
    | Some s -> dfs s (1 :: path) (on_path && not go_left)
    | None ->
      if on_path && (not go_left) && !result < 0 then result := !exit_counter;
      incr exit_counter
  in
  dfs shape [] true;
  !result

let test_navigate_exhaustive_small () =
  (* Every shape of size <= 4, every bitmask, tile sizes 4: LUT navigation
     equals the independent reference. *)
  let tile_size = 4 in
  List.iter
    (fun shape ->
      for bits = 0 to (1 lsl tile_size) - 1 do
        check_int
          (Printf.sprintf "shape %s bits %d" (Shape.to_string shape) bits)
          (reference_navigate shape ~tile_size ~bits)
          (Shape.navigate shape ~tile_size ~bits)
      done)
    (Shape.enumerate ~max_size:tile_size)

let test_navigate_exhaustive_chains_size8 () =
  (* Size-8 exhaustive enumeration is 1430 shapes x 256 masks — sample the
     extremes: left chain, right chain, and balanced-ish shapes. *)
  let rec left_chain n =
    if n = 1 then Shape.Node (None, None)
    else Shape.Node (Some (left_chain (n - 1)), None)
  in
  let rec right_chain n =
    if n = 1 then Shape.Node (None, None)
    else Shape.Node (None, Some (right_chain (n - 1)))
  in
  let tile_size = 8 in
  List.iter
    (fun shape ->
      for bits = 0 to 255 do
        check_int "chain navigate"
          (reference_navigate shape ~tile_size ~bits)
          (Shape.navigate shape ~tile_size ~bits)
      done)
    [ left_chain 8; right_chain 8 ]

let test_lut_exhaustive_size8 () =
  (* Every shape of 1..8 nodes (2 055 of them) in one tile-size-8
     registry: each whole LUT row equals the reference under all 256
     masks. *)
  let tile_size = 8 in
  let lut = Lut.create ~tile_size in
  let shapes = Shape.enumerate ~max_size:tile_size in
  check_int "shapes of <= 8 nodes" 2055 (List.length shapes);
  List.iter
    (fun shape ->
      let shape_id = Lut.shape_id lut shape in
      Alcotest.(check (array int))
        (Printf.sprintf "row of %s" (Shape.to_string shape))
        (Array.init (1 lsl tile_size) (fun bits ->
             reference_navigate shape ~tile_size ~bits))
        (Lut.row lut ~shape_id))
    shapes

let test_navigate_paper_example () =
  (* Figure 5's first tile shape is the left chain (nodes 0-1-2 down the
     left spine, children a,b,c,d left to right). The paper's examples:
     outcome 111 -> a; 110 -> b (= LUT value 2 with the paper's 1-based
     child numbering); 011 -> d (the 4th child). Our children are
     0-based. *)
  let left_chain =
    Shape.Node (Some (Shape.Node (Some (Shape.Node (None, None)), None)), None)
  in
  check_int "111 -> a" 0 (Shape.navigate left_chain ~tile_size:3 ~bits:0b111);
  check_int "110 -> b (paper's 2nd child)" 1
    (Shape.navigate left_chain ~tile_size:3 ~bits:0b110);
  check_int "011 -> d (paper's 4th child)" 3
    (Shape.navigate left_chain ~tile_size:3 ~bits:0b011);
  (* And the balanced shape: 011 must give the 3rd child (paper: "it is the
     3rd child for the other tile shape (node c)"). *)
  let balanced =
    Shape.Node (Some (Shape.Node (None, None)), Some (Shape.Node (None, None)))
  in
  check_int "balanced 111 -> child 0" 0
    (Shape.navigate balanced ~tile_size:3 ~bits:0b111);
  check_int "balanced 011 -> c (paper's 3rd child)" 2
    (Shape.navigate balanced ~tile_size:3 ~bits:0b011);
  check_int "balanced 000 -> child 3" 3
    (Shape.navigate balanced ~tile_size:3 ~bits:0b000)

let test_navigate_ignores_dummy_bits () =
  (* A size-2 shape inside tile_size 4: bits of absent nodes must not
     change the result. *)
  let shape = Shape.Node (Some (Shape.Node (None, None)), None) in
  let tile_size = 4 in
  let results = Hashtbl.create 4 in
  for bits = 0 to 15 do
    let relevant = bits lsr 2 in
    (* nodes 0,1 occupy the top two bits *)
    let r = Shape.navigate shape ~tile_size ~bits in
    match Hashtbl.find_opt results relevant with
    | None -> Hashtbl.add results relevant r
    | Some r' -> check_int "dummy bits ignored" r' r
  done

let test_lut_matches_navigate () =
  let lut = Lut.create ~tile_size:3 in
  List.iter
    (fun shape ->
      let id = Lut.shape_id lut shape in
      for bits = 0 to 7 do
        check_int "lut = navigate"
          (Shape.navigate shape ~tile_size:3 ~bits)
          (Lut.lookup lut ~shape_id:id ~bits)
      done)
    (Shape.enumerate ~max_size:3)

let test_lut_interning () =
  let lut = Lut.create ~tile_size:2 in
  let s = Shape.Node (Some (Shape.Node (None, None)), None) in
  let id1 = Lut.shape_id lut s in
  let id2 = Lut.shape_id lut s in
  check_int "same id" id1 id2;
  check_int "num shapes" 1 (Lut.num_shapes lut);
  check_bool "shape_of_id" true (Shape.equal (Lut.shape_of_id lut id1) s)

let test_lut_rejects_oversized () =
  let lut = Lut.create ~tile_size:1 in
  let s = Shape.Node (Some (Shape.Node (None, None)), None) in
  check_bool "raises" true
    (match Lut.shape_id lut s with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Itree                                                               *)
(* ------------------------------------------------------------------ *)

let test_itree_roundtrip () =
  let rng = Prng.create 11 in
  for _ = 1 to 50 do
    let tree = Tree.random ~max_depth:7 rng in
    check_bool "roundtrip" true (Tree.equal tree (Itree.to_tree (Itree.of_tree tree)))
  done

let test_itree_node_probs_root_is_one () =
  let rng = Prng.create 12 in
  for _ = 1 to 20 do
    let tree = Tree.random ~max_depth:6 rng in
    let it = Itree.of_tree tree in
    let nl = Tree.num_leaves tree in
    let leaf_probs = Array.make nl (1.0 /. float_of_int nl) in
    let probs = Itree.node_probs it ~leaf_probs in
    check_bool "root prob 1" true (floats_close probs.(Itree.root) 1.0)
  done

let test_itree_depth_of () =
  let tree =
    Tree.Node
      {
        feature = 0;
        threshold = 0.0;
        left = Tree.Leaf 1.0;
        right =
          Tree.Node
            { feature = 1; threshold = 0.0; left = Tree.Leaf 2.0; right = Tree.Leaf 3.0 };
      }
  in
  let it = Itree.of_tree tree in
  check_int "root depth" 0 (Itree.depth_of it Itree.root);
  (* preorder: 0=root, 1=left leaf, 2=right node, 3/4 its leaves *)
  check_int "leaf depth" 1 (Itree.depth_of it 1);
  check_int "deep leaf depth" 2 (Itree.depth_of it 4)

(* ------------------------------------------------------------------ *)
(* Tiling                                                              *)
(* ------------------------------------------------------------------ *)

let random_leaf_probs rng n =
  let raw = Array.init n (fun _ -> Prng.uniform rng ** 3.0) in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.map (fun x -> x /. total) raw

let tiling_valid_property ~probabilistic seed =
  let rng = Prng.create seed in
  let tree = Tree.random ~max_depth:8 rng in
  let it = Itree.of_tree tree in
  let tile_size = 1 + Prng.int rng 8 in
  let tiling =
    if probabilistic then begin
      let leaf_probs = random_leaf_probs rng (Tree.num_leaves tree) in
      let node_probs = Itree.node_probs it ~leaf_probs in
      Tiling.probability_based it ~node_probs ~tile_size
    end
    else Tiling.basic it ~tile_size
  in
  match Tiling.check_valid it tiling with
  | Ok () -> true
  | Error msg -> QCheck2.Test.fail_reportf "invalid tiling: %s" msg

let test_basic_tiling_tile_size_one () =
  (* Tile size 1 must produce one tile per internal node. *)
  let rng = Prng.create 21 in
  for _ = 1 to 20 do
    let tree = Tree.random ~max_depth:6 rng in
    let it = Itree.of_tree tree in
    let tiling = Tiling.basic it ~tile_size:1 in
    check_int "one tile per internal node" (Tree.num_nodes tree)
      tiling.Tiling.num_tiles
  done

let test_basic_tiling_complete_tree () =
  (* A complete depth-3 tree (7 internal nodes) tiled with n_t = 3 should
     put the top 3 nodes in tile 0 (FAST-style triangular tiling). *)
  let rec complete d =
    if d = 0 then Tree.Leaf 0.5
    else
      Tree.Node
        { feature = d; threshold = 0.0; left = complete (d - 1); right = complete (d - 1) }
  in
  let it = Itree.of_tree (complete 3) in
  let tiling = Tiling.basic it ~tile_size:3 in
  (match Tiling.check_valid it tiling with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* nodes: preorder; root=0, its children are 1 and 8 (left subtree has 7
     nodes: 3 internal + 4 leaves). *)
  check_int "root tile" 0 tiling.Tiling.tile_of_node.(0);
  check_int "left child same tile" 0 tiling.Tiling.tile_of_node.(1);
  check_int "right child same tile" 0 tiling.Tiling.tile_of_node.(8);
  check_int "5 tiles total" 5 tiling.Tiling.num_tiles

let test_probability_tiling_prefers_probable () =
  (* A right-chain where the deepest leaf is overwhelmingly likely: with
     tile size 2 the first tile must contain the two topmost chain nodes
     (they lie on the hot path), keeping the hot leaf shallow. *)
  let tree =
    Tree.Node
      {
        feature = 0;
        threshold = 0.0;
        left = Tree.Leaf 1.0;
        right =
          Tree.Node
            {
              feature = 1;
              threshold = 0.0;
              left = Tree.Leaf 2.0;
              right =
                Tree.Node
                  {
                    feature = 2;
                    threshold = 0.0;
                    left = Tree.Leaf 3.0;
                    right = Tree.Leaf 4.0;
                  };
            };
      }
  in
  let it = Itree.of_tree tree in
  (* leaves left-to-right: 1.0, 2.0, 3.0, 4.0; make leaf 4.0 hot. *)
  let node_probs = Itree.node_probs it ~leaf_probs:[| 0.05; 0.05; 0.05; 0.85 |] in
  let tiling = Tiling.probability_based it ~node_probs ~tile_size:2 in
  (match Tiling.check_valid it tiling with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* preorder ids: 0 root, 1 leaf, 2 node, 3 leaf, 4 node, 5/6 leaves *)
  check_int "root and hot child share tile" tiling.Tiling.tile_of_node.(0)
    tiling.Tiling.tile_of_node.(2)

let test_tile_root_and_nodes () =
  let rng = Prng.create 23 in
  let tree = Tree.random ~max_depth:7 rng in
  let it = Itree.of_tree tree in
  let tiling = Tiling.basic it ~tile_size:4 in
  for tid = 0 to tiling.Tiling.num_tiles - 1 do
    let nodes = Tiling.nodes_of_tile tiling tid in
    let root = Tiling.tile_root it tiling tid in
    check_bool "root in tile" true (List.mem root nodes);
    check_bool "nonempty" true (nodes <> [])
  done

(* ------------------------------------------------------------------ *)
(* Tiled trees                                                         *)
(* ------------------------------------------------------------------ *)

let tiled_walk_equivalence_property ~probabilistic ~pad seed =
  let rng = Prng.create seed in
  let num_features = 6 in
  let tree = Tree.random ~max_depth:8 ~num_features rng in
  let it = Itree.of_tree tree in
  let tile_size = 1 + Prng.int rng 8 in
  let lut = Lut.create ~tile_size in
  let tiling =
    if probabilistic then begin
      let leaf_probs = random_leaf_probs rng (Tree.num_leaves tree) in
      let node_probs = Itree.node_probs it ~leaf_probs in
      Tiling.probability_based it ~node_probs ~tile_size
    end
    else Tiling.basic it ~tile_size
  in
  let tiled = Tiled_tree.create lut it tiling in
  let tiled = if pad then Padding.pad_to_uniform_depth tiled else tiled in
  let rows = random_rows rng num_features 64 in
  Array.for_all
    (fun row -> floats_close (Tree.predict tree row) (Tiled_tree.walk tiled row))
    rows
  || QCheck2.Test.fail_reportf "tiled walk diverges (nt=%d pad=%b)" tile_size pad

let tiled_tree_construction_property seed =
  (* [Tiled_tree.create] under all four tilings: the HIR checks find
     nothing, each tile's lane 0 is the node [Tiling.tile_root] names, and
     the tiled walk returns the source tree's leaf. *)
  let rng = Prng.create seed in
  let num_features = 6 in
  let tree = Tree.random ~max_depth:8 ~num_features rng in
  let it = Itree.of_tree tree in
  let tile_size = 1 + Prng.int rng 8 in
  let node_probs =
    Itree.node_probs it ~leaf_probs:(random_leaf_probs rng (Tree.num_leaves tree))
  in
  let rows = random_rows rng num_features 32 in
  List.for_all
    (fun (name, tiling) ->
      let fail fmt =
        QCheck2.Test.fail_reportf ("%s tiling, nt=%d: " ^^ fmt) name tile_size
      in
      let tiled = Tiled_tree.create (Lut.create ~tile_size) it tiling in
      (match
         Hir_check.check_tree_against_source tree tiled
         @ Hir_check.check_tiled_tree ~num_features tiled
       with
      | [] -> ()
      | d :: _ -> fail "%s" (Tb_diag.Diagnostic.to_string d));
      Array.iter
        (function
          | Tiled_tree.Leaf _ -> ()
          | Tiled_tree.Tile tile ->
            let lane0 = tile.Tiled_tree.node_ids.(0) in
            let root =
              Tiling.tile_root it tiling tiling.Tiling.tile_of_node.(lane0)
            in
            if lane0 <> root then
              fail "tile lane 0 is node %d, its tile's root is %d" lane0 root)
        tiled.Tiled_tree.nodes;
      Array.iter
        (fun row ->
          if not (Float.equal (Tree.predict tree row) (Tiled_tree.walk tiled row))
          then fail "tiled walk diverges")
        rows;
      true)
    [
      ("basic", Tiling.basic it ~tile_size);
      ("probability", Tiling.probability_based it ~node_probs ~tile_size);
      ( "optimal-probability",
        Tiling.optimal_probability_based it ~node_probs ~tile_size );
      ("min-max-depth", Tiling.min_max_depth it ~tile_size);
    ]

let test_tiled_tree_scalar_depth () =
  (* Tile size 1: tiled depth equals binary depth (in tiles = nodes+1 on
     the path... the deepest leaf is depth-of-tree tiles down). *)
  let rng = Prng.create 31 in
  for _ = 1 to 20 do
    let tree = Tree.random ~max_depth:7 rng in
    let it = Itree.of_tree tree in
    let lut = Lut.create ~tile_size:1 in
    let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size:1) in
    check_int "depth matches" (Tree.depth tree) (Tiled_tree.depth tiled)
  done

let test_tiled_tree_leaf_count () =
  let rng = Prng.create 32 in
  for _ = 1 to 20 do
    let tree = Tree.random ~max_depth:7 rng in
    let it = Itree.of_tree tree in
    let lut = Lut.create ~tile_size:4 in
    let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size:4) in
    check_int "leaves preserved" (Tree.num_leaves tree) (Tiled_tree.num_leaves tiled)
  done

let test_tiled_tree_single_leaf () =
  let it = Itree.of_tree (Tree.Leaf 7.5) in
  let lut = Lut.create ~tile_size:4 in
  let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size:4) in
  check_float "constant walk" 7.5 (Tiled_tree.walk tiled [| 0.0 |]);
  check_int "depth 0" 0 (Tiled_tree.depth tiled)

let test_padding_uniform () =
  let rng = Prng.create 33 in
  for _ = 1 to 30 do
    let tree = Tree.random ~max_depth:8 rng in
    let it = Itree.of_tree tree in
    let tile_size = 1 + Prng.int rng 4 in
    let lut = Lut.create ~tile_size in
    let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size) in
    let padded = Padding.pad_to_uniform_depth tiled in
    check_bool "uniform after pad" true (Tiled_tree.is_uniform_depth padded);
    check_int "depth preserved" (Tiled_tree.depth tiled) (Tiled_tree.depth padded);
    check_int "imbalance zero" 0 (Padding.imbalance padded)
  done

let test_padding_idempotent_on_uniform () =
  let rng = Prng.create 34 in
  let tree = Tree.random ~max_depth:6 rng in
  let it = Itree.of_tree tree in
  let lut = Lut.create ~tile_size:2 in
  let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size:2) in
  let p1 = Padding.pad_to_uniform_depth tiled in
  let p2 = Padding.pad_to_uniform_depth p1 in
  check_bool "physically unchanged" true (p1 == p2)

let test_padding_to_larger_depth () =
  let it = Itree.of_tree (Tree.Node
    { feature = 0; threshold = 0.0; left = Tree.Leaf 1.0; right = Tree.Leaf 2.0 }) in
  let lut = Lut.create ~tile_size:2 in
  let tiled = Tiled_tree.create lut it (Tiling.basic it ~tile_size:2) in
  let padded = Padding.pad_to_depth tiled ~depth:4 in
  check_int "depth 4" 4 (Tiled_tree.depth padded);
  check_bool "uniform" true (Tiled_tree.is_uniform_depth padded);
  check_float "walk left" 1.0 (Tiled_tree.walk padded [| -1.0 |]);
  check_float "walk right" 2.0 (Tiled_tree.walk padded [| 1.0 |])

let test_expected_depth_prob_beats_basic_on_biased () =
  (* Aggregate property over strongly leaf-biased random trees. *)
  let rng = Prng.create 35 in
  let basic_total = ref 0.0 and prob_total = ref 0.0 in
  for _ = 1 to 40 do
    let tree = Tree.random ~max_depth:8 rng in
    let nl = Tree.num_leaves tree in
    if nl >= 4 then begin
      let it = Itree.of_tree tree in
      (* Concentrate 94% of the mass on one random leaf. *)
      let hot = Prng.int rng nl in
      let leaf_probs =
        Array.init nl (fun i ->
            if i = hot then 0.94 else 0.06 /. float_of_int (nl - 1))
      in
      let node_probs = Itree.node_probs it ~leaf_probs in
      let tile_size = 4 in
      let lut = Lut.create ~tile_size in
      let expected tiling =
        let tiled = Tiled_tree.create lut it tiling in
        (* leaf probability by reached node: replay per-leaf mass. *)
        let leaf_nodes = Hashtbl.create 16 in
        let rank = Itree.leaf_rank it in
        (* Walk every source leaf's representative row? Simpler: use
           Tiled_tree.expected_depth with probabilities derived from
           structure: map tiled leaves to source leaf order. *)
        ignore rank;
        ignore leaf_nodes;
        let depths = List.rev (Tiled_tree.leaf_depths tiled) in
        (* leaf_depths lists leaves in DFS order = left-to-right source
           order (padding dead leaves excluded). *)
        List.fold_left2
          (fun acc (d, _) p -> acc +. (float_of_int d *. p))
          0.0 depths (Array.to_list leaf_probs)
      in
      basic_total := !basic_total +. expected (Tiling.basic it ~tile_size);
      prob_total :=
        !prob_total +. expected (Tiling.probability_based it ~node_probs ~tile_size)
    end
  done;
  check_bool
    (Printf.sprintf "prob (%.2f) <= basic (%.2f) x 1.02" !prob_total !basic_total)
    true
    (!prob_total <= !basic_total *. 1.02)

(* ------------------------------------------------------------------ *)
(* Reordering and Program                                              *)
(* ------------------------------------------------------------------ *)

let test_reorder_covers_all () =
  let rng = Prng.create 41 in
  let trees =
    Array.init 20 (fun _ ->
        let tree = Tree.random ~max_depth:6 rng in
        let it = Itree.of_tree tree in
        let lut = Lut.create ~tile_size:2 in
        Tiled_tree.create lut it (Tiling.basic it ~tile_size:2))
  in
  let groups = Reorder.reorder trees in
  let seen = Array.make 20 false in
  List.iter
    (fun g ->
      Array.iter
        (fun i ->
          check_bool "no duplicate" false seen.(i);
          seen.(i) <- true)
        g.Reorder.positions)
    groups;
  check_bool "all covered" true (Array.for_all Fun.id seen)

let test_reorder_groups_isomorphic () =
  (* Identical trees must land in one shared-structure group. *)
  let tree =
    Tree.Node { feature = 0; threshold = 0.5; left = Tree.Leaf 1.0; right = Tree.Leaf 2.0 }
  in
  let lut = Lut.create ~tile_size:2 in
  let mk () =
    let it = Itree.of_tree tree in
    Tiled_tree.create lut it (Tiling.basic it ~tile_size:2)
  in
  let groups = Reorder.reorder (Array.init 5 (fun _ -> mk ())) in
  check_int "one group" 1 (List.length groups);
  check_bool "shared structure" true (List.hd groups).Reorder.shared_structure;
  check_int "one code variant" 1 (Reorder.num_code_variants groups)

let random_forest rng =
  Forest.random ~num_trees:(3 + Prng.int rng 10) ~max_depth:6 ~num_features:6 rng

let program_equivalence_property seed =
  let rng = Prng.create seed in
  let forest = random_forest rng in
  let schedule =
    {
      Schedule.scalar_baseline with
      tile_size = 1 + Prng.int rng 8;
      tiling = (if Prng.bool rng then Schedule.Basic else Schedule.Probability_based);
      pad_and_unroll = Prng.bool rng;
      pad_imbalance_limit = Prng.int rng 8;
    }
  in
  let rows = random_rows rng forest.Forest.num_features 16 in
  let profiles = Model_stats.profile_forest forest rows in
  let program = Program.build ~profiles forest schedule in
  Array.for_all
    (fun row ->
      arrays_close (Forest.predict_raw forest row) (Program.reference_predict program row))
    rows
  || QCheck2.Test.fail_reportf "program diverges: %s" (Schedule.to_string schedule)

let test_program_multiclass_classes () =
  let rng = Prng.create 43 in
  let k = 3 in
  let trees = Array.init 6 (fun _ -> Tree.random ~max_depth:4 ~num_features:4 rng) in
  let forest = Forest.make ~task:(Forest.Multiclass k) ~num_features:4 trees in
  let program = Program.build forest Schedule.default in
  let rows = random_rows rng 4 20 in
  Array.iter
    (fun row ->
      let a = Forest.predict_raw forest row in
      let b = Program.reference_predict program row in
      check_bool "multiclass equal" true (arrays_close a b))
    rows

let test_schedule_validate () =
  check_bool "default ok" true (Schedule.validate Schedule.default = Ok ());
  check_bool "bad tile size" true
    (Result.is_error (Schedule.validate { Schedule.default with tile_size = 9 }));
  check_bool "bad interleave" true
    (Result.is_error (Schedule.validate { Schedule.default with interleave = 0 }))

let test_table2_grid_sane () =
  let grid = Schedule.table2_grid in
  check_bool "non-trivial grid" true (List.length grid > 100);
  List.iter
    (fun s ->
      match Schedule.validate s with
      | Ok () -> ()
      | Error m -> Alcotest.failf "invalid grid schedule %s: %s" (Schedule.to_string s) m)
    grid

let test_leaf_biased_trees_get_probability_tiling () =
  let rng = Prng.create 44 in
  let forest = random_forest rng in
  (* Rows drawn from a single point mass: every tree becomes leaf-biased. *)
  let row = random_row rng forest.Forest.num_features in
  let rows = Array.make 50 row in
  let profiles = Model_stats.profile_forest forest rows in
  let program =
    Program.build ~profiles forest
      { Schedule.default with tiling = Schedule.Probability_based }
  in
  check_int "all trees probability-tiled"
    (Array.length forest.Forest.trees)
    (Program.num_leaf_biased program)

let suite =
  [
    quick "shape enumeration counts (Catalan)" test_shape_enumeration_counts;
    quick "shape sizes and exits" test_shape_sizes;
    quick "navigate exhaustive (size<=4)" test_navigate_exhaustive_small;
    quick "navigate chains at size 8" test_navigate_exhaustive_chains_size8;
    quick "navigate matches paper Fig.5" test_navigate_paper_example;
    quick "navigate ignores dummy bits" test_navigate_ignores_dummy_bits;
    quick "lut matches navigate" test_lut_matches_navigate;
    quick "lut interning" test_lut_interning;
    quick "lut rejects oversized shapes" test_lut_rejects_oversized;
    quick "itree roundtrip" test_itree_roundtrip;
    quick "itree node probs root=1" test_itree_node_probs_root_is_one;
    quick "itree depth_of" test_itree_depth_of;
    qcheck ~name:"basic tiling is valid" seed_gen
      (tiling_valid_property ~probabilistic:false);
    qcheck ~name:"probability tiling is valid" seed_gen
      (tiling_valid_property ~probabilistic:true);
    quick "tile size 1 = one tile per node" test_basic_tiling_tile_size_one;
    quick "basic tiling on complete tree" test_basic_tiling_complete_tree;
    quick "probability tiling follows hot path" test_probability_tiling_prefers_probable;
    quick "tile roots well-defined" test_tile_root_and_nodes;
    qcheck ~name:"tiled walk == binary walk (basic)" seed_gen
      (tiled_walk_equivalence_property ~probabilistic:false ~pad:false);
    qcheck ~name:"tiled walk == binary walk (probability)" seed_gen
      (tiled_walk_equivalence_property ~probabilistic:true ~pad:false);
    qcheck ~name:"tiled walk == binary walk (padded)" seed_gen
      (tiled_walk_equivalence_property ~probabilistic:false ~pad:true);
    quick "tile size 1 depth" test_tiled_tree_scalar_depth;
    quick "tiled leaf count" test_tiled_tree_leaf_count;
    quick "single leaf tree" test_tiled_tree_single_leaf;
    quick "padding yields uniform depth" test_padding_uniform;
    quick "padding idempotent" test_padding_idempotent_on_uniform;
    quick "padding to larger depth" test_padding_to_larger_depth;
    quick "probability tiling lowers expected depth" test_expected_depth_prob_beats_basic_on_biased;
    quick "reorder covers all trees" test_reorder_covers_all;
    quick "reorder groups isomorphic trees" test_reorder_groups_isomorphic;
    qcheck ~name:"program reference == forest" seed_gen program_equivalence_property;
    quick "program multiclass aggregation" test_program_multiclass_classes;
    quick "schedule validation" test_schedule_validate;
    quick "table2 grid sane" test_table2_grid_sane;
    quick "leaf-biased trees use Algorithm 1" test_leaf_biased_trees_get_probability_tiling;
    quick "lut rows exhaustive (size<=8)" test_lut_exhaustive_size8;
    qcheck ~name:"tiled tree construction (four tilings)" seed_gen
      tiled_tree_construction_property;
  ]
