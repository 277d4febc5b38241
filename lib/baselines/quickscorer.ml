module Forest = Tb_model.Forest
module Tree = Tb_model.Tree
module Config = Tb_cpu.Config

(* Arbitrary-width bitvectors over a tree's leaves, leaf 0 = bit 0 of word
   0. "Leftmost leaf" = lowest set bit. *)
module Bits = struct
  let words n = (n + 62) / 63

  let make_ones n =
    let w = words n in
    Array.init w (fun i ->
        let remaining = n - (i * 63) in
        if remaining >= 63 then -1 (* all 63 bits; max_int has only 62 *)
        else (1 lsl remaining) - 1)

  let land_into dst src =
    for i = 0 to Array.length dst - 1 do
      dst.(i) <- dst.(i) land src.(i)
    done

  let lowest_set v =
    let rec word i =
      if i >= Array.length v then invalid_arg "Quickscorer: empty bitvector"
      else if v.(i) = 0 then word (i + 1)
      else begin
        let w = v.(i) in
        let rec bit b = if (w lsr b) land 1 = 1 then b else bit (b + 1) in
        (i * 63) + bit 0
      end
    in
    word 0
end

(* One false-node entry: applied when row.(feature) >= threshold. *)
type node_entry = {
  threshold : float;
  tree : int;
  mask : int array;  (** zeros on the left-subtree leaves *)
}

type t = {
  (* per feature, entries sorted by ascending threshold *)
  by_feature : node_entry array array;
  leaf_values : float array array;  (** per tree *)
  num_leaves : int array;
  tree_class : int array;
  num_outputs : int;
  base_score : float;
}

let compile (forest : Forest.t) =
  let num_trees = Array.length forest.Forest.trees in
  let per_feature = Array.make forest.Forest.num_features [] in
  let leaf_values = Array.make num_trees [||] in
  let num_leaves = Array.make num_trees 0 in
  Array.iteri
    (fun ti tree ->
      let nl = Tree.num_leaves tree in
      num_leaves.(ti) <- nl;
      leaf_values.(ti) <- Tree.leaves tree;
      (* Assign leaf indices left-to-right; each internal node's mask zeros
         its left subtree's leaf range. *)
      let rec build t next_leaf =
        match t with
        | Tree.Leaf _ -> next_leaf + 1
        | Tree.Node { feature; threshold; left; right } ->
          let left_start = next_leaf in
          let left_end = build left next_leaf in
          (* mask: ones everywhere except [left_start, left_end) *)
          let mask = Bits.make_ones nl in
          for l = left_start to left_end - 1 do
            mask.(l / 63) <- mask.(l / 63) land lnot (1 lsl (l mod 63))
          done;
          per_feature.(feature) <-
            { threshold; tree = ti; mask } :: per_feature.(feature);
          build right left_end
      in
      let (_ : int) = build tree 0 in
      ())
    forest.Forest.trees;
  {
    by_feature =
      Array.map
        (fun entries ->
          let a = Array.of_list entries in
          Array.sort (fun a b -> compare a.threshold b.threshold) a;
          a)
        per_feature;
    leaf_values;
    num_leaves;
    tree_class = Array.mapi (fun i _ -> Forest.class_of_tree forest i) forest.Forest.trees;
    num_outputs = Forest.num_outputs forest;
    base_score = forest.Forest.base_score;
  }

let score_row ?(count = ref 0) t row out =
  let vectors = Array.mapi (fun ti _ -> Bits.make_ones t.num_leaves.(ti)) t.leaf_values in
  (* Apply masks of all false nodes: predicate x < thr fails iff
     thr <= x, i.e. the sorted prefix per feature. *)
  Array.iteri
    (fun f entries ->
      let x = row.(f) in
      let i = ref 0 in
      while
        !i < Array.length entries
        && entries.(!i).threshold <= x
      do
        let e = entries.(!i) in
        Bits.land_into vectors.(e.tree) e.mask;
        incr count;
        incr i
      done)
    t.by_feature;
  Array.iteri
    (fun ti v ->
      let leaf = Bits.lowest_set v in
      out.(t.tree_class.(ti)) <- out.(t.tree_class.(ti)) +. t.leaf_values.(ti).(leaf))
    vectors

let predict_batch t rows =
  let n = Array.length rows in
  let out = Array.init n (fun _ -> Array.make t.num_outputs t.base_score) in
  for i = 0 to n - 1 do
    score_row t rows.(i) out.(i)
  done;
  out

let false_nodes_per_row t rows =
  let count = ref 0 in
  let out = Array.make t.num_outputs 0.0 in
  Array.iter
    (fun row ->
      Array.fill out 0 t.num_outputs 0.0;
      score_row ~count t row out)
    rows;
  float_of_int !count /. float_of_int (max 1 (Array.length rows))

let cycles_per_row ~target t rows =
  let false_nodes = false_nodes_per_row t rows in
  let trees = float_of_int (Array.length t.leaf_values) in
  let mean_words =
    Tb_util.Stats.mean
      (Array.map (fun nl -> float_of_int (Bits.words nl)) (Array.map Fun.id t.num_leaves))
  in
  (* Per false node: threshold compare + mask AND over the words (~2 ops
     per word); per tree: bitvector reset + find-first-set + leaf lookup. *)
  let ops =
    (false_nodes *. (2.0 +. (2.0 *. mean_words))) +. (trees *. (3.0 +. mean_words))
  in
  ops /. target.Config.issue_width

let memory_bytes t =
  let entry_bytes e = 8 + 4 + (8 * Array.length e.mask) in
  let masks =
    Array.fold_left
      (fun acc entries -> Array.fold_left (fun a e -> a + entry_bytes e) acc entries)
      0 t.by_feature
  in
  masks + (4 * Array.fold_left ( + ) 0 t.num_leaves)
