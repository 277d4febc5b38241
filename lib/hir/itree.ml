module Tree = Tb_model.Tree

type t = {
  feature : int array;
  threshold : float array;
  value : float array;
  left : int array;
  right : int array;
  parent : int array;
  num_nodes : int;
}

let root = 0

let of_tree tree =
  let n = Tree.num_nodes tree + Tree.num_leaves tree in
  let feature = Array.make n (-1) in
  let threshold = Array.make n 0.0 in
  let value = Array.make n 0.0 in
  let left = Array.make n (-1) in
  let right = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let next = ref 0 in
  let rec go tree par =
    let id = !next in
    incr next;
    parent.(id) <- par;
    (match tree with
    | Tree.Leaf v -> value.(id) <- v
    | Tree.Node { feature = f; threshold = th; left = l; right = r } ->
      feature.(id) <- f;
      threshold.(id) <- th;
      left.(id) <- go l id;
      right.(id) <- go r id);
    id
  in
  let (_ : int) = go tree (-1) in
  { feature; threshold; value; left; right; parent; num_nodes = n }

let is_leaf t id = t.left.(id) < 0

let rec to_tree_from t id =
  if is_leaf t id then Tree.Leaf t.value.(id)
  else
    Tree.Node
      {
        feature = t.feature.(id);
        threshold = t.threshold.(id);
        left = to_tree_from t t.left.(id);
        right = to_tree_from t t.right.(id);
      }

let to_tree t = to_tree_from t root

let leaf_rank t =
  let rank = Array.make t.num_nodes (-1) in
  let next = ref 0 in
  let rec go id =
    if is_leaf t id then begin
      rank.(id) <- !next;
      incr next
    end
    else begin
      go t.left.(id);
      go t.right.(id)
    end
  in
  go root;
  rank

let node_probs t ~leaf_probs =
  let rank = leaf_rank t in
  let probs = Array.make t.num_nodes 0.0 in
  let rec go id =
    if is_leaf t id then begin
      probs.(id) <- leaf_probs.(rank.(id));
      probs.(id)
    end
    else begin
      let p = go t.left.(id) +. go t.right.(id) in
      probs.(id) <- p;
      p
    end
  in
  let (_ : float) = go root in
  probs

let depth_of t id =
  let rec go id acc = if id < 0 then acc - 1 else go t.parent.(id) (acc + 1) in
  go id 0
