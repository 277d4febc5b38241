type task =
  | Regression
  | Binary_logistic
  | Multiclass of int

type t = {
  name : string;
  trees : Tree.t array;
  num_features : int;
  task : task;
  base_score : float;
}

let num_outputs_of_task = function
  | Regression | Binary_logistic -> 1
  | Multiclass k -> k

let rec features_within n = function
  | Tree.Leaf _ -> true
  | Tree.Node { feature; left; right; _ } ->
    feature >= 0 && feature < n && features_within n left
    && features_within n right

let make ?(name = "forest") ?(base_score = 0.0) ~task ~num_features trees =
  Array.iter
    (fun tree ->
      if not (features_within num_features tree) then
        invalid_arg "Forest.make: feature index out of range")
    trees;
  (match task with
  | Multiclass k ->
    if k < 2 then invalid_arg "Forest.make: multiclass needs >= 2 classes";
    if Array.length trees mod k <> 0 then
      invalid_arg "Forest.make: multiclass tree count must be a multiple of k"
  | Regression | Binary_logistic -> ());
  { name; trees; num_features; task; base_score }

let num_outputs t = num_outputs_of_task t.task

let class_of_tree t i =
  match t.task with
  | Regression | Binary_logistic -> 0
  | Multiclass k -> i mod k

let predict_raw t row =
  let out = Array.make (num_outputs t) t.base_score in
  Array.iteri
    (fun i tree -> out.(class_of_tree t i) <- out.(class_of_tree t i) +. Tree.predict tree row)
    t.trees;
  out

let predict_single t row = (predict_raw t row).(0)

let predict_class t row =
  match t.task with
  | Regression -> invalid_arg "Forest.predict_class: regression model"
  | Binary_logistic -> if predict_single t row >= 0.0 then 1 else 0
  | Multiclass _ -> Tb_util.Stats.argmax (predict_raw t row)

let predict_batch_raw t rows = Array.map (predict_raw t) rows

let total_nodes t = Array.fold_left (fun acc tr -> acc + Tree.num_nodes tr) 0 t.trees
let total_leaves t = Array.fold_left (fun acc tr -> acc + Tree.num_leaves tr) 0 t.trees
let max_depth t = Array.fold_left (fun acc tr -> max acc (Tree.depth tr)) 0 t.trees

let random ?(num_trees = 10) ?(max_depth = 6) ?(num_features = 8) rng =
  let trees = Array.init num_trees (fun _ -> Tree.random ~max_depth ~num_features rng) in
  make ~name:"random" ~task:Regression ~num_features trees
