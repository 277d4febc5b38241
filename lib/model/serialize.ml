module J = Tb_util.Json

let rec tree_to_json = function
  | Tree.Leaf v -> J.Obj [ ("leaf", J.Num v) ]
  | Tree.Node { feature; threshold; left; right } ->
    J.Obj
      [
        ("feature", J.Num (float_of_int feature));
        ("threshold", J.Num threshold);
        ("left", tree_to_json left);
        ("right", tree_to_json right);
      ]

let rec tree_of_json j =
  match j with
  | J.Obj fields when List.mem_assoc "leaf" fields ->
    Tree.Leaf (J.to_float (J.member "leaf" j))
  | J.Obj _ ->
    Tree.Node
      {
        feature = J.to_int (J.member "feature" j);
        threshold = J.to_float (J.member "threshold" j);
        left = tree_of_json (J.member "left" j);
        right = tree_of_json (J.member "right" j);
      }
  | _ -> raise (J.Parse_error "tree: expected object")

let task_to_json = function
  | Forest.Regression -> J.Str "regression"
  | Forest.Binary_logistic -> J.Str "binary_logistic"
  | Forest.Multiclass k ->
    J.Obj [ ("multiclass", J.Num (float_of_int k)) ]

let task_of_json = function
  | J.Str "regression" -> Forest.Regression
  | J.Str "binary_logistic" -> Forest.Binary_logistic
  | J.Obj _ as j -> Forest.Multiclass (J.to_int (J.member "multiclass" j))
  | _ -> raise (J.Parse_error "task: expected known task")

let forest_to_json (f : Forest.t) =
  J.Obj
    [
      ("name", J.Str f.name);
      ("task", task_to_json f.task);
      ("num_features", J.Num (float_of_int f.num_features));
      ("base_score", J.Num f.base_score);
      ("trees", J.List (Array.to_list (Array.map tree_to_json f.trees)));
    ]

(* [Forest.make] rejects a model file with [Invalid_argument]; a loader
   reports every rejection as [Parse_error]. *)
let make_forest ~name ~base_score ~task ~num_features trees =
  try Forest.make ~name ~base_score ~task ~num_features trees
  with Invalid_argument msg -> raise (J.Parse_error msg)

let forest_of_json j =
  let trees =
    J.member "trees" j |> J.to_list |> List.map tree_of_json |> Array.of_list
  in
  make_forest
    ~name:(J.to_str (J.member "name" j))
    ~base_score:(J.to_float (J.member "base_score" j))
    ~task:(task_of_json (J.member "task" j))
    ~num_features:(J.to_int (J.member "num_features" j))
    trees

let to_string f = J.to_string (forest_to_json f)

(* ------------------------------------------------------------------ *)
(* Reading a model file without a DOM                                  *)
(* ------------------------------------------------------------------ *)

module C = J.Cursor

let forest_keys = [| "name"; "task"; "num_features"; "base_score"; "trees" |]
let task_keys = [| "multiclass" |]
let tree_keys = [| "leaf"; "feature"; "threshold"; "left"; "right" |]

(* Bits of [seen] below: one per [tree_keys] entry. *)
let leaf_bit = 1
let node_bits = 0b11110

let missing_node_field c ~seen =
  let rec first i =
    if seen land (1 lsl i) = 0 then tree_keys.(i) else first (i + 1)
  in
  C.error c (Printf.sprintf "missing field %S" (first 1))

let unset = Tree.Leaf Float.nan

(* A tree object is read as a node, its fields passed along as arguments
   (no ref cell or closure per node). If anything in it fails, it is read
   again from its start by [leaf_only]: a "leaf" key makes the other
   fields irrelevant. *)
let rec read_tree c =
  let start = C.pos c in
  match read_node c with
  | t -> t
  | exception (J.Parse_error _ as err) ->
    C.seek c start;
    leaf_only c err

and read_node c =
  C.enter_object c;
  node_fields c 0 0.0 0 0.0 unset unset

and node_fields c seen leaf feature threshold left right =
  if not (C.next_field c) then
    if seen land leaf_bit <> 0 then Tree.Leaf leaf
    else if seen = node_bits then Tree.Node { feature; threshold; left; right }
    else missing_node_field c ~seen
  else
    let k = C.field_index c tree_keys in
    if k < 0 || seen land (1 lsl k) <> 0 then begin
      C.skip c;
      node_fields c seen leaf feature threshold left right
    end
    else
      let seen = seen lor (1 lsl k) in
      match k with
      | 0 -> node_fields c seen (C.float c) feature threshold left right
      | 1 -> node_fields c seen leaf (C.int c) threshold left right
      | 2 -> node_fields c seen leaf feature (C.float c) left right
      | 3 -> node_fields c seen leaf feature threshold (read_tree c) right
      | _ -> node_fields c seen leaf feature threshold left (read_tree c)

and leaf_only c err =
  C.enter_object c;
  let rec fields leaf =
    if not (C.next_field c) then
      match leaf with Some v -> Tree.Leaf v | None -> raise err
    else if C.field_index c tree_keys = 0 && Option.is_none leaf then
      fields (Some (C.float c))
    else begin
      C.skip c;
      fields leaf
    end
  in
  fields None

let read_trees c =
  C.enter_list c;
  let rec items acc =
    if C.next_item c then items (read_tree c :: acc) else acc
  in
  Array.of_list (List.rev (items []))

let read_task c =
  let unknown () = C.error c "task: expected known task" in
  match C.peek c with
  | '"' -> (
    match C.string c with
    | "regression" -> Forest.Regression
    | "binary_logistic" -> Forest.Binary_logistic
    | _ -> unknown ())
  | '{' ->
    C.enter_object c;
    let k = ref None in
    while C.next_field c do
      if C.field_index c task_keys = 0 && Option.is_none !k then
        k := Some (C.int c)
      else C.skip c
    done;
    (match !k with
    | Some k -> Forest.Multiclass k
    | None -> C.error c "missing field \"multiclass\"")
  | _ -> unknown ()

let read_forest c =
  let name = ref None and task = ref None and num_features = ref None in
  let base_score = ref None and trees = ref None in
  let once field read =
    if Option.is_none !field then field := Some (read c) else C.skip c
  in
  C.enter_object c;
  while C.next_field c do
    match C.field_index c forest_keys with
    | 0 -> once name C.string
    | 1 -> once task read_task
    | 2 -> once num_features C.int
    | 3 -> once base_score C.float
    | 4 -> once trees read_trees
    | _ -> C.skip c
  done;
  let get key field =
    match !field with
    | Some v -> v
    | None -> C.error c (Printf.sprintf "missing field %S" key)
  in
  make_forest ~name:(get "name" name) ~base_score:(get "base_score" base_score)
    ~task:(get "task" task)
    ~num_features:(get "num_features" num_features)
    (get "trees" trees)

let of_string s =
  let c = C.of_string s in
  let f = read_forest c in
  C.finish c;
  f

let to_file path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string f))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
