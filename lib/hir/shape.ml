type t = Node of t option * t option

let rec size (Node (l, r)) =
  let side = function None -> 0 | Some s -> size s in
  1 + side l + side r

let num_exits t = size t + 1

let rec depth (Node (l, r)) =
  let side = function None -> 0 | Some s -> depth s in
  1 + max (side l) (side r)

let rec code_from acc (Node (l, r)) =
  let acc = (acc lsl 2) lor (if l = None then 0 else 2) lor (if r = None then 0 else 1) in
  let acc = match l with None -> acc | Some s -> code_from acc s in
  match r with None -> acc | Some s -> code_from acc s

let code shape = code_from 1 shape

let of_code c =
  (* [pos] counts the bits still to read below the leading 1; each node
     reads its pair, then its left and right sub-shapes. A code that does
     not re-encode to itself is no shape's. *)
  let pos = ref 0 in
  while c lsr (!pos + 1) > 0 do incr pos done;
  let rec node () =
    if !pos < 2 then invalid_arg "Shape.of_code";
    pos := !pos - 2;
    let pair = (c lsr !pos) land 3 in
    let l = if pair land 2 = 0 then None else Some (node ()) in
    Node (l, if pair land 1 = 0 then None else Some (node ()))
  in
  let shape = node () in
  if code shape <> c then invalid_arg "Shape.of_code";
  shape

(* Indexed form: nodes numbered in level order; child entries are either a
   node index (>= 1) or an exit slot encoded as [-1 - slot], with exit slots
   numbered left to right (DFS preorder collection order). *)
type index = { left : int array; right : int array }

let index shape =
  let n = size shape in
  (* BFS with the id array as its queue: node [i]'s present children take
     the next free ids. Sub-shapes are kept by position, so structurally
     equal subtrees get distinct ids. 0 marks an exit until the DFS below
     numbers it; no child can be node 0, the root. *)
  let nodes = Array.make n shape in
  let left = Array.make n 0 and right = Array.make n 0 in
  let next = ref 1 in
  for i = 0 to n - 1 do
    let (Node (l, r)) = nodes.(i) in
    let push side = function
      | None -> ()
      | Some s ->
        nodes.(!next) <- s;
        side.(i) <- !next;
        incr next
    in
    push left l;
    push right r
  done;
  (* DFS preorder, left before right, numbers the exits left to right. *)
  let exits = ref 0 in
  let rec dfs i =
    let side a =
      if a.(i) > 0 then dfs a.(i)
      else begin
        a.(i) <- -1 - !exits;
        incr exits
      end
    in
    side left;
    side right
  in
  dfs 0;
  { left; right }

let navigate_index idx ~tile_size ~bits =
  let rec go i =
    if i < 0 then -1 - i
    else begin
      let bit = (bits lsr (tile_size - 1 - i)) land 1 in
      go (if bit = 1 then idx.left.(i) else idx.right.(i))
    end
  in
  go 0

let navigate shape ~tile_size ~bits = navigate_index (index shape) ~tile_size ~bits

let exit_row shape ~tile_size =
  let idx = index shape in
  let row = Array.make (1 lsl tile_size) 0 in
  let all = (1 lsl tile_size) - 1 in
  (* Every mask that agrees with [value] on the bits in [fixed] reaches
     node or exit [i]. An exit's masks are [value] plus each subset of the
     free bits, so each entry is written once. *)
  let rec fill i fixed value =
    if i < 0 then begin
      let free = all land lnot fixed in
      let sub = ref free in
      row.(value) <- -1 - i;
      while !sub <> 0 do
        row.(value lor !sub) <- -1 - i;
        sub := (!sub - 1) land free
      done
    end
    else begin
      let bit = 1 lsl (tile_size - 1 - i) in
      fill idx.left.(i) (fixed lor bit) (value lor bit);
      fill idx.right.(i) (fixed lor bit) value
    end
  in
  fill 0 0 0;
  row

let enumerate ~max_size =
  (* shapes_of n: all shapes with exactly n nodes. *)
  let memo = Hashtbl.create 16 in
  let rec shapes_of n =
    if n = 0 then [ None ]
    else
      match Hashtbl.find_opt memo n with
      | Some s -> s
      | None ->
        let acc = ref [] in
        for k = 0 to n - 1 do
          List.iter
            (fun l ->
              List.iter
                (fun r -> acc := Some (Node (l, r)) :: !acc)
                (shapes_of (n - 1 - k)))
            (shapes_of k)
        done;
        Hashtbl.add memo n !acc;
        !acc
  in
  List.concat_map
    (fun n -> List.filter_map Fun.id (shapes_of n))
    (List.init max_size (fun i -> i + 1))

let equal = ( = )

let rec to_string (Node (l, r)) =
  let side = function None -> "." | Some s -> to_string s in
  "(" ^ side l ^ side r ^ ")"
