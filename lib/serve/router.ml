module Hashing = Tb_util.Hashing

type policy = Hash | Affinity

let policy_to_string = function Hash -> "hash" | Affinity -> "affinity"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "hash" -> Ok Hash
  | "affinity" -> Ok Affinity
  | s ->
    Error
      (Printf.sprintf "unknown routing policy %S (expected hash or affinity)" s)

type t = {
  policy : policy;
  vnodes : int;
  live : int array;  (* sorted live shard ids *)
  (* Affinity ring: every live shard contributes [vnodes] points; a model
     routes to the owner of the first point clockwise from its hash.
     Sorted by (point, shard) so collisions break deterministically. *)
  ring : (int64 * int) array;
}

let ring_of ~vnodes live =
  let points =
    Array.init
      (Array.length live * vnodes)
      (fun i ->
        let shard = live.(i / vnodes) and v = i mod vnodes in
        (Hashing.fnv1a64 (Printf.sprintf "shard:%d:vnode:%d" shard v), shard))
  in
  Array.sort
    (fun (a, sa) (b, sb) ->
      match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
    points;
  points

let of_shard_ids ?(vnodes = 64) policy ids =
  if ids = [] then invalid_arg "Router.of_shard_ids: no shards";
  if vnodes < 1 then invalid_arg "Router.of_shard_ids: vnodes < 1";
  List.iter
    (fun id -> if id < 0 then invalid_arg "Router.of_shard_ids: negative id")
    ids;
  let live = Array.of_list (List.sort_uniq compare ids) in
  if Array.length live <> List.length ids then
    invalid_arg "Router.of_shard_ids: duplicate shard id";
  {
    policy;
    vnodes;
    live;
    ring = (match policy with Hash -> [||] | Affinity -> ring_of ~vnodes live);
  }

let create ?vnodes policy ~shards =
  if shards < 1 then invalid_arg "Router.create: shards < 1";
  of_shard_ids ?vnodes policy (List.init shards Fun.id)

let policy_of t = t.policy
let vnodes t = t.vnodes
let shard_ids t = Array.to_list t.live

let route t model =
  match t.policy with
  | Hash ->
    (* Plain modulus over the live set: perfectly balanced, but resizing
       remaps nearly every key — the foil the affinity policy beats. *)
    t.live.(Hashing.fnv1a64_mod model (Array.length t.live))
  | Affinity ->
    let h = Hashing.fnv1a64 model in
    let n = Array.length t.ring in
    (* First ring point with point >= h, wrapping to 0 past the end. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Int64.unsigned_compare (fst t.ring.(mid)) h < 0 then lo := mid + 1
      else hi := mid
    done;
    snd t.ring.(if !lo = n then 0 else !lo)

let add_shard t id =
  if id < 0 then invalid_arg "Router.add_shard: negative id";
  if Array.exists (( = ) id) t.live then
    invalid_arg "Router.add_shard: id already live";
  of_shard_ids ~vnodes:t.vnodes t.policy (id :: Array.to_list t.live)

let remove_shard t id =
  if not (Array.exists (( = ) id) t.live) then
    invalid_arg "Router.remove_shard: id not live";
  if Array.length t.live = 1 then
    invalid_arg "Router.remove_shard: cannot remove the last shard";
  of_shard_ids ~vnodes:t.vnodes t.policy
    (List.filter (( <> ) id) (Array.to_list t.live))

let to_json t =
  Tb_util.Json.Obj
    [
      ("policy", Tb_util.Json.Str (policy_to_string t.policy));
      ("vnodes", Tb_util.Json.Num (float_of_int t.vnodes));
      ( "shards",
        Tb_util.Json.List
          (List.map
             (fun id -> Tb_util.Json.Num (float_of_int id))
             (shard_ids t)) );
    ]
