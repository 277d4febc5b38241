(* The models a run works on, with the rows and profiles it needs. The
   zoo source trains any model missing from its cache directory before
   the run starts timing anything; the synthetic source writes tiny
   random forests under the zoo names, for tests. *)

module Forest = Tb_model.Forest
module Prng = Tb_util.Prng

type model = {
  name : string;
  path : string;  (** serialized model file *)
  forest : Forest.t;  (** reference for output checks *)
  train : float array array;
  test : float array array;
  profiles : Tb_model.Model_stats.tree_profile array;
      (** leaf profiles from at most 512 training rows — what the pinned
          tuned schedules were searched with *)
}

type source = Zoo of string | Synthetic of string

type t = { source : source; loaded : (string, model) Hashtbl.t }

let create source = { source; loaded = Hashtbl.create 8 }

let profile forest train =
  Tb_model.Model_stats.profile_forest forest
    (Array.sub train 0 (min 512 (Array.length train)))

let load_zoo dir name =
  let e = Tb_gbt.Zoo.get ~cache_dir:dir name in
  let train = e.Tb_gbt.Zoo.train_data.Tb_data.Dataset.features in
  {
    name;
    path = Filename.concat dir (name ^ ".json");
    forest = e.Tb_gbt.Zoo.forest;
    train;
    test = e.Tb_gbt.Zoo.test_data.Tb_data.Dataset.features;
    profiles = profile e.Tb_gbt.Zoo.forest train;
  }

let synthetic dir name =
  let rng = Prng.create (Hashtbl.hash name) in
  let num_features = 6 in
  let forest =
    { (Forest.random ~num_trees:6 ~max_depth:4 ~num_features rng) with
      Forest.name }
  in
  let rows n =
    Array.init n (fun _ -> Array.init num_features (fun _ -> Prng.gaussian rng))
  in
  let path = Filename.concat dir (name ^ ".json") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Tb_model.Serialize.to_file path forest;
  let train = rows 64 in
  { name; path; forest; train; test = rows 64; profiles = profile forest train }

let get t name =
  match Hashtbl.find_opt t.loaded name with
  | Some m -> m
  | None ->
    let m =
      match t.source with
      | Zoo dir -> load_zoo dir name
      | Synthetic dir -> synthetic dir name
    in
    Hashtbl.add t.loaded name m;
    m

(* [n] rows drawn with replacement from the test split; the seed and the
   model name pick them. *)
let sample_rows ~seed m n =
  let rng = Prng.create ((seed * 1_000_003) + Hashtbl.hash m.name) in
  Array.init n (fun _ -> Array.copy (Prng.choose rng m.test))

let schedule_path dir name = Filename.concat dir (name ^ ".json")
