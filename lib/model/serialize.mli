(** Forest serialization.

    Treebeard's compiler input is a serialized ensemble; this module defines
    the on-disk JSON schema and its loader. The schema round-trips exactly
    (thresholds and leaf values are printed with full precision).

    A model file is one object:
    {v
    {"name": "...", "task": T, "num_features": N, "base_score": B,
     "trees": [TREE, ...]}
    v}
    where [T] is ["regression"], ["binary_logistic"] or
    [{"multiclass": K}], and a [TREE] is [{"leaf": V}] or
    [{"feature": F, "threshold": X, "left": TREE, "right": TREE}]. *)

val tree_to_json : Tree.t -> Tb_util.Json.t
val tree_of_json : Tb_util.Json.t -> Tree.t

val forest_to_json : Forest.t -> Tb_util.Json.t

val forest_of_json : Tb_util.Json.t -> Forest.t
(** The schema read off a DOM. {!of_string} reads the same schema
    without one; tests keep this reader as its oracle.
    @raise Tb_util.Json.Parse_error as {!of_string}. *)

val to_string : Forest.t -> string
(** Compact single-line JSON. *)

val of_string : string -> Forest.t
(** Read a model file straight into {!Tree.t} values through a
    {!Tb_util.Json.Cursor}, building no DOM. It accepts exactly the
    inputs [forest_of_json (Tb_util.Json.of_string s)] accepts and
    returns the same forest, bit for bit:
    - keys may come in any order; of duplicate keys the first wins, and
      keys outside the schema are skipped (their values must still be
      well-formed JSON);
    - an object with a ["leaf"] key is a leaf, whatever else it holds;
    - thresholds, leaves and [base_score] are the [float_of_string] of
      their number token; [feature], [num_features] and [K] must have
      integral values.

    @raise Tb_util.Json.Parse_error on every input it rejects: malformed
    JSON, a missing or wrongly typed field, an unknown task, and the
    forests {!Forest.make} refuses (a feature id outside
    [0, num_features), a multiclass model without a whole number of
    rounds). *)

val to_file : string -> Forest.t -> unit

val of_file : string -> Forest.t
(** {!of_string} of the file's contents. *)
