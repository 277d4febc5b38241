(** Importer for XGBoost's JSON model dumps.

    The paper's evaluation trains every benchmark with XGBoost; this module
    accepts the format produced by
    [booster.dump_model(..., dump_format="json")] — a JSON array of
    recursive tree objects with [nodeid]/[split]/[split_condition]/[yes]/
    [no]/[children] fields and [leaf] terminals — so real XGBoost models
    can be compiled directly.

    Semantics match XGBoost's: the [yes] child is taken when
    [x(split) < split_condition], which is exactly this library's left
    branch. The [missing] field is ignored (inputs are assumed
    non-missing; see {!Tb_hir.Tiled_tree.create} for the related finiteness
    precondition). Split names of the form ["fN"] map to feature index
    [N]; other names need [feature_names]. *)

val of_dump_string :
  ?task:Forest.task ->
  ?base_score:float ->
  ?num_features:int ->
  ?feature_names:string list ->
  ?name:string ->
  string ->
  Forest.t
(** Parse a dump. [num_features] defaults to 1 + the largest feature index
    referenced; [task] defaults to [Regression] ([Multiclass k] applies
    XGBoost's round-robin tree-to-class layout).
    @raise Tb_util.Json.Parse_error on malformed input or unknown split
    names. *)

val of_dump_file :
  ?task:Forest.task ->
  ?base_score:float ->
  ?num_features:int ->
  ?feature_names:string list ->
  ?name:string ->
  string ->
  Forest.t
