(** Decision-tree ensembles (the compiler's input).

    A forest aggregates tree outputs additively. Regression and binary
    models have a single output; multiclass models follow the XGBoost
    convention of one tree per class per boosting round, with tree [i]
    contributing to output [i mod num_classes]. *)

type task =
  | Regression
  | Binary_logistic
  | Multiclass of int  (** number of classes, >= 2 *)

type t = {
  name : string;
  trees : Tree.t array;
  num_features : int;
  task : task;
  base_score : float;  (** added to every output *)
}

val make :
  ?name:string -> ?base_score:float -> task:task -> num_features:int ->
  Tree.t array -> t
(** Build a forest, checking that every referenced feature index lies in
    [0, num_features) and that multiclass forests have a whole number of
    rounds. @raise Invalid_argument otherwise. *)

val num_outputs : t -> int
(** 1 for regression/binary, [k] for [Multiclass k]. *)

val class_of_tree : t -> int -> int
(** Output index that tree [i] contributes to. *)

val predict_raw : t -> float array -> float array
(** Raw margin per output (reference semantics for all backends). *)

val predict_single : t -> float array -> float
(** Raw margin of output 0 — convenience for single-output models. *)

val predict_class : t -> float array -> int
(** Argmax class for multiclass; thresholded sign for binary;
    @raise Invalid_argument for regression. *)

val predict_batch_raw : t -> float array array -> float array array
(** [predictForest] reference: one margin vector per row. *)

val total_nodes : t -> int
val total_leaves : t -> int
val max_depth : t -> int

val random :
  ?num_trees:int -> ?max_depth:int -> ?num_features:int -> Tb_util.Prng.t -> t
(** Random single-output forest for property tests. *)
