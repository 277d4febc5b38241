(** Warning census for a diagnostic family.

    A census is a list of per-(model, schedule) rows counting one
    diagnostic family's codes in a gate run. It is the measurable
    surface of an analysis: [treebeard lint --census] writes one for the
    walk-bounds family, [treebeard validate --census] for the
    translation-validation family and [treebeard quantcheck --census]
    for the quantization-certification family. CI diffs the current
    census against a checked-in baseline so a precision regression fails
    the build; running the gate with [--census] pointed at the baseline
    regenerates it. *)

type family = {
  family_name : string;
  codes : string list;  (** tracked codes, in column order *)
  hard : string list;
      (** never-acceptable codes: any count fails the baseline diff *)
  soft : string list;
      (** per-cell counts may not grow vs the baseline; codes in [codes]
          but in neither [hard] nor [soft] are informational facts and
          are counted but not diffed *)
}

val lir_family : family
(** The walk-bounds family: codes [L010..L014]; [L010]/[L013] hard,
    [L011]/[L012] soft, [L014] a fact. *)

val validate_family : family
(** The translation-validation family: codes [T001..T005]; [T004]/[T005]
    hard, [T001..T003] soft. *)

val numeric_family : family
(** The quantization-certification family: codes [N001..N004], all soft —
    a model may fail to certify at a narrow width (the baseline records
    the expected findings), but no cell's count may grow. *)

val all_families : family list
(** Every registered family, for table-driven coverage tests. *)

val family_of_code : string -> family option
(** The unique family tracking [code], if any (schedule/HIR/MIR/… codes
    have no census family). *)

type row = {
  model : string;
  schedule : string;  (** [Schedule.to_string] form *)
  counts : (string * int) list;  (** code -> count; zero counts omitted *)
}

type t = row list

val row_of_diags :
  family:family ->
  model:string -> schedule:string -> Tb_diag.Diagnostic.t list -> row
(** Count the family's tracked codes in one run's diagnostics. *)

val get : row -> string -> int
(** Count for one code, 0 when absent. *)

val totals : family:family -> t -> (string * int) list
(** Per-code totals over all rows, in the family's code order. *)

val to_json : t -> Tb_util.Json.t
val of_json : Tb_util.Json.t -> t
(** @raise Tb_util.Json.Parse_error on schema mismatch. *)

val to_file : string -> t -> unit
val of_file : string -> t

val diff : family:family -> baseline:t -> t -> string list
(** Regression check for CI. Empty result = acceptable. Reported as
    problems: any [hard]-code count in [current] (never acceptable,
    baseline or not); a [soft]-code count in a cell exceeding the same
    cell in [baseline]; a cell missing from [baseline] with a non-zero
    [soft] count; a [baseline] cell missing from [current]. Fact codes
    are not diffed. *)
