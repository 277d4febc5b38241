(** HIR static analyses: tiling validity, LUT totality, padding
    well-formedness, tiled-tree/model consistency and schedule legality.

    They run inside the compilation pipeline via {!Tb_core.Passman}, and
    the tests check tilings with {!check_tiling} too. All findings are
    {!Tb_diag.Diagnostic.t} values; see the code registry there. *)

val check_schedule :
  ?batch_size:int -> ?cores:int -> Tb_hir.Schedule.t -> Tb_diag.Diagnostic.t list
(** Schedule legality: field ranges ([S001]..[S006] errors) and
    cross-field / deployment advisories — more threads than batch rows
    ([S010]), interleave wider than the batch ([S011]), array layout with a
    large tile size ([S012]), more threads than the target CPU's cores
    ([S013], pass [cores] from {!Tb_cpu.Config.t}); advisories are
    warnings, not errors. *)

val check_tiling : Tb_hir.Itree.t -> Tb_hir.Tiling.t -> Tb_diag.Diagnostic.t list
(** The four §III-B1 tiling constraints as a reusable pass: partitioning
    ([H001]), connectedness ([H002]), leaf separation ([H003]) and maximal
    tiling ([H004]). It reports every violation, each with a structured
    code and a [tile N] location. *)

val check_lut : Tb_hir.Lut.t -> Tb_diag.Diagnostic.t list
(** LUT totality and correctness ([H010]): every (shape, bitmask) entry is
    a valid child index of that shape, and equals an independent
    re-navigation of the shape under the mask. *)

val check_tiled_tree :
  ?num_features:int -> Tb_hir.Tiled_tree.t -> Tb_diag.Diagnostic.t list
(** Structural well-formedness of one tiled tree: child/shape arity
    agreement, tree-ness and reachability ([H030]), feature ids in range
    ([H031]) and padding well-formedness — dummy tiles must carry only
    always-true lanes and dead non-0 exits ([H020]). *)

val check_tree_against_source :
  Tb_model.Tree.t -> Tb_hir.Tiled_tree.t -> Tb_diag.Diagnostic.t list
(** Deep model/IR consistency: every real tile lane must reproduce its
    originating node's feature and threshold ([H032]), and the tiling
    reconstructed from the tile/node ownership map must satisfy all four
    tiling constraints against the source tree ([H001]..[H004]). This is
    the check that catches model/layout mismatches before deployment. *)

val check_program : Tb_hir.Program.t -> Tb_diag.Diagnostic.t list
(** Everything above over a built HIR program, plus tree-group coverage
    ([H040]) and group uniformity claims ([H041]). Paths are rooted at
    [tree N] / [group N]. *)
