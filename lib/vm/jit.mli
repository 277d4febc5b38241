(** The execution backend: compiles a lowered program into specialized
    OCaml closures (this repository's stand-in for the paper's LLVM JIT).

    The generated predictor honours every schedule decision:
    - walk specialization (generic loop / peeled prologue / fully unrolled
      fixed-depth walks with no termination checks);
    - tree-walk interleaving: a group interleaved k ways advances k walks
      in lockstep, along one of two jam axes — k rows of one tree (a row
      jam, one-tree-at-a-time order) or k trees of one row (a tree jam,
      one-row-at-a-time order);
    - loop order, through the jam axis, which the runner picks per row
      range: a range shorter than the widest interleave runs tree jams,
      and so does every range of a float one-row-at-a-time schedule;
      every other range runs row jams. The integer tier thus runs full
      ranges one tree at a time whatever the schedule's loop order
      (integer sums are exact, so the order cannot show);
    - memory layout (array vs sparse buffer navigation);
    - row-loop parallelization over OCaml domains.

    Both axes add each output cell's trees in the same order, group by
    group, so a row's margins are bitwise the same whatever batch or row
    range it runs in.

    Threading: a predictor with [n > 1] threads splits each batch into
    the [n] row ranges of {!Tb_mir.Mir.row_partition}. The calling domain
    runs the first range and the process-wide {!Pool} the other non-empty
    ones, so a one-row batch runs entirely on the caller. The outputs
    are bitwise-equal to the
    single-thread predictor's. A predictor may be called from several
    domains at once, and from inside a pool task; an exception raised on
    any range is re-raised in the caller once every range has finished.

    Semantics contract (tested): for every schedule, the predictor's output
    equals {!Tb_model.Forest.predict_batch_raw} on the source forest. *)

type predictor = float array array -> float array array
(** Batch inference: one margin vector per input row. *)

val instantiate : Tb_lir.Pack.t -> predictor
(** Closure instantiation: build the specialized predictor from a packed
    artifact — the cheap half of a compile, run on registry disk hits.
    The whole closure graph is built here, for both the float and the
    integer tier: a row-jam runner per tree and a tree-jam runner per
    group, each with its walk kind and interleave resolved. A call runs
    those closures and performs no compilation work. It allocates its
    outputs (on the integer tier also the quantized rows and their
    integer sums) and one cursor buffer per row range, and nothing per
    tree: walks return leaf indices rather than boxed floats, and every
    jam, on either axis, shares the range's buffer. *)

val instantiate_single_thread : Tb_lir.Pack.t -> predictor
(** Same, ignoring the artifact's thread count (used by benchmarks that
    sweep thread counts externally). *)

