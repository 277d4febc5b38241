(** Round-robin measurement over cells.

    A cell is one configuration under test (a model × variant × batch
    size, or a model × compile path). Cells are visited in a fixed cyclic
    order; a visit repeats the cell's operation until [slice_us] has
    passed (at least once), then moves on. Interleaving short slices
    spreads machine drift over every cell alike instead of landing on
    whichever cell ran last.

    Between visits, at least every 100 ms, a {!Reference.burst} measures
    the machine's current speed; every operation time is multiplied by
    the latest factor, so samples read as at the nominal machine speed.

    Only the operation itself is timed. Its output check, and the
    optional [probe] of a traced visit, run outside the timed region. *)

type cell = {
  name : string;
  layer : string;  (** span layer of the operation *)
  rows : int;  (** rows predicted per operation *)
  op : unit -> float -> bool;
      (** run once; returns the check of this run's output, which is given
          the speed factor the run was measured under *)
  probe : (float -> unit) option;
      (** extra untimed work for traced visits (a stage-by-stage replay
          of the operation under spans), given the speed factor *)
}

type stats = {
  cell : cell;
  plain_us : float array;  (** operation times of untraced visits *)
  traced_us : float array;  (** operation times of traced visits *)
  visits : int;
  ops : int;
  failed : int;  (** operations whose check returned [false] *)
  minor_words : float;
      (** words the calling domain allocated inside timed operations *)
}

type result = {
  cells : stats array;  (** in the order of the cells given *)
  speeds : float array;  (** each probe burst's speed factor, in order *)
}

val run :
  ?traced:bool ->
  min_rounds:int ->
  slice_us:float ->
  window_s:float ->
  cell array ->
  result
(** Visit the cells until [window_s] seconds have passed, stopping
    between two visits, and at least [min_rounds] full rounds (twice as
    many when [traced]) have run. Visit counts of any two cells differ by at most one. With
    [traced], odd rounds record spans ({!Span}) and even rounds do not, so
    the two halves see the same drift and their difference is the
    tracing overhead. *)
