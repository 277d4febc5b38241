type cell = {
  name : string;
  layer : string;
  rows : int;
  op : unit -> float -> bool;
  probe : (float -> unit) option;
}

type stats = {
  cell : cell;
  plain_us : float array;
  traced_us : float array;
  visits : int;
  ops : int;
  failed : int;
  minor_words : float;
}

type result = { cells : stats array; speeds : float array }

(* A probe burst (2 ms) at least every 100 ms of visits: about 2% of the
   window. *)
let probe_every_us = 100_000.0

type acc = {
  plain : Sample.t;
  traced : Sample.t;
  mutable visits : int;
  mutable ops : int;
  mutable failed : int;
  mutable words : float;
}

let visit ~tracing ~slice_us ~speed cell a =
  Span.set_enabled tracing;
  a.visits <- a.visits + 1;
  let v0 = Clock.now_ns () in
  let again = ref true in
  while !again do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let check =
      if tracing then Span.with_ ~arg:cell.name ~cat:cell.layer cell.name cell.op
      else cell.op ()
    in
    let dt = Clock.since_us t0 in
    a.words <- a.words +. (Gc.minor_words () -. w0);
    Sample.add (if tracing then a.traced else a.plain) (dt *. speed);
    a.ops <- a.ops + 1;
    if not (check speed) then a.failed <- a.failed + 1;
    again := Clock.since_us v0 < slice_us
  done;
  (match cell.probe with
  | Some probe when tracing -> probe speed
  | Some _ | None -> ());
  Span.set_enabled false

let run ?(traced = false) ~min_rounds ~slice_us ~window_s cells =
  let n = Array.length cells in
  let accs =
    Array.init n (fun _ ->
        {
          plain = Sample.create ();
          traced = Sample.create ();
          visits = 0;
          ops = 0;
          failed = 0;
          words = 0.0;
        })
  in
  let min_visits = n * max 1 min_rounds * if traced then 2 else 1 in
  let speeds = Sample.create () in
  let speed = ref 1.0 and last_probe = ref neg_infinity in
  let t0 = Clock.now_ns () in
  (* Visit v goes to cell v mod n in round v / n; stopping only between
     visits keeps per-cell visit counts within one of each other. *)
  let v = ref 0 in
  while !v < min_visits || Clock.since_us t0 < window_s *. 1e6 do
    if Clock.since_us !last_probe >= probe_every_us then begin
      speed := Reference.burst ();
      Sample.add speeds !speed;
      last_probe := Clock.now_ns ()
    end;
    let i = !v mod n in
    visit
      ~tracing:(traced && !v / n mod 2 = 1)
      ~slice_us ~speed:!speed cells.(i) accs.(i);
    incr v
  done;
  let cells =
    Array.mapi
      (fun i a ->
        {
          cell = cells.(i);
          plain_us = Sample.to_array a.plain;
          traced_us = Sample.to_array a.traced;
          visits = a.visits;
          ops = a.ops;
          failed = a.failed;
          minor_words = a.words;
        })
      accs
  in
  { cells; speeds = Sample.to_array speeds }
