(* One mutex guards all pool state. A call's tasks travel as one [batch]:
   workers and the caller claim tasks from it by bumping [next], and the
   last task to finish wakes the caller. A batch leaves the queue when a
   worker claims its last task or finds it fully claimed, so the caller
   may claim its own tasks without searching the queue. *)

type batch = {
  tasks : (unit -> unit) array;
  mutable next : int; (* first task nobody has claimed *)
  mutable pending : int; (* tasks not yet finished *)
  mutable error : (exn * Printexc.raw_backtrace) option; (* first raised *)
}

let lock = Mutex.create ()
let work = Condition.create () (* a batch was queued *)
let finished = Condition.create () (* some batch's last task finished *)
let queue : batch Queue.t = Queue.create ()
let workers = ref 0
let max_workers = Domain.recommended_domain_count () - 1

(* Under [lock]: the index of the next unclaimed task of [b], or -1. *)
let claim b =
  let i = b.next in
  if i >= Array.length b.tasks then -1
  else begin
    b.next <- i + 1;
    i
  end

(* Outside [lock]: run a claimed task and record how it ended. *)
let execute b i =
  let error =
    match b.tasks.(i) () with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock lock;
  if b.error = None then b.error <- error;
  b.pending <- b.pending - 1;
  if b.pending = 0 then Condition.broadcast finished;
  Mutex.unlock lock

let rec worker () =
  Mutex.lock lock;
  let rec next () =
    match Queue.peek_opt queue with
    | None ->
      Condition.wait work lock;
      next ()
    | Some b ->
      let i = claim b in
      if b.next >= Array.length b.tasks then ignore (Queue.pop queue);
      if i < 0 then next () else (b, i)
  in
  let b, i = next () in
  Mutex.unlock lock;
  execute b i;
  worker ()

(* Under [lock]. A failed spawn (the runtime's domain limit) leaves the
   pool smaller; callers then run more of their own tasks. *)
let grow wanted =
  let wanted = min wanted max_workers in
  let rec go () =
    if !workers < wanted then
      match Domain.spawn worker with
      | _ ->
        incr workers;
        go ()
      | exception Failure _ -> ()
  in
  go ()

let run tasks =
  let n = Array.length tasks in
  if n = 1 then tasks.(0) ()
  else if n > 1 then begin
    let b = { tasks; next = 1; pending = n; error = None } in
    Mutex.lock lock;
    grow (n - 1);
    Queue.push b queue;
    if n = 2 then Condition.signal work else Condition.broadcast work;
    Mutex.unlock lock;
    execute b 0;
    Mutex.lock lock;
    let rec help () =
      let i = claim b in
      if i >= 0 then begin
        Mutex.unlock lock;
        execute b i;
        Mutex.lock lock;
        help ()
      end
    in
    help ();
    while b.pending > 0 do
      Condition.wait finished lock
    done;
    Mutex.unlock lock;
    match b.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
