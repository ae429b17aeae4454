(* Fixed pool of OCaml 5 domains with per-lane work-stealing deques.

   The pool is batch-oriented: [run_tasks] distributes a batch of
   thunks round-robin over the lanes, wakes the worker domains, and
   has the calling domain work alongside them until the batch drains.
   Each lane owns a deque; owners pop from the bottom (LIFO, cache
   warm), thieves steal from the top (FIFO, oldest work first). Deques
   are guarded by a per-lane mutex — uncontended in the common case,
   and the batch sizes the explorer submits (tens to thousands of
   thunks, each tens of microseconds) amortize it entirely.

   Cancellation is cooperative: [cancel] raises an [Atomic] flag, after
   which not-yet-started tasks of the current batch are drained without
   running and subsequent batches return immediately. Long-running
   tasks can poll [cancelled] themselves. *)

type deque = {
  mu : Mutex.t;
  mutable items : (unit -> unit) array;  (* circular buffer *)
  mutable head : int;                    (* index of oldest item *)
  mutable len : int;
}

let no_task () = ()

let deque_create () =
  { mu = Mutex.create (); items = Array.make 64 no_task; head = 0; len = 0 }

let deque_push d f =
  Mutex.protect d.mu @@ fun () ->
  let cap = Array.length d.items in
  if d.len >= cap then begin
    let bigger = Array.make (2 * cap) no_task in
    for k = 0 to d.len - 1 do
      bigger.(k) <- d.items.((d.head + k) mod cap)
    done;
    d.items <- bigger;
    d.head <- 0
  end;
  let cap = Array.length d.items in
  d.items.((d.head + d.len) mod cap) <- f;
  d.len <- d.len + 1

(* owner end: newest item *)
let deque_pop d =
  Mutex.protect d.mu @@ fun () ->
  if d.len = 0 then None
  else begin
    let cap = Array.length d.items in
    let i = (d.head + d.len - 1) mod cap in
    let f = d.items.(i) in
    d.items.(i) <- no_task;
    d.len <- d.len - 1;
    Some f
  end

(* thief end: oldest item *)
let deque_steal d =
  Mutex.protect d.mu @@ fun () ->
  if d.len = 0 then None
  else begin
    let f = d.items.(d.head) in
    d.items.(d.head) <- no_task;
    d.head <- (d.head + 1) mod Array.length d.items;
    d.len <- d.len - 1;
    Some f
  end

type t = {
  lanes : int;                      (* worker lanes incl. the caller *)
  deques : deque array;
  cancel_flag : bool Atomic.t;
  pending : int Atomic.t;           (* tasks of the current batch left *)
  lock : Mutex.t;                   (* guards epoch/shutdown signalling *)
  wake : Condition.t;               (* workers: new batch or shutdown *)
  batch_done : Condition.t;         (* caller: pending reached zero *)
  mutable epoch : int;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t array;
  mutable exn : (exn * Printexc.raw_backtrace) option; (* first task exn *)
}

let size p = p.lanes

(* live depth of the current batch, for the OpenMetrics exposition *)
let m_queue_depth = Metrics.gauge "pool.queue_depth"
let m_batches = Metrics.counter "pool.batches"
let cancel p = Atomic.set p.cancel_flag true
let cancelled p = Atomic.get p.cancel_flag
let reset_cancel p = Atomic.set p.cancel_flag false

let record_exn p e bt =
  Mutex.protect p.lock @@ fun () ->
  if p.exn = None then p.exn <- Some (e, bt)

let run_one p f =
  (match f () with
   | () -> ()
   | exception e ->
     record_exn p e (Printexc.get_raw_backtrace ());
     cancel p);
  (* decrement and publish under one lock: otherwise a worker that
     decremented earlier can publish its stale depth after the last
     task published 0, and the gauge outlives the drained batch. The
     caller waits for [pending = 0] under the same lock, so every
     publication has happened once [run_tasks] returns. *)
  Mutex.protect p.lock @@ fun () ->
  let left = Atomic.fetch_and_add p.pending (-1) - 1 in
  Metrics.set m_queue_depth left;
  (* last task of the batch: wake the caller *)
  if left = 0 then Condition.broadcast p.batch_done

(* grab work for lane [me]: own deque first, then steal round-robin *)
let find_task p me =
  match deque_pop p.deques.(me) with
  | Some _ as f -> f
  | None ->
    let rec steal k =
      if k >= p.lanes then None
      else
        let victim = (me + k) mod p.lanes in
        match deque_steal p.deques.(victim) with
        | Some _ as f -> f
        | None -> steal (k + 1)
    in
    steal 1

(* drain the current batch from lane [me]; cancellation still consumes
   tasks (so [pending] reaches zero) but skips running them *)
let work p me =
  let rec go () =
    match find_task p me with
    | Some f ->
      if cancelled p then run_one p ignore else run_one p f;
      go ()
    | None -> ()
  in
  go ()

let worker p me =
  let rec loop last_epoch =
    let epoch =
      Mutex.protect p.lock @@ fun () ->
      while p.epoch = last_epoch && not p.shutting_down do
        Condition.wait p.wake p.lock
      done;
      p.epoch
    in
    if not p.shutting_down then begin
      work p me;
      loop epoch
    end
  in
  loop 0

let create lanes =
  if lanes < 1 then invalid_arg "Domain_pool.create: need at least one lane";
  let p =
    { lanes;
      deques = Array.init lanes (fun _ -> deque_create ());
      cancel_flag = Atomic.make false;
      pending = Atomic.make 0;
      lock = Mutex.create ();
      wake = Condition.create ();
      batch_done = Condition.create ();
      epoch = 0;
      shutting_down = false;
      domains = [||];
      exn = None }
  in
  p.domains <-
    Array.init (lanes - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
  p

let run_tasks p tasks =
  match tasks with
  | [] -> ()
  | _ ->
    let n = List.length tasks in
    (* propagate the submitting domain's ambient observation state
       (scope stack + trace-span parent) into every task, so worker
       metrics attribute to the submitting scope and worker spans
       parent under the submitting span instead of being orphaned *)
    let ctx = Obs.capture () in
    let tasks = List.map (fun f () -> Obs.run_with ctx f) tasks in
    Metrics.incr m_batches;
    Metrics.set m_queue_depth n;
    Atomic.set p.pending n;
    List.iteri (fun i f -> deque_push p.deques.(i mod p.lanes) f) tasks;
    Mutex.protect p.lock (fun () ->
        p.epoch <- p.epoch + 1;
        Condition.broadcast p.wake);
    (* the caller is lane 0 *)
    work p 0;
    Mutex.protect p.lock (fun () ->
        while Atomic.get p.pending > 0 do
          Condition.wait p.batch_done p.lock
        done);
    (match p.exn with
     | Some (e, bt) ->
       p.exn <- None;
       Printexc.raise_with_backtrace e bt
     | None -> ())

let shutdown p =
  Mutex.protect p.lock (fun () ->
      p.shutting_down <- true;
      Condition.broadcast p.wake);
  Array.iter Domain.join p.domains;
  p.domains <- [||]

let with_pool lanes f =
  let p = create lanes in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
