module Metrics = Putil.Metrics

let m_syntheses = Metrics.counter "sched.syntheses"
let m_jobs_placed = Metrics.counter "sched.jobs_placed"
let m_idle_advances = Metrics.counter "sched.idle_advances"
let m_infeasible = Metrics.counter "sched.infeasible"
let m_synthesize_ns = Metrics.timer "sched.synthesize_ns"

type policy =
  | Edf
  | Rm
  | Fp
  | Fifo

let policy_to_string = function
  | Edf -> "EDF"
  | Rm -> "RM"
  | Fp -> "FP"
  | Fifo -> "FIFO"

type job = {
  j_task : Task.t;
  j_index : int;
  dispatch_us : int;
  start_us : int;
  complete_us : int;
  deadline_abs_us : int;
}

type schedule = {
  s_policy : policy;
  hyperperiod_us : int;
  base_us : int;
  jobs : job list;
}

type failure = {
  f_task : string;
  f_job : int;
  f_message : string;
}

(* Pending job: dispatched, not yet scheduled. *)
type pending = {
  p_task : Task.t;
  p_index : int;
  p_dispatch : int;
  p_deadline : int;
}

let compare_by policy a b =
  let tie =
    (* deterministic tie-break: dispatch time then name then index *)
    let c = compare a.p_dispatch b.p_dispatch in
    if c <> 0 then c
    else
      let c = String.compare a.p_task.Task.t_name b.p_task.Task.t_name in
      if c <> 0 then c else compare a.p_index b.p_index
  in
  let primary =
    match policy with
    | Edf -> compare a.p_deadline b.p_deadline
    | Rm -> compare a.p_task.Task.period_us b.p_task.Task.period_us
    | Fp ->
      (* larger priority value = more urgent (AADL convention) *)
      compare
        (- Option.value ~default:0 a.p_task.Task.priority)
        (- Option.value ~default:0 b.p_task.Task.priority)
    | Fifo -> 0
  in
  if primary <> 0 then primary else tie

let synthesize ?(policy = Edf) tasks =
  if tasks = [] then invalid_arg "Static_sched.synthesize: no tasks";
  Putil.Tracing.with_span "sched.synthesize"
    ~args:
      [ ("policy",
         Putil.Tracing.Astr
           (match policy with
            | Edf -> "edf" | Rm -> "rm" | Fp -> "fp" | Fifo -> "fifo"));
        ("tasks", Putil.Tracing.Aint (List.length tasks)) ]
  @@ fun () ->
  Metrics.incr m_syntheses;
  Metrics.time m_synthesize_ns @@ fun () ->
  let hyper = Task.hyperperiod_us tasks in
  (* all jobs of the hyper-period *)
  let all_pending =
    List.concat_map
      (fun t ->
        List.init (Task.job_count t ~hyperperiod_us:hyper) (fun k ->
            let dispatch = t.Task.offset_us + (k * t.Task.period_us) in
            { p_task = t; p_index = k; p_dispatch = dispatch;
              p_deadline = dispatch + t.Task.deadline_us }))
      tasks
  in
  let exception Infeasible of failure in
  try
    let remaining = ref all_pending in
    let time = ref 0 in
    let scheduled = ref [] in
    while !remaining <> [] do
      let ready, future =
        List.partition (fun p -> p.p_dispatch <= !time) !remaining
      in
      match ready with
      | [] ->
        (* idle until next dispatch *)
        let next =
          List.fold_left (fun acc p -> min acc p.p_dispatch) max_int future
        in
        Metrics.incr m_idle_advances;
        time := next
      | _ ->
        let chosen = List.sort (compare_by policy) ready |> List.hd in
        let start = !time in
        let complete = start + chosen.p_task.Task.wcet_us in
        if complete > chosen.p_deadline then
          raise
            (Infeasible
               { f_task = chosen.p_task.Task.t_name;
                 f_job = chosen.p_index;
                 f_message =
                   Printf.sprintf
                     "job %d of %s misses its deadline under %s \
                      (start %dus + wcet %dus > deadline %dus)"
                     chosen.p_index chosen.p_task.Task.t_name
                     (policy_to_string policy) start
                     chosen.p_task.Task.wcet_us chosen.p_deadline });
        scheduled :=
          { j_task = chosen.p_task;
            j_index = chosen.p_index;
            dispatch_us = chosen.p_dispatch;
            start_us = start;
            complete_us = complete;
            deadline_abs_us = chosen.p_deadline }
          :: !scheduled;
        Metrics.incr m_jobs_placed;
        time := complete;
        remaining :=
          List.filter
            (fun p ->
              not
                (p.p_task.Task.t_name = chosen.p_task.Task.t_name
                 && p.p_index = chosen.p_index))
            (ready @ future)
    done;
    let jobs =
      List.sort (fun a b -> compare a.start_us b.start_us) !scheduled
    in
    let base =
      List.fold_left
        (fun acc j ->
          let g = Putil.Mathx.gcd in
          g (g (g (g acc j.dispatch_us) j.start_us) j.complete_us)
            j.deadline_abs_us)
        hyper jobs
    in
    let base = if base = 0 then 1 else base in
    Ok { s_policy = policy; hyperperiod_us = hyper; base_us = base; jobs }
  with Infeasible f ->
    Metrics.incr m_infeasible;
    Error f

let validate s =
  let problems = ref [] in
  let say fmt = Format.kasprintf (fun m -> problems := m :: !problems) fmt in
  let rec overlaps = function
    | a :: (b :: _ as rest) ->
      if a.complete_us > b.start_us then
        say "jobs %s#%d and %s#%d overlap" a.j_task.Task.t_name a.j_index
          b.j_task.Task.t_name b.j_index;
      overlaps rest
    | [ _ ] | [] -> ()
  in
  overlaps s.jobs;
  List.iter
    (fun j ->
      if j.start_us < j.dispatch_us then
        say "job %s#%d starts before dispatch" j.j_task.Task.t_name j.j_index;
      if j.complete_us > j.deadline_abs_us then
        say "job %s#%d misses its deadline" j.j_task.Task.t_name j.j_index;
      if j.complete_us - j.start_us <> j.j_task.Task.wcet_us then
        say "job %s#%d does not run for wcet" j.j_task.Task.t_name j.j_index)
    s.jobs;
  List.rev !problems

let is_valid s = validate s = []

type event =
  | Dispatch
  | Input_frozen
  | Start
  | Complete
  | Output_release
  | Deadline

let event_time j = function
  | Dispatch | Input_frozen -> j.dispatch_us
  | Start -> j.start_us
  | Complete | Output_release -> j.complete_us
  | Deadline -> j.deadline_abs_us

let event_times s name ev =
  List.filter_map
    (fun j ->
      if String.equal j.j_task.Task.t_name name then Some (event_time j ev)
      else None)
    s.jobs
  |> List.sort compare

let ticks s =
  let by_task = Hashtbl.create 8 in
  List.iter
    (fun j ->
      let name = j.j_task.Task.t_name in
      Hashtbl.replace by_task name
        (j :: Option.value ~default:[] (Hashtbl.find_opt by_task name)))
    s.jobs;
  fun name ev ->
    Option.value ~default:[] (Hashtbl.find_opt by_task name)
    |> List.map (fun j -> event_time j ev / s.base_us)
    |> List.sort_uniq compare

let event_word s name ev =
  (* an event at exactly the hyper-period boundary belongs to the NEXT
     cycle: encode the first hyper-period as a prefix so instant 0 of
     the run stays silent while the steady-state cycle ticks at 0 *)
  let horizon = s.hyperperiod_us / s.base_us in
  let abs_ticks = List.map (fun t -> t / s.base_us) (event_times s name ev) in
  let prefix = List.init horizon (fun t -> List.mem t abs_ticks) in
  let cycle =
    List.init horizon (fun t ->
        List.exists (fun a -> a mod horizon = t) abs_ticks)
  in
  Clocks.Pword.make ~prefix ~cycle

let event_affine s name ev =
  match event_times s name ev with
  | [] -> None
  | [ t ] ->
    Some
      (Clocks.Affine.periodic ~period:(s.hyperperiod_us / s.base_us)
         ~offset:(t / s.base_us))
  | t0 :: t1 :: _ as times ->
    let d = t1 - t0 in
    let evenly =
      d > 0
      && List.for_all2
           (fun a b -> b - a = d)
           (List.filteri (fun i _ -> i < List.length times - 1) times)
           (List.tl times)
      (* ... and the spacing must wrap around the hyper-period *)
      && List.length times * d = s.hyperperiod_us
    in
    if evenly then
      Some (Clocks.Affine.periodic ~period:(d / s.base_us) ~offset:(t0 / s.base_us))
    else None

let pp_gantt ppf s =
  let cols = s.hyperperiod_us / s.base_us in
  let tasks =
    List.sort_uniq compare (List.map (fun j -> j.j_task.Task.t_name) s.jobs)
  in
  let width =
    List.fold_left (fun acc t -> max acc (String.length t)) 4 tasks
  in
  Format.fprintf ppf "@[<v>%*s " width "";
  for c = 0 to cols - 1 do
    Format.fprintf ppf "%c" (if c mod 10 = 0 then '|' else ' ')
  done;
  Format.fprintf ppf "@,";
  List.iter
    (fun name ->
      let row = Bytes.make cols '.' in
      List.iter
        (fun j ->
          if String.equal j.j_task.Task.t_name name then begin
            (* waiting between dispatch and start *)
            for t = j.dispatch_us / s.base_us
                to (j.start_us / s.base_us) - 1 do
              if t < cols then Bytes.set row t 'd'
            done;
            for t = j.start_us / s.base_us
                to (j.complete_us / s.base_us) - 1 do
              if t < cols then Bytes.set row t '#'
            done
          end)
        s.jobs;
      Format.fprintf ppf "%*s %s@," width name (Bytes.to_string row))
    tasks;
  Format.fprintf ppf "@]"

let pp_schedule ppf s =
  Format.fprintf ppf
    "@[<v>static %s schedule, hyper-period %d us, base tick %d us@,"
    (policy_to_string s.s_policy) s.hyperperiod_us s.base_us;
  Format.fprintf ppf "%-16s %4s %9s %7s %9s %9s@," "task" "job" "dispatch"
    "start" "complete" "deadline";
  List.iter
    (fun j ->
      Format.fprintf ppf "%-16s %4d %9d %7d %9d %9d@," j.j_task.Task.t_name
        j.j_index j.dispatch_us j.start_us j.complete_us j.deadline_abs_us)
    s.jobs;
  Format.fprintf ppf "@]"

let code_infeasible =
  Putil.Diag.code "SCHED-INFEAS-001" "no valid static schedule exists"

let diag_of_failure ?span ?related f =
  Putil.Diag.errorf ?span ?related ~code:code_infeasible
    "infeasible schedule: %s" f.f_message
