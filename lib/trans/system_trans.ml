module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module Syn = Aadl.Syntax
module Inst = Aadl.Instance
module S = Sched.Static_sched

type mode = Embedded | External

type ctl_spec = {
  cs_cpu : string;
  cs_ticks : int list;
  cs_horizon : int;
}

type output = {
  program : Ast.program;
  top : Ast.process;
  schedules : (string * S.schedule) list;
  tasks : (string * Sched.Task.t list) list;
  trace : Traceability.t;
  tick_inputs : string list;
  env_inputs : string list;
  env_outputs : string list;
  ctl_inputs : (string * ctl_spec) list;
  process_digests : string list;
}

(* Stable translation error codes (TRANS-001/002 live in
   {!Thread_trans}). *)
let code_sched_props =
  Putil.Diag.code "TRANS-003"
    "thread lacks the properties needed for static scheduling"
let code_fatal =
  Putil.Diag.code "TRANS-004" "translation cannot produce a program"
let code_horizon =
  Putil.Diag.code "TRANS-005"
    "schedule table too large for static expansion"

(* Ceiling on hyper-period/base-tick slots a schedule table may expand
   to. The embedded scheduler encoding is O(slots) SIGNAL equations
   (worse when start/complete events are irregular), and the clock
   calculus is superlinear in the equation count, so an unbounded
   expansion turns a wildly-mismatched period set (say 4 ms against
   6 s) into a multi-gigabyte analysis. Past this ceiling the
   processor is scheduled like an infeasible one — never-present
   stubs plus a diagnostic. The paper-scale case study uses 24. *)
let max_table_slots = 256

(* A defect after which no output program can be assembled; recoverable
   defects accumulate in the collector instead. *)
exception Fatal of Putil.Diag.t

let span_of_loc ?file (l : Syn.loc) =
  if l.Syn.l_line > 0 then
    Some (Putil.Diag.span ?file ~line:l.Syn.l_line ~col:l.Syn.l_col ())
  else None

module Metrics = Putil.Metrics

let m_translations = Metrics.counter "trans.translations"
let m_processes = Metrics.counter "trans.processes"
let m_equations = Metrics.counter "trans.equations"
let m_fifos = Metrics.counter "trans.fifos"
let m_translate_ns = Metrics.timer "trans.translate_ns"

let record_output_metrics (program : Ast.program) =
  let is_fifo st =
    match Ast.desc st with
    | Ast.Sinstance i ->
      (match Signal_lang.Stdproc.primitive_of_name i.Ast.inst_proc with
       | Some _ -> true
       | None -> false)
    | _ -> false
  in
  let rec count_proc (p : Ast.process) =
    Metrics.incr m_processes;
    Metrics.incr ~by:(List.length p.Ast.body) m_equations;
    Metrics.incr
      ~by:(List.length (List.filter is_fifo p.Ast.body))
      m_fifos;
    List.iter count_proc p.Ast.subprocesses
  in
  List.iter count_proc program.Ast.processes

let sanitize path = String.map (fun c -> if c = '.' then '_' else c) path

(* local name of an instance: path without the root component *)
let local_name root_path path =
  let prefix = root_path ^ "." in
  let p =
    if String.length path > String.length prefix
       && String.sub path 0 (String.length prefix) = prefix
    then String.sub path (String.length prefix)
           (String.length path - String.length prefix)
    else path
  in
  sanitize p

let task_of_thread_diag ?file inst =
  let props = inst.Inst.i_props in
  let span = span_of_loc ?file inst.Inst.i_loc in
  let err fmt =
    Format.kasprintf
      (fun m -> Error (Putil.Diag.errorf ?span ~code:code_sched_props "%s" m))
      fmt
  in
  (* Periodic threads schedule directly; a Sporadic thread reserves a
     periodic server slot at its minimum interarrival rate (its Period
     property), the standard static treatment — the paper's scheduler
     is static and non-preemptive by requirement. Aperiodic and
     Background dispatching have no static slot and are rejected. *)
  match Aadl.Props.dispatch_protocol props with
  | Some (Aadl.Props.Aperiodic | Aadl.Props.Background) ->
    err
      "thread %s: aperiodic/background dispatch cannot be scheduled \
       statically"
      inst.Inst.i_path
  | Some Aadl.Props.Periodic | Some Aadl.Props.Sporadic | None -> (
  match Aadl.Props.period_us props with
  | None -> err "thread %s: no Period property" inst.Inst.i_path
  | Some period_us ->
    let deadline_us =
      Option.value ~default:period_us (Aadl.Props.deadline_us props)
    in
    let wcet_us =
      match Aadl.Props.compute_execution_time_us props with
      | Some w when w > 0 -> w
      | Some _ | None -> max 1 (period_us / 10)
    in
    let offset_us =
      match Aadl.Props.find "Dispatch_Offset" props with
      | Some v -> Option.value ~default:0 (Aadl.Props.duration_us v)
      | None -> 0
    in
    (* route user-model parameters through the checked constructor so
       an inconsistent property set becomes a located SCHED-TASK-001
       rather than an Invalid_argument trap *)
    (match
       Sched.Task.make_checked ~deadline_us ~offset_us
         ?priority:(Aadl.Props.priority props)
         ~name:inst.Inst.i_path ~period_us ~wcet_us ()
     with
     | Ok task -> Ok task
     | Error d ->
       Error
         (match d.Putil.Diag.span with
          | Some _ -> d
          | None -> { d with Putil.Diag.span = span })))

let task_of_thread inst =
  Result.map_error
    (fun d -> d.Putil.Diag.message)
    (task_of_thread_diag inst)

(* never-present expressions, used for unconnected inputs *)
let never_int = B.(when_ (i 0) (b false))
let never_event = B.(on (b false))

let is_thread_path t path =
  match Inst.find t path with
  | Some i -> i.Inst.i_category = Syn.Thread
  | None -> false

let ctl_suffixes =
  [ (S.Dispatch, "_dispatch"); (S.Start, "_start");
    (S.Complete, "_complete"); (S.Deadline, "_deadline") ]

let translate_core ?file ~registry ~policy ~mode ~diags t =
    let trace = Traceability.create () in
    let root_path = t.Inst.root.Inst.i_path in
    let lname inst = local_name root_path inst.Inst.i_path in
    let threads = Inst.threads t in
    if threads = [] then
      raise
        (Fatal (Putil.Diag.errorf ~code:code_fatal "model contains no thread"));
    let datas = Inst.instances_of_category t Syn.Data in
    let processors =
      Inst.instances_of_category t Syn.Processor
      @ Inst.instances_of_category t Syn.Virtual_processor
    in
    (* ---- binding: thread -> processor ---- *)
    let explicit_cpu th =
      let path = th.Inst.i_path in
      List.find_map
        (fun (part, cpu) ->
          if String.equal part path
             || (String.length path > String.length part
                 && String.sub path 0 (String.length part + 1) = part ^ ".")
          then Some cpu
          else None)
        t.Inst.bindings
    in
    (* Memoized per thread: a failed extraction is reported once and
       replaced by a harmless placeholder slot, so one defective thread
       does not mask defects elsewhere in the model. *)
    let task_cache = Hashtbl.create 8 in
    (* placeholder period when a defective thread declares none: the
       gcd of the declared periods, which perturbs neither the
       processor's base tick (a gcd) nor its hyper-period (an lcm) —
       any other choice can inflate the schedule table by orders of
       magnitude *)
    let fallback_period_us =
      match
        List.filter_map
          (fun th ->
            match Aadl.Props.period_us th.Inst.i_props with
            | Some p when p > 0 -> Some p
            | Some _ | None -> None)
          threads
      with
      | [] -> 1_000_000
      | ps -> Putil.Mathx.gcd_list ps
    in
    let task_of th =
      match Hashtbl.find_opt task_cache th.Inst.i_path with
      | Some task -> task
      | None ->
        let task =
          match task_of_thread_diag ?file th with
          | Ok task -> task
          | Error d ->
            Putil.Diag.add diags d;
            (* keep the thread's declared period if it has one: an
               arbitrary fallback period would enter the processor's
               hyper-period lcm and can inflate the schedule table by
               orders of magnitude *)
            let period_us =
              match Aadl.Props.period_us th.Inst.i_props with
              | Some p when p > 0 -> p
              | Some _ | None -> fallback_period_us
            in
            Sched.Task.make ~name:th.Inst.i_path ~period_us ~wcet_us:1 ()
        in
        Hashtbl.add task_cache th.Inst.i_path task;
        task
    in
    let cpu_map =
      let unbound =
        List.filter (fun th -> explicit_cpu th = None) threads
      in
      match processors, unbound with
      | [], _ ->
        (* no declared processor: everything on an implicit one *)
        List.map (fun th -> (th.Inst.i_path, "__implicit_cpu__")) threads
      | [ only ], _ ->
        List.map
          (fun th ->
            ( th.Inst.i_path,
              Option.value ~default:only.Inst.i_path (explicit_cpu th) ))
          threads
      | _ :: _ :: _, [] ->
        List.map
          (fun th -> (th.Inst.i_path, Option.get (explicit_cpu th)))
          threads
      | _ :: _ :: _, _ :: _ -> (
        (* partitioned allocation of the unbound threads around the
           explicit bindings (the paper's SynDEx connection, ref [17]) *)
        let cpus = List.map (fun p -> p.Inst.i_path) processors in
        let preloaded =
          List.map
            (fun cpu ->
              ( cpu,
                List.filter_map
                  (fun th ->
                    if explicit_cpu th = Some cpu then Some (task_of th)
                    else None)
                  threads ))
            cpus
        in
        let todo = List.map task_of unbound in
        match Sched.Alloc.allocate ~policy ~preloaded ~cpus todo with
        | Error f -> raise (Fatal (Sched.Alloc.diag_of_failure f))
        | Ok assignments ->
          List.map
            (fun th ->
              match explicit_cpu th with
              | Some cpu -> (th.Inst.i_path, cpu)
              | None ->
                let cpu =
                  List.find_map
                    (fun a ->
                      if
                        List.exists
                          (fun task ->
                            task.Sched.Task.t_name = th.Inst.i_path)
                          a.Sched.Alloc.a_tasks
                      then Some a.Sched.Alloc.a_cpu
                      else None)
                    assignments
                in
                (th.Inst.i_path, Option.get cpu))
            threads)
    in
    let cpu_of_thread th = List.assoc th.Inst.i_path cpu_map in
    let cpu_paths =
      List.sort_uniq String.compare (List.map snd cpu_map)
    in
    (* ---- task sets and schedules per processor ---- *)
    let tasks_of_cpu =
      List.map
        (fun cpu ->
          let ths =
            List.filter (fun th -> String.equal (cpu_of_thread th) cpu) threads
          in
          (cpu, List.map task_of ths))
        cpu_paths
    in
    (* A processor whose task set is infeasible is reported and its
       scheduler replaced by never-present stubs, so defects on other
       processors (and type/clock defects downstream) still surface in
       the same run. *)
    let schedules, stub_cpus =
      let ok, failed =
        List.fold_left
          (fun (ok, failed) (cpu, tasks) ->
            match S.synthesize ~policy tasks with
            | Ok s when s.S.hyperperiod_us / s.S.base_us > max_table_slots ->
              let span =
                List.find_map
                  (fun th ->
                    if String.equal (cpu_of_thread th) cpu
                    then span_of_loc ?file th.Inst.i_loc
                    else None)
                  threads
              in
              Putil.Diag.add diags
                (Putil.Diag.errorf ?span ~code:code_horizon
                   "processor %s: schedule table of %d slots (hyper-period \
                    %d us over a %d us base tick) exceeds the %d-slot \
                    static-expansion limit; check for wildly mismatched \
                    thread periods"
                   cpu
                   (s.S.hyperperiod_us / s.S.base_us)
                   s.S.hyperperiod_us s.S.base_us max_table_slots);
              (ok, (cpu, tasks) :: failed)
            | Ok s -> ((cpu, s) :: ok, failed)
            | Error f ->
              (* point at the thread whose job misses, falling back to
                 any thread bound to this processor *)
              let span =
                let bound p =
                  List.find_map
                    (fun th ->
                      if p th && String.equal (cpu_of_thread th) cpu
                      then span_of_loc ?file th.Inst.i_loc
                      else None)
                    threads
                in
                match
                  bound (fun th ->
                      String.equal th.Inst.i_path f.S.f_task)
                with
                | Some s -> Some s
                | None -> bound (fun _ -> true)
              in
              let related =
                [ { Putil.Diag.rel_message =
                      Printf.sprintf "while synthesizing the %s schedule \
                                      of processor %s"
                        (S.policy_to_string policy) cpu;
                    rel_span = None } ]
              in
              Putil.Diag.add diags (S.diag_of_failure ?span ~related f);
              (ok, (cpu, tasks) :: failed))
          ([], []) tasks_of_cpu
      in
      (List.rev ok, List.rev failed)
    in
    (* ---- thread process models ---- *)
    let thread_models, thread_digests =
      List.split
        (List.map
           (fun th ->
             let model, digest = Thread_trans.translate ~registry th in
             Traceability.add_component trace ~aadl:th.Inst.i_path
               ~signal:model.Ast.proc_name;
             ((th, model), digest))
           threads)
    in
    (* ---- scheduler models ---- *)
    let sched_name cpu = "sched_" ^ sanitize (local_name root_path cpu) in
    let prefix_of_task task_name =
      match Inst.find t task_name with
      | Some th -> lname th
      | None -> sanitize task_name
    in
    let sched_models =
      match mode with
      | External -> []
      | Embedded ->
        List.map
          (fun (cpu, s) ->
            let name = sched_name cpu in
            Traceability.add_component trace ~aadl:cpu ~signal:name;
            (cpu, Sched_trans.translate ~name ~prefix_of:prefix_of_task s))
          schedules
    in
    (* In the scheduler-exogenous mode, every task's ctl events become
       top-level inputs driven from the schedule tables at simulation
       time (the generated kernel is then invariant under timing-only
       model edits). [cs_ticks]/[cs_horizon] are in schedule base
       ticks; tasks on a processor with no feasible schedule get an
       empty tick list — never driven, mirroring the Embedded stubs. *)
    let ctl_specs =
      match mode with
      | Embedded -> []
      | External ->
        let of_task spec_of tname =
          let prefix = prefix_of_task tname in
          List.map
            (fun (ev, suffix) -> (prefix ^ suffix, spec_of ev))
            ctl_suffixes
        in
        List.concat_map
          (fun (cpu, s) ->
            let horizon = s.S.hyperperiod_us / s.S.base_us in
            let tnames =
              List.sort_uniq String.compare
                (List.map (fun j -> j.S.j_task.Sched.Task.t_name) s.S.jobs)
            in
            List.concat_map
              (fun tname ->
                of_task
                  (fun ev ->
                    { cs_cpu = cpu;
                      cs_ticks =
                        List.sort_uniq compare
                          (List.map
                             (fun t -> t / s.S.base_us)
                             (S.event_times s tname ev));
                      cs_horizon = horizon })
                  tname)
              tnames)
          schedules
        @ List.concat_map
            (fun (cpu, tasks) ->
              List.concat_map
                (fun task ->
                  of_task
                    (fun _ ->
                      { cs_cpu = cpu; cs_ticks = []; cs_horizon = 1 })
                    task.Sched.Task.t_name)
                tasks)
            stub_cpus
    in
    let ctl_set = Hashtbl.create 16 in
    List.iter (fun (n, _) -> Hashtbl.replace ctl_set n ()) ctl_specs;
    (* ---- top process assembly ---- *)
    let locals = ref [] in
    let stmts = ref [] in
    (* ctl events that are top-level inputs must not shadow themselves
       as locals when thread wiring mentions them *)
    let declare name typ =
      if (not (Hashtbl.mem ctl_set name))
         && not (List.exists (fun vd -> vd.Ast.var_name = name) !locals)
      then locals := Ast.var name typ :: !locals;
      name
    in
    let emit s = stmts := s :: !stmts in
    let semantic = Inst.semantic_connections t in
    (* environment endpoints: features of non-thread components *)
    let env_inputs = ref [] and env_outputs = ref [] in
    let env_input_name path =
      let n = local_name root_path path in
      if not (List.mem n !env_inputs) then env_inputs := n :: !env_inputs;
      Traceability.add_port trace ~aadl:path ~signal:n;
      n
    in
    let split_feature path =
      match String.rindex_opt path '.' with
      | None -> None
      | Some i ->
        Some
          ( String.sub path 0 i,
            String.sub path (i + 1) (String.length path - i - 1) )
    in
    let source_expr src =
      match Inst.feature_of_path t src with
      | Some (inst, _) when inst.Inst.i_category = Syn.Thread -> (
        match split_feature src with
        | Some (_, f) -> B.v (lname inst ^ "_" ^ f)
        | None -> assert false)
      | _ -> B.v (env_input_name src)
    in
    let merge_exprs = function
      | [] -> never_int
      | e :: rest -> List.fold_left (fun acc e' -> B.default acc e') e rest
    in
    (* ---- shared data FIFOs ---- *)
    let data_capacity inst =
      match Aadl.Props.queue_size inst.Inst.i_props with
      | Some n when n > 0 -> n
      | Some _ | None -> 16
    in
    (* map: data path -> signal prefix *)
    let data_prefix = Hashtbl.create 4 in
    List.iter
      (fun d ->
        let dp = lname d in
        Hashtbl.replace data_prefix d.Inst.i_path dp;
        Traceability.add_component trace ~aadl:d.Inst.i_path ~signal:dp)
      datas;
    (* access connections, resolved to (data path, thread path, access) *)
    let access_links =
      List.filter_map
        (fun c ->
          if c.Inst.ci_kind <> Syn.Access_connection then None
          else
            let resolve a b =
              match Inst.find t a with
              | Some d when d.Inst.i_category = Syn.Data -> (
                match split_feature b with
                | Some (thp, acc) when is_thread_path t thp ->
                  Some (d.Inst.i_path, thp, acc)
                | _ -> None)
              | _ -> None
            in
            match resolve c.Inst.ci_src c.Inst.ci_dst with
            | Some l -> Some l
            | None -> resolve c.Inst.ci_dst c.Inst.ci_src)
        t.Inst.connections
    in
    let data_of_access thp acc =
      List.find_map
        (fun (d, th, a) ->
          if String.equal th thp && String.equal a acc then Some d else None)
        access_links
    in
    (* ---- scheduler instances ---- *)
    let tick_inputs = ref [] in
    let multi_cpu = List.length cpu_paths > 1 in
    List.iter
      (fun (cpu, model) ->
        let tick =
          if multi_cpu then "tick_" ^ sanitize (local_name root_path cpu)
          else "tick"
        in
        if not (List.mem tick !tick_inputs) then
          tick_inputs := tick :: !tick_inputs;
        let outs =
          List.map (fun vd -> declare vd.Ast.var_name Types.Tevent)
            model.Ast.outputs
        in
        emit
          (B.inst ~label:(model.Ast.proc_name ^ "_i") model.Ast.proc_name
             [ B.v tick ] outs))
      sched_models;
    (* ctl stubs for processors whose schedule failed: the bound
       threads' dispatch/start/complete/deadline events stay declared
       and defined (never present), keeping the program elaborable.
       (In External mode they are inputs with no firing ticks.) *)
    if mode = Embedded then
      List.iter
        (fun (_cpu, tasks) ->
          List.iter
            (fun task ->
              let p = prefix_of_task task.Sched.Task.t_name in
              List.iter
                (fun suffix ->
                  let n = declare (p ^ suffix) Types.Tevent in
                  emit B.(n := never_event))
                [ "_dispatch"; "_start"; "_complete"; "_deadline" ])
            tasks)
        stub_cpus;
    (* ---- data fifo instances ---- *)
    List.iter
      (fun d ->
        let dp = Hashtbl.find data_prefix d.Inst.i_path in
        let push = declare (dp ^ "_push") Types.Tint in
        let pop = declare (dp ^ "_pop") Types.Tevent in
        let data_sig = declare (dp ^ "_data") Types.Tint in
        let size_sig = declare (dp ^ "_size") Types.Tint in
        let writers =
          List.filter (fun (dpath, _, _) -> dpath = d.Inst.i_path) access_links
          |> List.filter_map (fun (_, thp, acc) ->
                 match Inst.find t thp with
                 | Some th
                   when List.mem acc (Thread_trans.write_accesses th) ->
                   Some (lname th ^ "_" ^ acc ^ "_w")
                 | _ -> None)
        in
        let readers =
          List.filter (fun (dpath, _, _) -> dpath = d.Inst.i_path) access_links
          |> List.filter_map (fun (_, thp, acc) ->
                 match Inst.find t thp with
                 | Some th when List.mem acc (Thread_trans.read_accesses th) ->
                   Some (lname th ^ "_" ^ acc ^ "_pop")
                 | _ -> None)
        in
        (* writers contribute partial definitions (Fig. 6, eq4) *)
        (match writers with
         | [] -> emit B.(push := never_int)
         | ws -> List.iter (fun w -> emit B.(push =:: v w)) ws);
        (match readers with
         | [] -> emit B.(pop := never_event)
         | r0 :: rest ->
           emit
             B.(pop
                := List.fold_left
                     (fun acc x -> default acc (clk (v x)))
                     (clk (v r0)) rest));
        emit
          (B.inst
             ~params:[ Types.Vint (data_capacity d); Types.Vstring "dropoldest" ]
             ~label:(dp ^ "_fifo") "fifo_reset"
             B.[ v push; v pop; never_event ]
             [ data_sig; size_sig ]))
      datas;
    (* ---- thread instances ---- *)
    let alarms = ref [] in
    List.iter
      (fun (th, model) ->
        let tp = lname th in
        let ins = Thread_trans.in_ports th in
        let outs = Thread_trans.out_ports th in
        let reads = Thread_trans.read_accesses th in
        let writes = Thread_trans.write_accesses th in
        (* declare ctl and data locals produced elsewhere *)
        let dispatch = tp ^ "_dispatch" and start = tp ^ "_start" in
        let complete = tp ^ "_complete" and deadline = tp ^ "_deadline" in
        List.iter (fun n -> ignore (declare n Types.Tevent))
          [ dispatch; start; complete; deadline ];
        (* in-port arrival and frozen-time *)
        let in_args =
          List.concat_map
            (fun (p, _, _) ->
              let dstpath = th.Inst.i_path ^ "." ^ p in
              let sources =
                List.filter
                  (fun c ->
                    c.Inst.ci_kind = Syn.Port_connection
                    && String.equal c.Inst.ci_dst dstpath)
                  semantic
              in
              let arrival =
                merge_exprs (List.map (fun c -> source_expr c.Inst.ci_src) sources)
              in
              let ft_prop =
                let fprops =
                  match
                    List.find_opt
                      (fun f -> Syn.feature_name f = p)
                      th.Inst.i_features
                  with
                  | Some (Syn.Port { fprops; _ }) -> fprops
                  | _ -> []
                in
                match Aadl.Props.input_time fprops with
                | Some it -> Some it
                | None -> Aadl.Props.input_time th.Inst.i_props
              in
              let ft =
                match Option.value ~default:Aadl.Props.At_dispatch ft_prop with
                | Aadl.Props.At_dispatch -> dispatch
                | Aadl.Props.At_start -> start
                | Aadl.Props.At_complete -> complete
                | Aadl.Props.At_deadline -> deadline
              in
              Traceability.add_port trace ~aadl:dstpath
                ~signal:(tp ^ "_" ^ p);
              [ arrival; B.v ft ])
            ins
        in
        (* out-port output-time *)
        let out_time_args =
          List.map
            (fun (p, _, _) ->
              let srcpath = th.Inst.i_path ^ "." ^ p in
              let conns =
                List.filter
                  (fun c ->
                    c.Inst.ci_kind = Syn.Port_connection
                    && String.equal c.Inst.ci_src srcpath)
                  semantic
              in
              let ot_prop =
                let fprops =
                  match
                    List.find_opt
                      (fun f -> Syn.feature_name f = p)
                      th.Inst.i_features
                  with
                  | Some (Syn.Port { fprops; _ }) -> fprops
                  | _ -> []
                in
                match Aadl.Props.output_time fprops with
                | Some ot -> Some ot
                | None -> Aadl.Props.output_time th.Inst.i_props
              in
              let default_ot =
                if conns <> [] && List.for_all (fun c -> not c.Inst.ci_immediate) conns
                then Aadl.Props.At_deadline
                else Aadl.Props.At_complete
              in
              match Option.value ~default:default_ot ot_prop with
              | Aadl.Props.At_dispatch -> B.v dispatch
              | Aadl.Props.At_start -> B.v start
              | Aadl.Props.At_complete -> B.v complete
              | Aadl.Props.At_deadline -> B.v deadline)
            outs
        in
        (* read-access data values *)
        let read_args =
          List.map
            (fun a ->
              match data_of_access th.Inst.i_path a with
              | Some d -> B.v (Hashtbl.find data_prefix d ^ "_data")
              | None -> never_int)
            reads
        in
        let in_exprs =
          B.[ v dispatch; v start; v deadline ]
          @ in_args @ out_time_args @ read_args
        in
        let out_names =
          [ declare (tp ^ "_done") Types.Tevent;
            declare (tp ^ "_alarm") Types.Tevent ]
          @ (if th.Inst.i_modes <> [] then
               [ declare (tp ^ "_mode") Types.Tint ]
             else [])
          @ List.map (fun (p, _, _) -> declare (tp ^ "_" ^ p) Types.Tint) outs
          @ List.map
              (fun a -> declare (tp ^ "_" ^ a ^ "_pop") Types.Tevent)
              reads
          @ List.map (fun a -> declare (tp ^ "_" ^ a ^ "_w") Types.Tint) writes
        in
        alarms := (tp ^ "_alarm") :: !alarms;
        emit (B.inst ~label:tp model.Ast.proc_name in_exprs out_names))
      thread_models;
    (* ---- environment outputs ---- *)
    let env_out_stmts = ref [] in
    List.iter
      (fun c ->
        if c.Inst.ci_kind = Syn.Port_connection then begin
          let dst_is_env =
            match Inst.feature_of_path t c.Inst.ci_dst with
            | Some (inst, _) -> inst.Inst.i_category <> Syn.Thread
            | None -> false
          in
          let src_is_thread =
            match Inst.feature_of_path t c.Inst.ci_src with
            | Some (inst, _) -> inst.Inst.i_category = Syn.Thread
            | None -> false
          in
          if dst_is_env && src_is_thread then begin
            let out = local_name root_path c.Inst.ci_dst in
            Traceability.add_port trace ~aadl:c.Inst.ci_dst ~signal:out;
            if not (List.mem out !env_outputs) then begin
              env_outputs := out :: !env_outputs;
              env_out_stmts :=
                (out, [ source_expr c.Inst.ci_src ]) :: !env_out_stmts
            end
            else
              env_out_stmts :=
                List.map
                  (fun (o, es) ->
                    if String.equal o out then
                      (o, es @ [ source_expr c.Inst.ci_src ])
                    else (o, es))
                  !env_out_stmts
          end
        end)
      semantic;
    List.iter
      (fun (out, exprs) -> emit B.(out := merge_exprs exprs))
      (List.rev !env_out_stmts);
    (* ---- merged alarm ---- *)
    (match List.rev !alarms with
     | [] -> emit B.("Alarm" := never_event)
     | a :: rest ->
       emit
         B.("Alarm"
            := List.fold_left (fun acc x -> default acc (v x)) (v a) rest));
    let top =
      { Ast.proc_name = sanitize (Syn.impl_base_name root_path);
        params = [];
        inputs =
          List.map (fun tname -> Ast.var tname Types.Tevent)
            (List.rev !tick_inputs)
          @ List.map (fun (n, _) -> Ast.var n Types.Tevent) ctl_specs
          @ List.map (fun n -> Ast.var n Types.Tint) (List.rev !env_inputs);
        outputs =
          List.map (fun n -> Ast.var n Types.Tint) (List.rev !env_outputs)
          @ [ Ast.var "Alarm" Types.Tevent ];
        locals = List.rev !locals;
        body = List.rev !stmts;
        subprocesses = [];
        pragmas =
          ("aadl", root_path)
          :: (if mode = External then [ ("sched", "external") ] else []) }
    in
    let program =
      B.program
        (sanitize (Syn.impl_base_name root_path) ^ "_ssme")
        (List.map snd thread_models
         @ List.map snd sched_models
         @ [ top ])
    in
    record_output_metrics program;
    { program; top;
      process_digests =
        thread_digests
        @ List.map (fun (_, m) -> Ast.process_digest m) sched_models
        @ [ Ast.process_digest top ];
      schedules;
      tasks = tasks_of_cpu;
      trace;
      tick_inputs = List.rev !tick_inputs;
      env_inputs = List.rev !env_inputs;
      env_outputs = List.rev !env_outputs;
      ctl_inputs = ctl_specs }

let translate_diag ?file ?(registry = Behavior.empty) ?(policy = S.Edf)
    ?(mode = Embedded) t =
  Putil.Tracing.with_span "trans.system"
    ~args:[ ("root", Putil.Tracing.Astr t.Inst.root.Inst.i_path) ]
  @@ fun () ->
  Metrics.incr m_translations;
  Metrics.time m_translate_ns @@ fun () ->
  let diags = Putil.Diag.collector () in
  match translate_core ?file ~registry ~policy ~mode ~diags t with
  | out -> (Some out, Putil.Diag.result diags)
  | exception Fatal d ->
    Putil.Diag.add diags d;
    (None, Putil.Diag.result diags)
  | exception Thread_trans.Trans_diag d ->
    Putil.Diag.add diags d;
    (None, Putil.Diag.result diags)
  | exception Invalid_argument m ->
    Putil.Diag.add diags (Putil.Diag.errorf ~code:code_fatal "%s" m);
    (None, Putil.Diag.result diags)

let translate ?registry ?policy ?mode t =
  match translate_diag ?registry ?policy ?mode t with
  | Some out, diags when not (Putil.Diag.has_errors diags) -> Ok out
  | _, diags -> Error (Putil.Diag.list_to_string diags)
