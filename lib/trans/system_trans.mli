(** ASME2SSME top-level assembly.

    Builds the complete SIGNAL program for an AADL system instance:

    - one SIGNAL process model per thread ({!Thread_trans});
    - one scheduler process model per processor, synthesized from the
      bound threads' timing properties ({!Sched_trans});
    - one top-level process instantiating schedulers, threads and
      shared-data FIFOs (Fig. 6) and wiring semantic connections;
      environment components (systems/devices without behaviour) have
      their ports lifted to top-level inputs/outputs;
    - the ctl/time bundles: in-port Frozen_time defaults to the
      thread's Dispatch, out-port Output_time to Complete for immediate
      connections and Deadline for delayed ones (Sec. IV-A), both
      overridable with Input_Time/Output_Time properties;
    - a top [Alarm] output merging every thread's deadline alarm.

    The result records the synthesized schedules and a traceability
    table from AADL paths to SIGNAL names. *)

(** How the synthesized schedules reach the generated program.

    [Embedded] (the default, the paper's construction) synthesizes one
    SIGNAL scheduler process per processor and instantiates it in the
    top process. [External] omits the scheduler processes: every
    task's ctl events ([_dispatch]/[_start]/[_complete]/[_deadline])
    become top-level {e inputs}, and [ctl_inputs] records when each
    must be driven. The External program is invariant under
    timing-only model edits (a period change alters only the schedule
    tables), which is what makes digest-driven incremental recompute
    effective — see {!Polychrony.Pipeline}. *)
type mode = Embedded | External

(** When an External-mode ctl input fires, in schedule base ticks: at
    base tick [m] of its processor iff there is [t] in [cs_ticks] with
    [m >= t] and [m ≡ t (mod cs_horizon)] — the same semantics as the
    Embedded scheduler process, including deadlines wrapping past the
    hyper-period. *)
type ctl_spec = {
  cs_cpu : string;     (** processor instance path *)
  cs_ticks : int list; (** firing offsets, in schedule base ticks *)
  cs_horizon : int;    (** hyper-period, in schedule base ticks *)
}

type output = {
  program : Signal_lang.Ast.program;
  top : Signal_lang.Ast.process;      (** also contained in [program] *)
  schedules : (string * Sched.Static_sched.schedule) list;
      (** per processor instance path *)
  tasks : (string * Sched.Task.t list) list;
      (** task sets per processor, as extracted from the AADL model *)
  trace : Traceability.t;
  tick_inputs : string list;          (** one tick input per processor *)
  env_inputs : string list;           (** lifted environment out ports *)
  env_outputs : string list;          (** lifted environment in ports *)
  ctl_inputs : (string * ctl_spec) list;
      (** External mode only: ctl events to drive, in declaration
          order; empty in Embedded mode *)
  process_digests : string list;
      (** {!Signal_lang.Ast.process_digest} of each process of
          [program], in order: the thread models' and the top
          process's are taken once per structure build (see below),
          the scheduler models' once per translation *)
}

(** {1 Translation}

    A translation splits at the schedule. The {e schedule half} runs
    every time: task extraction, thread placement (including
    {!Sched.Alloc}'s), schedule synthesis, the Embedded scheduler
    processes and the External [ctl_inputs]. The {e structure} —
    thread models, top process, traceability map and their digests —
    is a pure function of the instance without its scheduler-owned
    properties ({!Aadl.Props.scheduler_owned}; behaviours never see
    them), the registry id, the mode, the placement and the tasks each
    processor schedules or stubs. It is memoized process-wide under
    exactly those inputs (the instance through its [shape] digest),
    counted as [trans.structure.cache_hits]/[cache_misses], and never
    mutated once built; so a timing edit that keeps the placement and
    the feasible processors translates only the schedule. *)

val translate :
  ?registry:Behavior.registry ->
  ?policy:Sched.Static_sched.policy ->
  ?mode:mode ->
  Aadl.Instance.t ->
  (output, string) result
(** Fails when a process is not bound to any processor, when a thread
    lacks the timing properties needed for scheduling, or when no valid
    schedule exists under the chosen policy. The error string is the
    compact rendering of the structured diagnostics; prefer
    {!translate_diag} in new code. *)

val translate_diag :
  ?file:string ->
  ?registry:Behavior.registry ->
  ?policy:Sched.Static_sched.policy ->
  ?mode:mode ->
  Aadl.Instance.t ->
  output option * Putil.Diag.t list
(** Accumulating translation. Recoverable defects — a thread whose
    timing properties cannot form a task ([TRANS-003] or
    [SCHED-TASK-001]), a processor with no feasible schedule
    ([SCHED-INFEAS-001]) — are reported {e and} translation continues
    with placeholder tasks or never-present scheduler stubs, so one
    defect does not mask the others; the output is [Some] even then.
    [None] is returned only for fatal defects ([TRANS-004], allocation
    failure, or a behaviour/mode defect raised by {!Thread_trans}).
    [file] names the AADL source in diagnostic spans. *)

val reset_cache : unit -> unit
(** Drop every cached structure: the next translation of any model
    rebuilds its thread models and top process (a full rebuild to
    compare an incremental run against). Outputs already returned stay
    valid. *)

val sanitize : string -> string
(** Instance path as a SIGNAL identifier fragment (dots to
    underscores). *)

val local_name : string -> string -> string
(** [local_name root_path path]: the sanitized path without the root
    component — the prefix under which a thread's ctl signals
    ([<prefix>_dispatch], [_start], [_complete], [_deadline],
    [_alarm], [_done]) and port signals appear in the generated
    program. *)

val task_of_thread : Aadl.Instance.instance -> (Sched.Task.t, string) result
(** Extract the scheduler task (period, deadline, WCET in µs) from a
    thread instance's properties. WCET defaults to the largest value
    that divides the other parameters when absent: the
    Compute_Execution_Time property is strongly recommended. *)

val task_of_thread_diag :
  ?file:string ->
  Aadl.Instance.instance ->
  (Sched.Task.t, Putil.Diag.t) result
(** Like {!task_of_thread}, but the failure is a [TRANS-003] (missing
    or unschedulable dispatch properties) or [SCHED-TASK-001]
    (inconsistent timing values) diagnostic spanning the thread's
    declaration site. *)
