(** Static, non-preemptive, single-processor scheduler synthesis over
    one hyper-period (paper, Sec. IV-D).

    Jobs are dispatched at [offset + k·period]; when the processor is
    free, the policy picks one ready job and runs it to completion.
    A schedule is valid when every job completes by its absolute
    deadline; synthesis fails otherwise (static and predictable rather
    than stochastic — the paper's requirement 3). *)

type policy =
  | Edf    (** earliest absolute deadline first *)
  | Rm     (** rate monotonic: smallest period first *)
  | Fp     (** fixed priority (AADL [Priority], larger = more urgent) *)
  | Fifo   (** dispatch order, arbitration by name *)

val policy_to_string : policy -> string

type job = {
  j_task : Task.t;
  j_index : int;          (** k-th job of the task in the hyper-period *)
  dispatch_us : int;
  start_us : int;
  complete_us : int;
  deadline_abs_us : int;
}

type schedule = {
  s_policy : policy;
  hyperperiod_us : int;
  base_us : int;          (** tick granularity: gcd of all event times *)
  jobs : job list;        (** ordered by start time *)
}

type failure = {
  f_task : string;
  f_job : int;
  f_message : string;
}

val synthesize :
  ?policy:policy -> Task.t list -> (schedule, failure) result
(** @raise Invalid_argument on an empty task set. *)

val is_valid : schedule -> bool
(** Re-checks deadlines, non-overlap, dispatch-before-start; used by
    property tests. *)

val validate : schedule -> string list
(** Human-readable violations; empty = valid. *)

(** {1 Event clocks} *)

type event =
  | Dispatch
  | Input_frozen   (** Input_Time; defaults to dispatch *)
  | Start
  | Complete
  | Output_release (** Output_Time; complete for immediate connections *)
  | Deadline

val event_times : schedule -> string -> event -> int list
(** Event instants (µs) of the named task's jobs inside the
    hyper-period, ascending. Input_frozen = dispatch and
    Output_release = complete under the default AADL timing model. *)

val ticks : schedule -> string -> event -> int list
(** [ticks s name ev]: the instants of [event_times s name ev] in base
    ticks, ascending and distinct. [ticks s] groups the jobs by task
    in one pass; apply it once per schedule and query it per task and
    event. *)

val event_word : schedule -> string -> event -> Clocks.Pword.t
(** The event's activation clock over base ticks as an ultimately
    periodic word (cycle = one hyper-period). *)

val event_affine : schedule -> string -> event -> Clocks.Affine.periodic option
(** Strictly periodic rendering on the base tick, when the event is
    evenly spaced — always the case for Dispatch and Deadline. *)

val pp_schedule : Format.formatter -> schedule -> unit
(** Ordered job table (dispatch/start/complete/deadline per job). *)

val pp_gantt : Format.formatter -> schedule -> unit
(** ASCII Gantt chart over one hyper-period, one row per task, one
    column per base tick: [#] executing, [d] dispatch waiting, [.]
    idle. *)

val diag_of_failure :
  ?span:Putil.Diag.span -> ?related:Putil.Diag.related list ->
  failure -> Putil.Diag.t
(** The synthesis failure as a [SCHED-INFEAS-001] diagnostic. *)
