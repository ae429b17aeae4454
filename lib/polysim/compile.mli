(** Clock-directed compilation of kernel SIGNAL processes
    (paper ref [15]: "Compilation of polychronous data flow
    equations").

    Where {!Engine} resolves presence by a per-instant fixpoint, the
    compiler runs the clock calculus once, derives a boolean clock
    function per synchronization class, orders presence and value
    computations topologically, and emits a straight-line execution
    plan compiled to closures over unboxed structure-of-arrays state.
    Every derived clock is lowered once into one shared {!dag}, which
    the step, {!to_c} and {!Symbolic} all read; none touches a BDD.
    A step then:

    + reads input presence from the dense stimulus buffer;
    + decides each class's presence (input classes from the stimulus,
      FIFO-driven classes from primitive state, derived classes by
      walking one root-to-leaf path of the clock DAG);
    + computes values of present signals in dataflow order — no
      iteration, no retraction, no per-value boxing;
    + commits delay registers and FIFO ring buffers.

    Two stepping entries share one core: {!run_batched} steps [n]
    instants of scenario 0 and {!step_many} steps one instant of every
    scenario of a {!compile_scenarios} instance, executing each
    distinct (state, stimulus) pair once. The steady-state step
    loop is allocation-flat: with trace recording off, {!run_batched}
    performs no per-instant heap allocation (values live in
    int/float/string payload arrays indexed by signal, tagged per
    instant); with it on, an executed instant allocates only its
    unboxed {!Trace.row}, recorded in the pass that checks every
    present signal has a value, and every trace of an instance shares
    the plan's {!Trace.header}.

    Compilation {e fails} (with a diagnostic) on programs whose
    combined presence/value dependency graph is cyclic — exactly the
    programs the causality analysis flags — so callers can fall back to
    the interpreter. On the translated AADL systems, the compiled step
    and the interpreter produce identical traces (tested). *)

type t

val compile :
  ?digest:string -> Signal_lang.Kernel.kprocess -> (t, string) result
(** Compile, or fetch the memoized compilation. The expensive immutable
    part — the clock DAG, the toposorted execution plan compiled to
    closures — is cached on {!Signal_lang.Kernel.digest}
    ([digest], when the caller already holds it, saves computing it)
    (with a physical-equality fast path for repeated compiles of the
    same in-memory kernel) and shared between all instances of a
    kernel; each call returns a fresh mutable instance (own delay
    registers, FIFO queues and trace; the trace's header is the
    plan's). Instances over one plan are
    independent: stepping one never observes another, and distinct
    domains may each step their own instance concurrently (the shared
    plan is read-only at step time). *)

val compile_scenarios :
  ?digest:string -> Signal_lang.Kernel.kprocess -> scenarios:int ->
  (t, string) result
(** Like {!compile}, but the instance carries [scenarios] independent
    copies of the mutable state (delay registers, FIFO queues,
    presence bits, stimulus buffer, trace) in scenario-striped
    structure-of-arrays layout, all driven in lockstep by
    {!step_many} over the one shared plan. All scenarios start in the
    same state. [scenarios] must pass {!check_scenarios}; otherwise
    its message is the [Error], and nothing is allocated. *)

val max_scenario_slots : int
(** The bound on [scenarios × signals] of one instance: its state is
    that many slots in each of ten per-signal arrays. *)

val check_scenarios :
  Signal_lang.Kernel.kprocess -> int -> (unit, string) result
(** [Error] unless [1 <= scenarios] and [scenarios × signals] is at
    most {!max_scenario_slots}. Allocates nothing but the message. *)

val compile_uncached : Signal_lang.Kernel.kprocess -> (t, string) result
(** [compile] bypassing the plan memo: always rebuilds. For benches
    that want to measure a cold compilation, and tests. *)

val fork : t -> t
(** A fresh instance (initial state, empty traces, same scenario
    count) over the same already-built plan. Never fails: no
    re-compilation happens. *)

val scenarios : t -> int
(** Number of lockstep scenarios carried by this instance (1 unless
    built by {!compile_scenarios}). *)

(** {1 Dense stimulus ABI}

    The zero-allocation convention: inputs are addressed by their
    dense signal index and written into a preallocated stimulus
    buffer; outputs are read back from the instance without
    materializing lists. A stepping call ({!run_batched},
    {!step_many}) clears the buffer and hands it to a [fill] callback
    before each instant, then the results of the last instant are
    read back:

    {[ match
         Compile.run_batched c ~n:1 ~fill:(fun c _ ->
             Compile.set_stim c i v)           (* per present input *)
       with
       | Ok () -> Compile.iter_present c (fun i v -> ...)
       | Error m -> ... ]} *)

val n_signals : t -> int

val signal_index : t -> Signal_lang.Ast.ident -> int option
(** Dense index of a signal name (inputs and outputs alike). *)

val signal_name : t -> int -> Signal_lang.Ast.ident

val is_input : t -> int -> bool
(** Whether dense index [i] names an input signal (stimulus target). *)

val set_stim : t -> int -> Signal_lang.Types.value -> unit
(** Mark input [i] present with the given value for the instant being
    filled. Only meaningful inside a [fill] callback; a non-input or
    out-of-range index surfaces as the [Error] of the enclosing
    {!run_batched}/{!step_many} call. *)

val set_stim_named :
  t -> Signal_lang.Ast.ident -> Signal_lang.Types.value -> unit
(** {!set_stim} by signal name, for callers that hold name-based
    stimuli; an unknown name fails the enclosing call the same way
    (["stimulus for unknown signal x"]). *)

val out_present : t -> int -> bool
(** Whether signal [i] was present at the last executed instant. *)

val out_value : t -> int -> Signal_lang.Types.value option
(** Value of signal [i] at the last executed instant, if present. *)

val iter_present : t -> (int -> Signal_lang.Types.value -> unit) -> unit
(** Iterate present signals of the last executed instant in ascending
    index order. *)

val present_assoc :
  t -> (Signal_lang.Ast.ident * Signal_lang.Types.value) list
(** Present signals of the last executed instant as a name/value assoc
    list (ascending index order), for dense ABI callers that still
    need the boxed view (e.g. safety predicates). *)

(** {1 Stepping}

    Both entries run one stepping core: it times the call into
    [compile.step_ns], turns any stimulus or step error into [Error],
    and leaves scenario 0 selected on every exit, so {!out_present},
    {!out_value}, {!iter_present} and {!present_assoc} read scenario 0
    after either call, including after an [Error]. *)

val run_batched : t -> n:int -> fill:(t -> int -> unit) -> (unit, string) result
(** Execute [n] instants in one call over scenario 0, with plan and
    metrics lookups hoisted out of the loop and no intermediate lists.
    [fill c k] must set the stimulus for relative instant [k] via
    {!set_stim} (the buffer is cleared before each call). [~n:1] is
    the one-instant step. With recording off the loop does not
    allocate per instant. *)

val step_many : t -> fill:(t -> int -> unit) -> (unit, string) result
(** Advance {e every} scenario of the instance by one instant, in
    lockstep over the shared plan. [fill c s] sets scenario [s]'s
    stimulus via {!set_stim}; scenarios are filled and stepped one at
    a time in index order, so an [Error] is the one of the first
    failing scenario. Per-scenario results land in {!trace_of}; each
    scenario behaves exactly as an independent instance driven with
    the same stimuli (tested).

    Scenarios whose state and stimulus coincide share the instant.
    The instance tracks which scenarios are in the same state (delay
    registers and queued FIFO contents, compared exactly). When
    scenario [s]'s stimulus equals, on every input slot, that of an
    earlier scenario that executed this instant from the same state,
    [s] does not execute: it copies that scenario's post-instant state
    into its own stripe and records the same trace row. The state is
    the delay registers and the queued FIFO contents: every stripe
    always holds its true state, so {!snapshot}, {!state_key},
    {!fork} and {!trace_of} see no difference; {!restore}, an [Error]
    and a {!run_batched} call (which steps scenario 0 only) forget
    what is shared. The per-instant slots (signal values and
    presence) of a scenario that did not execute the instant are
    unspecified; only scenario 0, which always executes, is read
    back. A sweep therefore costs its distinct (state, stimulus)
    pairs plus, per shared scenario-instant, its inputs, not K times
    its instants over all signals. With one scenario nothing is
    shared.

    Counters: [compile.instants] counts every scenario-instant,
    executed or shared, so it reads K per call; [compile.shared_instants]
    counts the scenario-instants served by sharing. *)

val trace : t -> Trace.t
(** Trace of scenario 0. *)

val trace_of : t -> int -> Trace.t
(** Trace of scenario [s]. *)

val instant : t -> int

val plan_length : t -> int
(** Number of micro-operations in the execution plan. *)

val free_classes : t -> int
(** Synchronization classes whose presence is neither input-driven,
    nor FIFO-driven, nor derivable from the clock functions — they
    default to absent each instant (0 for endochronous programs). *)

val free_class_members : t -> string list
(** Signals belonging to the free classes, for diagnostics. *)

(** {1 State management}

    Used by {!Explore} to walk the reachable state space: the mutable
    state of a compiled process is its delay memories and FIFO
    contents. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val set_recording : t -> bool -> unit
(** Disable trace recording during exploration (default on). *)

type keybuf
(** Reusable serialization buffer for {!state_key}; one per worker. *)

val keybuf : unit -> keybuf

val state_key : t -> keybuf -> string
(** Fixed-width (16-byte MD5) key of the mutable state (delay
    memories and FIFO contents, excluding the instant counter),
    serialized through the reused [keybuf]; equal keys mean
    behaviourally identical continuations. The visited-set key of the
    explicit explorer. Per call it allocates only the digest string
    (plus one box per float-typed register), not a Marshal image of
    the boxed state. *)

(** {1 Plan introspection}

    A read-only view of the plan the step runs: how each class's
    presence is decided, the clock DAG and the topological op order,
    from which {!Symbolic} rebuilds the step as boolean formulas. *)

(** How a class's presence is decided. *)
type pdef =
  | Pinput of int list             (** presence = stimulus of members *)
  | Pprim of int * int             (** decided by FIFO state (prim, pos) *)
  | Pderived of int
      (** the clock DAG node at this root decides it ({!dag_node}) *)
  | Palias of int
      (** mirror class [c]'s presence: the calculus solved an
          observable class's clock as exactly this class's free
          presence variable, so that observation decides it *)
  | Pfree                          (** statically absent *)

(** What a clock-DAG node tests. Each reads false when the signal it
    names is absent. *)
type varres =
  | Rpresent of int                (** class [c] is present *)
  | Rcond of int                   (** boolean signal [i] is true *)
  | Rcondeq of int * int           (** integer signal [i] equals [k] *)

type dag
(** The derived clocks as one maximally shared decision DAG, one node
    per clock-BDD node. Nodes [0] and [1] are false and true; node [k]
    tests a {!varres} and continues at [hi] if it holds, else at [lo].
    Children have smaller ids than their parents. *)

val dag_size : dag -> int
(** Number of nodes, the two constants included. *)

val dag_node : dag -> int -> varres * int * int
(** [dag_node d k] for [2 <= k < dag_size d] is [(test, hi, lo)]. *)

type sym_view = {
  sv_prog : Prog.t;
  sv_nclasses : int;
  sv_class_of : int array;         (** signal -> synchronization class *)
  sv_pdefs : pdef array;           (** per class *)
  sv_dag : dag;                    (** the roots of [Pderived] classes *)
  sv_input_clocks : (int * int) array;
      (** [(input, root)] for each [Pinput] class whose clock the
          calculus derived: the step fails when the stimulus disagrees
          with the DAG node at [root], evaluated after the schedule *)
  sv_order : [ `Pres of int | `Val of int ] array;
      (** the toposorted schedule: presence of class / value of signal *)
}

val sym_view : t -> sym_view

(** {1 C code generation}

    The Polychrony back-end pillar (ref [15]): the execution plan is
    emitted as a self-contained C program. Its [main] reads one line
    per instant from stdin — one token per process input, in interface
    order, ["-"] meaning absent — executes the compiled step and prints
    every present signal as [name=value]. Each clock-DAG node becomes
    one C function [c_k], so the code grows with the DAG. The
    generated code is compiled with a real C compiler and diffed
    against the OCaml simulator in the test suite. *)

val to_c : t -> (string, string) result
(** Fails on processes with string-typed signals (no C mapping). *)
