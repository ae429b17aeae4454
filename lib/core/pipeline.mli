(** End-to-end pipeline: AADL text → instance model → SIGNAL program
    (ASME2SSME) → clock calculus → static analyses → scheduled
    simulation → chronograms and VCD.

    This is the programmatic face of the paper's tool chain
    (Sec. IV-E). *)

(** Per-model analysis unit: the analyses of one generated SIGNAL
    model, standalone (inputs free), in the model's own namespace.
    Pure data, so units persist in a {!Putil.Cache_store} and replay
    across process invocations. The [pa_iface_*] fields summarize the
    model's interface for the compositional glue analysis: relations
    among interface signals provable from the model alone, hence sound
    under any composition (composition only adds constraints). *)
type proc_analysis = {
  pa_model : string;
  pa_consistent : bool;
  pa_conflicts : string list;
  pa_null : string list;
  pa_determinism : Analysis.Determinism.report;
  pa_deadlock : Analysis.Deadlock.report;
  pa_iface_eq : (string * string) list;   (** synchronous pairs *)
  pa_iface_le : (string * string) list;   (** subclock pairs *)
  pa_iface_ex : (string * string) list;   (** exclusive pairs *)
  pa_iface_null : string list;            (** provably never present *)
  pa_iface_dep : (string * string) list;
      (** instantaneous input → output dependencies, for the glue
          deadlock analysis ({!Analysis.Deadlock.dependency_graph}'s
          [extra_edges]) *)
}

(** Analyses of the glue kernel — the host process with spliced model
    content abstracted away and interface summaries injected. *)
type glue_analysis = {
  ga_consistent : bool;
  ga_conflicts : string list;
  ga_null : string list;
  ga_determinism : Analysis.Determinism.report;
  ga_deadlock : Analysis.Deadlock.report;
}

type analyzed = {
  package : Aadl.Syntax.package;
  aadl_issues : Aadl.Check.issue list;
  instance : Aadl.Instance.t;
  translation : Trans.System_trans.output;
  kernel : Signal_lang.Kernel.kprocess;   (** normalized top process *)
  kernel_digest : string;
      (** {!Signal_lang.Kernel.digest} of [kernel], computed once *)
  glue_kernel : Signal_lang.Kernel.kprocess;
      (** host-side abstraction of [kernel]: spliced model content
          omitted, model outputs free (see
          {!Signal_lang.Normalize.process_linked}) *)
  links : Signal_lang.Normalize.link list;
      (** one per spliced model instance, with the model-local →
          host-kernel renaming *)
  proc_analyses : (string * proc_analysis) list;
      (** per-model analysis units, keyed by model process name *)
  glue : glue_analysis;
  calc : Clocks.Calculus.t Lazy.t;
      (** whole-kernel clock calculus. Lazy: the analysis verdicts come
          from the per-model units and the glue analysis, so the
          monolithic calculus only runs when a consumer (summary
          printing, compilation diagnostics, cross-validation) forces
          it — keeping the incremental recheck path free of
          whole-system BDD work. *)
  hierarchy : Clocks.Hierarchy.t Lazy.t;  (** forces [calc] *)
  determinism : Analysis.Determinism.report;
      (** merged whole-system verdict (per-model units + glue, renamed
          into the linked namespace) *)
  deadlock : Analysis.Deadlock.report;    (** merged likewise *)
  typecheck_errors : Signal_lang.Typecheck.error list;
  diags : Putil.Diag.t list;
      (** every diagnostic accumulated across the run, in emission
          order: AADL legality issues, translation/scheduling defects,
          SIGNAL type errors, clock-calculus conflicts and the
          determinism/deadlock verdicts. Check
          {!Putil.Diag.has_errors} / {!Putil.Diag.exit_code} for the
          overall outcome. *)
  scope : string option;
      (** the session's observation-scope label when analyzed through a
          session ({!Putil.Obs}); {!simulate}/{!verify} re-enter the
          same scope so a whole session attributes to one registry *)
}

(** {1 Incremental sessions}

    A session caches every pipeline stage output under a content
    digest of that stage's input, so re-analyzing edited source reruns
    only the affected prefix: parse/instantiate/translate key on the
    source, while typecheck, normalization and the clock/boolean
    analyses key on the digest of the {e generated program} (resp.
    kernel). Combined with {!Trans.System_trans.External} translation
    — which keeps the generated program invariant under timing-only
    edits — editing one thread's period reruns only the front
    stages and replays cached results (including their diagnostics)
    for everything downstream. Stage traffic is counted by the
    [incr.<stage>.ran] / [incr.<stage>.skipped] metrics shown by
    {!pp_stats}.

    Below the whole-stage caches, typecheck, normalization and the
    analyses are {e per-process}: each generated SIGNAL process
    (model) has its own cache unit keyed on its own content digest, so
    when the program {e did} change, only the edited process's
    typecheck/normalize/analyze reruns — untouched processes replay
    cached results. The [incr.<stage>.proc_ran] / [.proc_skipped]
    metrics count that traffic. With a persistent [store], per-process
    units are additionally written through to disk and survive process
    exit: a fresh session opened on a warm store skips straight to
    replay ({!Putil.Cache_store}).

    Cached stages are pure, so a warm re-analysis returns results
    byte-identical to a cold one. The behaviour registry is assumed
    stable across one session; registries fold their stable
    {!Trans.Behavior.id} into the stage key. *)

type session

val new_session :
  ?label:string -> ?store:Putil.Cache_store.t -> unit -> session
(** [label] names the session's observation scope ({!Putil.Obs}):
    every {!analyze}/{!simulate}/{!verify} run through the session
    records its metrics and trace spans under that scope in addition
    to the global roll-up. Defaults to a fresh [session-N]. *)

val session_label : session -> string

val analyze :
  ?session:session ->
  ?registry:Trans.Behavior.registry ->
  ?policy:Sched.Static_sched.policy ->
  ?mode:Trans.System_trans.mode ->
  ?root:string ->
  ?file:string ->
  string ->
  (analyzed, Putil.Diag.t list) result
(** Parse (the source may contain several packages; qualified
    classifiers such as [Lib::worker.impl] resolve across them),
    instantiate (root defaults to the top-most system implementation),
    translate, normalize, run the clock calculus and both static
    analyses.

    Defects {e accumulate}: independent failures — an AADL legality
    error, a type error in the generated SIGNAL, an infeasible thread
    set — are all reported in one run, each as a coded, located
    {!Putil.Diag.t}. [Error] is returned only when a stage failure
    prevents building the record (syntax error, unresolvable root,
    fatal translation, normalization failure), carrying everything
    accumulated up to that point; otherwise the full list (errors
    included) rides in [analyzed.diags]. [file] names the AADL source
    in diagnostic spans. *)

(** {1 Simulation} *)

val simulate :
  ?compiled:bool ->
  ?env:(int -> (string * int) list) ->
  ?hyperperiods:int ->
  analyzed ->
  (Polysim.Trace.t, Putil.Diag.t list) result
(** Drive the translated system: one engine instant per base tick of
    the (first) processor schedule, for the given number of
    hyper-periods (default 2). [env] supplies environment-port arrivals
    per instant, e.g. [fun t -> if t = 0 then [("env_pGo", 1)] else []];
    default: one arrival of value 1 on every environment input at
    instant 0.

    The engine is the clock-directed compiled step ({!Polysim.Compile})
    unless [compiled] says otherwise; the fixpoint interpreter
    ({!Polysim.Engine}) computes the same traces, an order of magnitude
    slower, and serves as the differential oracle.
    - [compiled] omitted: compiled; only when the plan cannot be built
      (COMPILE-001) does the run fall back on the interpreter, counted
      in [pipeline.simulate_fallbacks] and marked by a
      [pipeline.simulate_fallback] trace instant. A step error is
      SIM-001 from the compiled engine, with no retry.
    - [~compiled:true]: compiled only; a plan failure is COMPILE-001.
    - [~compiled:false]: the interpreter only.

    Clock analysis and compilation are memoized on the kernel's
    structural digest (see {!Clocks.Calculus.analyze} and
    {!Polysim.Compile.compile}) in process-global {!Putil.Memo}
    caches of 256 entries each, shared by every session and cleared
    when full, so repeated simulations of one system pay the front-end
    once; the [pipeline.cache_hits] / [pipeline.cache_misses] counters
    in the metrics registry record the traffic. *)

val simulate_scenarios :
  ?envs:(int -> int -> (string * int) list) ->
  ?hyperperiods:int ->
  scenarios:int ->
  analyzed ->
  (Polysim.Trace.t array, Putil.Diag.t list) result
(** Lockstep multi-scenario simulation on the compiled path
    ({!Polysim.Compile.step_many}): [scenarios] copies of the system
    state advance together over one shared compiled plan, each driven
    by its own environment. [envs s t] supplies scenario [s]'s
    environment arrivals at instant [t]; the default delays each
    arrival by [s] base ticks (scenario 0 is the {!simulate} default).
    Returns one trace per scenario — identical to [scenarios]
    independent {!simulate} runs with the same environments, at a
    fraction of the cost. [scenarios < 1], or more scenarios than
    {!Polysim.Compile.max_scenario_slots} allows for the kernel's
    signals, is a SIM-001 argument error, decided before anything is
    allocated; a plan that cannot be built is COMPILE-001. *)

val global_base_us : analyzed -> int
(** Microseconds of one simulated instant: the gcd of every
    processor's schedule base tick (1 without schedules). *)

val global_hyper_us : analyzed -> int
(** Microseconds of one global hyper-period: the lcm of every
    processor's hyper-period. *)

val base_ticks_per_hyperperiod : analyzed -> int

(** {1 Bounded verification} *)

type verify_engine = [ `Explicit | `Symbolic | `Auto ]
(** [`Explicit] enumerates states ({!Polysim.Explore.check}),
    [`Symbolic] runs BDD image computation
    ({!Polysim.Explore.check_symbolic}), [`Auto] tries symbolic first
    and falls back to explicit when the process is outside the
    symbolic fragment ([EXPLORE-SYM-001]). *)

val verify_inputs :
  analyzed ->
  (Signal_lang.Ast.ident * Signal_lang.Types.value option list) list
(** The exploration stimulus spec of a translated system: tick inputs
    always present; every environment input either arrives (value 1)
    or stays silent, independently, at each instant. *)

val verify :
  ?depth:int ->
  ?jobs:int ->
  ?engine:verify_engine ->
  never:Signal_lang.Ast.ident ->
  analyzed ->
  ( Polysim.Explore.verdict * int * [ `Explicit | `Symbolic ],
    Putil.Diag.t )
  result
(** Bounded check that [never] is never present, over
    {!verify_inputs}, up to [depth] instants (default 8). Returns the
    verdict, the reachable-state count, and which engine decided.
    [jobs] only affects the explicit engine; [engine] defaults to
    [`Auto]. *)

val verify_kernel :
  ?depth:int ->
  ?jobs:int ->
  ?engine:verify_engine ->
  never:Signal_lang.Ast.ident ->
  inputs:
    (Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  Signal_lang.Kernel.kprocess ->
  ( Polysim.Explore.verdict * int * [ `Explicit | `Symbolic ],
    Putil.Diag.t )
  result
(** {!verify} over an arbitrary kernel and stimulus spec — the engine
    dispatch shared by `verify --counters` and the benches. *)

val vcd_of_trace :
  ?signals:string list -> analyzed -> Polysim.Trace.t -> string
(** VCD dump of a simulation trace with a real timescale: one logical
    instant lasts the global base tick, so the dump declares
    [$timescale 1 us] and stamps [instant × base_us]. *)

val with_tracing :
  ?format:[ `Chrome | `Text ] -> trace_file:string -> (unit -> 'a) -> 'a
(** Run [f] with {!Putil.Tracing} freshly reset and enabled, then
    disable tracing and write the recorded trace — toolchain spans plus
    the schedule timeline recorded by {!simulate} — to [trace_file]
    (default format [`Chrome], loadable in Perfetto /
    [chrome://tracing]). The trace is written even when [f] raises. *)

val pp_summary : Format.formatter -> analyzed -> unit
(** Compact multi-section report: AADL issues, schedule tables, clock
    classes, determinism/deadlock verdicts, and the run-metrics
    section of {!pp_stats}. *)

val pp_stats : Format.formatter -> unit -> unit
(** Structured run-metrics report from the global {!Putil.Metrics}
    registry: engine fixpoint iterations, instants simulated and
    instants/sec, compiled-evaluator and BDD statistics, clock-calculus
    union-find and constraint counters, translation and scheduling
    counters — everything instrumented since process start. *)

val stats_json : unit -> Putil.Metrics.Json.t
(** The same snapshot as {!pp_stats}, as a JSON object keyed by
    metric name. *)
