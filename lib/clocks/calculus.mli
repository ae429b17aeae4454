(** The SIGNAL clock calculus over {!Signal_lang.Kernel} processes.

    Clocks are encoded as boolean functions (BDDs) over two kinds of
    variables: the {e presence} of a synchronization class, and the
    {e value} of a boolean condition signal at the instants where it is
    present. The calculus:

    - partitions signals into synchronization classes (union-find over
      step-wise functions, delays and [^=] constraints);
    - derives one clock function per class from [when] / [default]
      definitions, allocating a free presence variable for classes
      without definitions (inputs) or with recursive definitions;
    - collects declared constraints ([^<], [^#], redundant
      definitions, primitive-instance contracts) and one at-most-one
      chain per integer signal compared with constants, and conjoins
      them into a context formula Φ;
    - decides emptiness, inclusion and exclusion of clocks relative
      to Φ, flags contradictions and null-clocked signals.

    Variables no conjunct of Φ mentions come first, in discovery
    order; the others are numbered by first appearance over Φ's
    conjuncts, a variable tied to a single partner right behind it,
    so that each constraint's variables sit together and Φ grows
    linearly with replicated subsystems. The conjuncts' supports are
    read from a first construction in discovery order, in a scratch
    manager; a second construction then builds every clock and
    conjunct directly in the final order, and Φ is their balanced
    conjunction (DESIGN.md §12, "Clock-calculus variable order").
    Verdicts do not depend on the order, only the shape of each
    clock's BDD does. *)

type t

val analyze : ?digest:string -> Signal_lang.Kernel.kprocess -> t
(** Analyze a kernel process. Memoized on {!Signal_lang.Kernel.digest}
    (a caller that already holds it passes it as [digest]):
    structurally equal processes share one analysis (and one BDD
    manager), so repeated pipeline runs pay for the clock calculus
    once. The memo is a process-global {!Putil.Memo} of 256 entries,
    cleared when full. It is safe to consult from several domains,
    and so is the returned [t]: queries that touch the BDD manager
    ({!is_null}, {!subclock}, {!exclusive}, {!null_signals}) serialize
    on a per-state mutex, since even the emptiness decisions, which
    never conjoin Φ, write the shared manager's apply cache. Pure array
    reads (class ids, clocks, representatives) stay lock-free. *)

val reset_cache : unit -> unit
(** Drop the analysis memo table (cold-start benchmarking; safe to
    call concurrently with {!analyze}). Existing [t] values stay
    valid. *)

(** {1 Queries} *)

val with_query_lock : t -> (unit -> 'a) -> 'a
(** Run [f] holding the state's query mutex. Consumers that borrow the
    manager (via {!manager}) to do their own BDD application must wrap
    that work here, or it races with concurrent locked queries on the
    shared analysis. Inside the callback, use only the lock-free
    accessors ({!manager}, {!context}, {!clock_of},
    {!clock_of_class_id}, {!class_reprs}, {!var_kind}, ...); calling a
    locked query ({!is_null}, {!subclock}, {!exclusive},
    {!null_signals}) deadlocks. *)

val manager : t -> Bdd.manager

val context : t -> Bdd.t
(** The accumulated constraint formula Φ. *)

val consistent : t -> bool
(** Φ is satisfiable: the clock system has at least one behaviour with
    some signal present. *)

val clock_of : t -> Signal_lang.Ast.ident -> Bdd.t
(** The clock function of a signal.
    @raise Not_found for unknown signals. *)

val same_class : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** Both signals were proved synchronous. *)

val class_count : t -> int
(** Number of synchronization classes, the metric of the paper's
    "several thousand clocks" claim. *)

val class_reprs : t -> (int * Signal_lang.Ast.ident) list
(** Class ids with their canonical representative signal. *)

val clock_of_class_id : t -> int -> Bdd.t
(** Clock function of a class, by id. *)

val class_id_of : t -> Signal_lang.Ast.ident -> int
(** Class id of a signal. @raise Not_found for unknown signals. *)

val var_kind :
  t -> int ->
  [ `Present of int
  | `Cond of Signal_lang.Ast.ident
  | `CondEq of Signal_lang.Ast.ident * int ]
  option
(** Interpretation of a BDD variable used by the clock functions: the
    presence of a synchronization class, the value of a boolean
    condition signal, or an integer signal's equality with a constant
    (mode automata). Used by the clock-directed compiler. *)

val representative : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident
(** Canonical signal of the argument's class. *)

val is_null : t -> Signal_lang.Ast.ident -> bool
(** The signal's clock is empty under Φ (it can never be present). *)

val subclock : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** [subclock t a b] iff every instant of [a] is an instant of [b],
    under Φ. *)

val exclusive : t -> Signal_lang.Ast.ident -> Signal_lang.Ast.ident -> bool
(** The two signals can never be present together, under Φ. *)

val null_signals : t -> Signal_lang.Ast.ident list
(** Declared signals whose clock is provably empty. *)

val conflicts : t -> string list
(** Human-readable contradictions detected during the analysis
    (e.g. unsatisfiable constraint system). *)

val pp_summary : Format.formatter -> t -> unit

val code_conflict : string
val code_inconsistent : string
val code_null : string
(** Diagnostic codes of the calculus verdicts: [CLK-CONSTR-001] for a
    recorded contradiction, [CLK-CONSTR-002] for an unsatisfiable Φ,
    and [CLK-NULL-001] for a null-clocked signal (a note: translation
    creates intentionally-absent signals, so emptiness alone is not an
    error). Callers that merge per-process analysis results build the
    diagnostics from them. *)
