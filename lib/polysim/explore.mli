(** Bounded exhaustive exploration of a kernel process — the paper's
    "model checking" connection, in bounded form.

    At each instant every input nondeterministically takes one of the
    stimulus alternatives supplied for it; the explorer walks all
    combinations up to the given depth, pruning states (delay memories
    + FIFO contents) already visited, and checks a safety predicate on
    every reached reaction.

    The state pruning makes exploration complete for finite-state
    processes within the depth bound, and in general turns the search
    into bounded model checking: [`Holds] means no reachable violation
    within [depth] instants.

    Three engines share the contract:

    - {!check} runs a breadth-first frontier search, one depth slice at
      a time, fanned out over an OCaml 5 domain pool
      ({!Putil.Domain_pool}) with a sharded visited table
      ({!Putil.Shard_tbl}) keyed by the fixed-width {!Compile.state_key}
      digest. It is deterministic: any [jobs] value and any scheduling
      yield the same verdict, the same counterexample (the shallowest,
      and among those the lexicographically least in (frontier-position,
      stimulus-index) order), and the same state count.
    - {!check_dfs} is the original sequential depth-first search, kept
      as the reference semantics in the test suite.
    - {!check_symbolic} delegates to {!Symbolic}: BDD image computation
      instead of state enumeration, with any symbolic counterexample
      replayed on the explicit simulator before it is reported.

    The per-instant stimulus combinations are enumerated by a
    mixed-radix index iterator, never materialized as a product list,
    so a wide input interface costs no setup allocation — only the
    (unavoidable) [radix^inputs] step work. *)

type verdict =
  | Holds
      (** no violation within the bound *)
  | Violated of (Signal_lang.Ast.ident * Signal_lang.Types.value) list list
      (** a counterexample: the stimulus sequence leading to the
          violation, oldest first *)

val check :
  ?depth:int ->
  ?jobs:int ->
  inputs:(Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  safe:((Signal_lang.Ast.ident * Signal_lang.Types.value) list -> bool) ->
  Signal_lang.Kernel.kprocess ->
  (verdict * int, Putil.Diag.t) result
(** [check ~inputs ~safe kp] explores up to [depth] (default 8)
    instants. [inputs] lists, per input signal, its alternatives each
    instant ([None] = absent, [Some v] = present with value [v]); the
    instant's stimulus is one choice per input (cartesian product).
    [safe] receives each reaction's present signals. Returns the
    verdict and the number of distinct states explored. Fails — with a
    coded diagnostic ([EXPLORE-COMPILE-001] / [EXPLORE-SIM-001] /
    [EXPLORE-STIM-001]), never an exception, so `verify` keeps its
    0/1/2 exit contract — when the process does not compile (causality
    cycle), a stimulus names an unknown or non-input signal with a
    present alternative, the combination space exceeds [2^30] per
    instant, or a simulation error occurs outside the property (e.g.
    division by zero).

    [jobs] (default: the [EXPLORE_JOBS] environment variable, else 1)
    spreads each depth slice over that many domains; [jobs:1] runs
    entirely on the calling domain. More than {!max_jobs} fails with
    [EXPLORE-JOBS-001] before any domain starts. The verdict,
    counterexample and state count do not depend on [jobs]. [safe] is
    called concurrently from several domains when [jobs > 1], so it
    must be thread-safe (pure predicates, the common case, are). *)

val max_jobs : int
(** The most [jobs] {!check} accepts: the OCaml runtime's domain limit
    (128), the calling domain included. *)

val check_dfs :
  ?depth:int ->
  inputs:(Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  safe:((Signal_lang.Ast.ident * Signal_lang.Types.value) list -> bool) ->
  Signal_lang.Kernel.kprocess ->
  (verdict * int, Putil.Diag.t) result
(** Sequential depth-first exploration — same contract as {!check} with
    [jobs:1], but the counterexample is the first found in depth-first
    order (not necessarily shallowest) and a state may be re-expanded
    when reached again with a larger remaining budget. Kept as the
    reference implementation the parallel search is validated against. *)

val check_symbolic :
  ?depth:int ->
  inputs:(Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  prop:Symbolic.prop ->
  Signal_lang.Kernel.kprocess ->
  (verdict * int, Putil.Diag.t) result
(** Bounded check by symbolic reachability ({!Symbolic.run}) — same
    verdict contract as {!check} with [safe = Symbolic.safe_of_prop
    prop], but the state space is traversed as BDD image computations,
    so state counts far beyond what enumeration can touch complete in
    milliseconds. The returned count is the exact number of distinct
    reachable states (it may exceed what {!check} could ever visit).

    A symbolic counterexample is not trusted as-is: its stimulus
    sequence is replayed on a fresh explicit instance, and only a
    replay that actually violates the property (or raises, for a
    runtime-error counterexample — then reported as
    [EXPLORE-SIM-001], exactly like {!check}) is returned as
    [Violated]. A replay that diverges from the symbolic verdict is a
    bug surfaced as [EXPLORE-SYM-002]. Processes outside the symbolic
    fragment fail with [EXPLORE-SYM-001] ({!Symbolic.code_unsupported})
    so callers can fall back to an explicit engine. That rejection is
    cheap, decided before any BDD is built, so trying this engine first
    costs little on a model it cannot take. *)

val reachable_states :
  ?depth:int ->
  ?jobs:int ->
  inputs:(Signal_lang.Ast.ident * Signal_lang.Types.value option list) list ->
  Signal_lang.Kernel.kprocess ->
  (int, Putil.Diag.t) result
(** Count of distinct (state, depth-independent) process states reached
    within the bound — a small verification metric. *)
