(** Ambient observation scopes: per-request metrics and trace
    attribution without threading arguments through call sites.

    A scope bundles a label with its own {!Metrics.registry}. While a
    scope is entered on a domain ({!with_scope}), every write the
    instrumented libraries make to a {!Metrics.global} instrument
    {e also} lands in the same-named instrument of the innermost
    scope's registry — so the global registry remains the process-wide
    roll-up and each scope sees exactly its own share. Scopes nest
    (innermost wins) and are domain-local; {!capture}/{!run_with} move
    the ambient state onto {!Domain_pool} workers, which also parents
    worker trace spans under the submitting domain's open span.

    Scopes are keyed by label and retained for the process lifetime so
    {!to_openmetrics} can report a scope after its request completed;
    entering the same label twice (e.g. [Pipeline.analyze] then
    [simulate] of one session) accumulates into one registry.

    The consumers at the end render what the lower layers record:
    OpenMetrics from {!Metrics}, and the flight-recorder snapshot from
    the same {!Tracing.event} log that backs the trace. *)

type scope

val scope : string -> scope
(** Get or create the scope with this label. *)

val scope_label : scope -> string
val scope_registry : scope -> Metrics.registry

val with_scope : ?label:string -> (unit -> 'a) -> 'a
(** Run the thunk with the labelled scope active on the calling domain
    (creating it on first use; a fresh [scope-N] label when omitted).
    Also opens a [scope:<label>] trace span so everything recorded
    inside nests under the scope in trace exports. *)

val in_scope : scope -> (unit -> 'a) -> 'a
(** Like {!with_scope} for an already-created scope. *)

val current : unit -> scope option
(** The innermost scope active on the calling domain, if any. *)

val scopes : unit -> scope list
(** Every scope created so far, in creation order. *)

val reset_scopes : unit -> unit
(** Forget all scopes (tests; daemons rotating exposition windows). *)

(** {1 Cross-domain propagation} *)

type ctx
(** A snapshot of the calling domain's ambient state: scope stack and
    current trace-span parent. *)

val capture : unit -> ctx

val run_with : ctx -> (unit -> 'a) -> 'a
(** Run the thunk under the captured ambient state (used by
    {!Domain_pool.run_tasks} around every task), restoring the
    worker's previous state after. *)

(** {1 Consumers} *)

val to_openmetrics : unit -> string
(** OpenMetrics exposition of the global roll-up plus every scope,
    scopes labelled [scope="<label>"], each metric family declared
    once. *)

val dump_flight_recorder : unit -> Metrics.Json.t
(** Snapshot of the always-on flight recorder
    ({!Tracing.flight_events}) as a [polychrony-flight/v1] JSON object:
    per-domain rings of the most recent span/instant/diag events with
    overwrite counts. Each event is [ts_ns], [kind] ([span_begin],
    [span_end], [instant] or [diag]), [name], [cat] and, when present,
    [args] serialized by {!Tracing.json_args}. Attached automatically
    to [--format json] error output by the CLI. *)

val flight_recorder_to_string : unit -> string
(** {!dump_flight_recorder} rendered as compact JSON. *)
