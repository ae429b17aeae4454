(** Zero-dependency run metrics: monotonic counters, gauges and span
    timers, grouped in registries.

    Every instrument is identified by a dotted name ([engine.instants],
    [compile.bdd_nodes], ...); the prefix before the first dot is the
    subsystem and groups lines in the printed report. Instruments are
    created on first use and accumulate for the lifetime of the
    registry; [reset] zeroes them without forgetting their names.

    The default [global] registry is what the instrumented libraries
    (engine, compile, calculus, trans, sched) write into; fresh
    registries are for tests, for callers that need isolation, and for
    the per-request scopes minted by {!Obs.with_scope}.

    Overhead is an atomic fetch-and-add per event and two monotonic
    {!Clock.now_ns} reads per timed span — safe to leave enabled in
    benches, and immune to wall-clock (NTP) steps. The three kinds
    share one representation (a name and two lock-free atomic cells)
    and one write path, so every write is safe from several domains
    concurrently. Instrument creation is also
    domain-safe: lookup is lock-free (one atomic load of an immutable
    map), creation takes a short per-registry mutex.

    {b Ambient scopes.} When an observation scope is active on the
    calling domain (see {!Obs.with_scope}), every write to an
    instrument of the [global] registry also lands in the same-named
    instrument of the innermost scope's registry — per-scope
    attribution with no call-site change. When no scope is active
    anywhere in the process, the extra cost on the write path is a
    single atomic load. *)

type registry

val global : registry
(** Shared registry used by the instrumented libraries. *)

val create : unit -> registry
(** A fresh, empty registry, independent of {!global}. *)

(** {1 Instruments}

    The [?registry] argument defaults to {!global}. Looking up a name
    that already exists with a different instrument kind raises
    [Invalid_argument]. *)

type counter
type gauge
type timer

val counter : ?registry:registry -> string -> counter
(** Get or create the monotonic counter [name]. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to a counter. *)

val gauge : ?registry:registry -> string -> gauge
(** Get or create the gauge [name] (a last-write-wins level). *)

val set : gauge -> int -> unit

val max_gauge : gauge -> int -> unit
(** [max_gauge g v] sets [g] to [max v (current value)]. *)

val timer : ?registry:registry -> string -> timer
(** Get or create the span timer [name]: accumulates a span count and
    total elapsed nanoseconds, from which the report derives mean span
    duration and spans/second. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk as one span; the span is recorded even if the thunk
    raises. *)

val add_span_ns : timer -> int -> unit
(** Record one span of a given duration directly. *)

(** {1 Ambient scope stack}

    Low-level hooks used by {!Obs}; most callers should use
    [Obs.with_scope] instead. The stack is domain-local: pushing a
    registry makes it the innermost scope for subsequent writes on the
    calling domain only. *)

val ambient_push : registry -> unit
val ambient_pop : unit -> unit
(** Pop the innermost frame; a no-op on an empty stack. *)

val ambient_stack : unit -> registry list
(** The calling domain's scope stack, innermost first. *)

val set_ambient_stack : registry list -> unit
(** Replace the calling domain's scope stack wholesale (used to
    propagate the submitting domain's scopes into pool workers). *)

(** {1 Reading} *)

type stat =
  | Counter of int
  | Gauge of int
  | Timer of { spans : int; total_ns : int }

val snapshot : registry -> (string * stat) list
(** All instruments, sorted by name. *)

val find : registry -> string -> stat option

val counter_value : registry -> string -> int
(** Current value of counter (or gauge) [name]; 0 when absent. *)

val reset : registry -> unit
(** Zero every instrument, keeping the instrument set. *)

val pp : Format.formatter -> registry -> unit
(** Structured text report, one section per dotted-name prefix. Timers
    render count, total, mean and rate (e.g. instants/sec). *)

(** {1 JSON} *)

(** Minimal JSON tree + serializer, so metric snapshots and bench
    records can be emitted without external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact, RFC 8259-conformant rendering (strings escaped;
      non-finite floats serialized as [null]). *)

  val of_string : string -> (t, string) result
  (** Parse a complete JSON document (the inverse of {!to_string}, and
      enough of RFC 8259 to read foreign records). Bare integers parse
      as [Int], numbers with a fraction or exponent as [Float]. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k]; [None] for
      missing keys and non-object values. *)

  val to_float : t option -> float option
  (** Numeric coercion helper: [Int]/[Float] to [float]. *)
end

val to_json : registry -> Json.t
(** Snapshot as a JSON object keyed by instrument name. *)

(** {1 OpenMetrics exposition} *)

val to_openmetrics : ?labels:(string * string) list -> registry -> string
(** Prometheus/OpenMetrics text exposition of one registry. Dotted
    names are sanitized to [[a-zA-Z0-9_:]] families; counters expose a
    [_total] sample, gauges their level, timers a [summary]
    ([_count] + [_sum] in seconds). [labels] (e.g. [[("scope", "req-1")]]) ride on
    every sample; label values are escaped per the spec. The document
    ends with [# EOF]. *)

val openmetrics : ((string * string) list * registry) list -> string
(** Merged exposition over several labelled registries: each metric
    family is declared once ([# HELP]/[# TYPE]) followed by one sample
    set per registry that carries it — how {!Obs.to_openmetrics}
    exposes [global] plus every scope without duplicating families. *)
