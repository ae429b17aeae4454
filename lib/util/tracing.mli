(** Zero-dependency structured tracing: hierarchical host-time spans,
    point events, and logical-time schedule lanes, exported as Chrome
    trace-event JSON (loadable in Perfetto / [chrome://tracing]) or as
    a compact text tree.

    Two tracks are recorded:

    - {b host time} (pid 1 in the Chrome export): spans opened with
      {!with_span} around toolchain stages (parse, check, translate,
      clock calculus, schedule synthesis, compile, simulate). Each
      domain writes to its own buffer, so spans emitted from
      {!Domain_pool} workers are recorded without locking; one Chrome
      thread lane per domain.
    - {b logical time} (pid 2): spans and instants stamped with
      microseconds of simulated time via {!lane_span} /
      {!lane_instant}, one Chrome thread lane per AADL thread. This is
      the paper's scheduling timeline (dispatch, input freeze, compute,
      output send, deadline) reconstructed from an actual simulation.

    Both tracks and the always-on {{!section-flight}flight recorder}
    share one {!event} type and one per-domain log: {!with_span} and
    {!instant} build each event once, store it in the domain's bounded
    flight ring, and also append it to the trace buffer when tracing
    is on. Tracing is globally off by default; then every emitting
    entry point reads one atomic flag and records only into the ring,
    so instrumented hot paths cost no unbounded allocation. Recording is
    multi-domain-safe; {!export}, {!events} and {!reset} must not race
    with emitting domains (collect after the parallel section joins,
    as {!Domain_pool.run_tasks} does). *)

type arg =
  | Abool of bool
  | Aint of int
  | Afloat of float
  | Astr of string

val set_enabled : bool -> unit
(** Turn recording on or off. Turning it on does not clear previously
    recorded events; call {!reset} for a fresh trace. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every recorded event (all domains), keeping the buffers. *)

(** {1 Recording} *)

val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] as one host-time span on the calling
    domain's lane. Spans nest by call structure (the span closes even
    if [f] raises). When tracing is disabled this is [f ()]. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** A point event at the current host time. *)

val lane_span :
  lane:string -> ?cat:string -> ?args:(string * arg) list ->
  ts_us:int -> dur_us:int -> string -> unit
(** A logical-time span [\[ts_us, ts_us + dur_us\]] on the named
    schedule lane (one lane per AADL thread). *)

val lane_instant :
  lane:string -> ?cat:string -> ?args:(string * arg) list ->
  ts_us:int -> string -> unit
(** A logical-time point event on the named schedule lane. *)

(** {1 Span context}

    Every recorded span carries a process-unique id and the id of its
    parent. Within a domain parents follow call nesting; across
    domains the parent is whatever context {!with_context} installed —
    {!Domain_pool.run_tasks} captures the submitting domain's context
    so worker spans nest under the span that submitted the batch
    instead of being orphaned. *)

type context
(** An opaque parent handle: the innermost open span of some domain,
    or the no-parent context. *)

val no_context : context

val current_context : unit -> context
(** The calling domain's innermost open span (or its installed base
    context when no span is open). *)

val with_context : context -> (unit -> 'a) -> 'a
(** Run the thunk with [context] as the parent for spans it opens at
    top level on this domain; restores the previous context after. *)

(** {1 Reading} *)

type event =
  | Begin of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
      id : int;     (** process-unique span id, 0 when unknown *)
      parent : int; (** parent span id, 0 = root; possibly recorded on
                        another domain *)
    }
  | End of { name : string; cat : string; ts_ns : int }
      (** closes the innermost open [Begin] of the same domain *)
  | Inst of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
    }
  | Diag of { code : string; severity : string; message : string; ts_ns : int }
      (** a diagnostic; recorded in the flight ring only, never in the
          trace *)
  | Lane_span of {
      lane : string; name : string; cat : string;
      ts_us : int; dur_us : int; args : (string * arg) list;
    }
  | Lane_inst of {
      lane : string; name : string; cat : string; ts_us : int;
      args : (string * arg) list;
    }

val events : unit -> (int * event list) list
(** Recorded events per domain, domains in ascending id order, events
    in emission order. [Begin]/[End] pairs nest within a domain. The
    structured view the tests and the golden snapshot consume. *)

val json_args : (string * arg) list -> (string * Metrics.Json.t) list
(** The ["args"] member of a JSON event object ([[]] when there are no
    args): the one argument serializer behind {!to_chrome} and the
    flight-recorder snapshot. *)

val to_chrome : unit -> string
(** The whole trace as a Chrome trace-event JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Host spans
    become ["X"] complete events under pid 1 (one tid per domain, ts
    relative to the earliest host event, in µs); lane events become
    ["X"]/["i"] events under pid 2 with their logical microsecond
    timestamps; process and thread names ride on ["M"] metadata
    events. RFC 8259-conformant (strings escaped via the same writer
    as {!Metrics.Json}). *)

val to_text : unit -> string
(** Compact human-readable tree: host spans indented by nesting with
    durations, then one block per schedule lane with its timeline. *)

val write : format:[ `Chrome | `Text ] -> string -> unit
(** Render with {!to_chrome} or {!to_text} and write to the path. *)

(** {1:flight Flight recorder}

    A bounded view of the same event log: the most recent
    [Begin]/[End]/[Inst]/[Diag] events, one ring per domain, always
    on even when tracing is disabled. Each domain writes only its own
    ring (no locks, one array store per event); once full, the oldest
    events are overwritten. The snapshot is attached to
    [--format json] error output so a failed run carries its own
    recent history. *)

val flight_capacity : int
(** Ring size per domain (events kept before overwrite). *)

val flight_diag : severity:string -> code:string -> string -> unit
(** Record a [Diag] event (called by {!Diag} on every diagnostic, so
    the recorder sees errors even with tracing disabled). *)

val flight_events : unit -> (int * int * event list) list
(** Per-domain snapshot [(domain, dropped, events)]: [dropped] is how
    many older events were overwritten, [events] the surviving ring
    contents in emission order. Domains in ascending id order. *)

val flight_reset : unit -> unit
(** Clear every ring (tests). *)
