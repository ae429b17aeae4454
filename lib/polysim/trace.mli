(** Recorded simulation traces: per logical instant, each signal is
    absent or present with a value. *)

type t

type header
(** What a trace knows of its signals: their names, types and a name
    lookup over those names alone (built once, so its size follows the
    header's own signals). It is never written after it is built and
    may be shared by any number of traces, across domains too: the
    compiled simulator builds one header per plan, and every trace of
    every instance over that plan shares it. *)

val header : 'p Signal_lang.Ast.gvardecl list -> header
(** Header over the given signal declarations (any phase; marks are
    stripped — traces record names, types and values only).
    @raise Invalid_argument from 2{^28} signals on. *)

val of_header : header -> t
(** Empty trace sharing the header. *)

val create : 'p Signal_lang.Ast.gvardecl list -> t
(** [of_header (header decls)]: an empty trace with a header of its
    own. *)

val signals : t -> (Signal_lang.Ast.ident * Signal_lang.Types.styp) list
(** The header's signals with their types, in declaration order. *)

val push :
  t -> (Signal_lang.Ast.ident * Signal_lang.Types.value) list -> unit
(** Append one instant: the association list gives the present signals
    with their values; every other declared signal is absent.
    Undeclared names are ignored. *)

(** {2 Rows}

    The simulators record an instant as a {!row}: per present signal,
    its declaration index and its value, unboxed (an event or a boolean
    is one int, an int two, a real or a string one int and the recorded
    value). Every reader decodes exactly the constructor that was
    recorded, whatever the signal's declared type. *)

type row
(** One instant's present signals. Immutable: one row may be pushed
    into several traces (lockstep scenarios that share an instant push
    the row of the scenario that executed it). *)

val empty_row : row
(** The instant where no signal is present. *)

type recorder
(** Scratch space in which one row at a time is recorded; owned by one
    simulator instance, never shared across domains. *)

val recorder : header -> recorder
(** An empty recorder sized to the header's signals. *)

val clear : recorder -> unit
(** Forget what was recorded since the last {!take}, e.g. by an
    instant that failed halfway. *)

val record_event : recorder -> int -> unit
val record_bool : recorder -> int -> bool -> unit
val record_int : recorder -> int -> int -> unit

val record : recorder -> int -> Signal_lang.Types.value -> unit
(** [record r i v] marks signal [i] present with value [v].
    Within a row, signals must be recorded by {e strictly ascending}
    declaration index, each below the header's signal count. The typed
    variants above record [Vevent], [Vbool] and [Vint] without building
    the value. *)

val take : recorder -> row
(** The row recorded since the last {!take} or {!clear}; the recorder
    is empty again. *)

val push_row : t -> row -> unit
(** Append one instant. *)

val index_of : t -> Signal_lang.Ast.ident -> int option
(** Declaration index of a signal name. *)

val name_of : t -> int -> Signal_lang.Ast.ident
(** Name of a declaration index. *)

val length : t -> int

val get :
  t -> int -> Signal_lang.Ast.ident -> Signal_lang.Types.value option
(** Value at (instant, signal); [None] = absent.
    @raise Invalid_argument if the instant is out of range. *)

val get_idx : t -> int -> int -> Signal_lang.Types.value option
(** [get] by declaration index instead of name. *)

val present_count : t -> Signal_lang.Ast.ident -> int
(** Number of instants where the signal is present. *)

val values_of : t -> Signal_lang.Ast.ident -> Signal_lang.Types.value list
(** The signal's value stream (present instants only, in order). *)

val tick_instants : t -> Signal_lang.Ast.ident -> int list
(** Instants where the signal is present. *)

val equal : t -> t -> bool
(** Structural equality: same signal names in the same order, same
    length, and the same present signals with equal values at every
    instant (values compared with {!Signal_lang.Types.equal_value}:
    a real NaN differs from itself, [0.0] equals [-0.0] and [Vevent]
    equals [Vbool true]). *)

val observable : t -> Signal_lang.Ast.ident list
(** Declared signals that are not generated temporaries (no leading
    ['_'] and no ["__"] in the name), the default selection for
    chronograms and VCD dumps. *)

val chronogram :
  ?signals:Signal_lang.Ast.ident list ->
  ?from_instant:int ->
  ?until_instant:int ->
  Format.formatter -> t -> unit
(** Textual waveform, one row per signal, one column per instant:
    ['.'] absent, value otherwise (booleans as T/F, events as '!'). *)
