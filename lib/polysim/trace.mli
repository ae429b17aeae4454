(** Recorded simulation traces: per logical instant, each signal is
    absent or present with a value. *)

type t

type header
(** What a trace knows of its signals: their names, types and a name
    lookup over those names alone (built once, so its size follows the
    header's own signals), and the interned row cells of the two values
    of each [bool] signal and of each [event] signal. It is never
    written after it is built and may be shared by any number of
    traces, across domains too: the compiled
    simulator builds one header per plan, and every trace of every
    instance over that plan shares it. *)

val header : 'p Signal_lang.Ast.gvardecl list -> header
(** Header over the given signal declarations (any phase; marks are
    stripped — traces record names, types and values only). *)

val of_header : header -> t
(** Empty trace sharing the header. *)

val create : 'p Signal_lang.Ast.gvardecl list -> t
(** [of_header (header decls)]: an empty trace with a header of its
    own. *)

val cell :
  header -> int -> Signal_lang.Types.value -> int * Signal_lang.Types.value
(** [cell h i v] is the row cell [(i, v)]: the cell interned in [h]
    when [v] is a boolean and [i] a [bool] signal, or [v] the event
    and [i] an [event] signal, so recording it allocates nothing;
    otherwise a fresh pair. *)

val declarations : t -> Signal_lang.Ast.bare Signal_lang.Ast.gvardecl list

val push :
  t -> (Signal_lang.Ast.ident * Signal_lang.Types.value) list -> unit
(** Append one instant: the association list gives the present signals
    with their values; every other declared signal is absent.
    Undeclared names are ignored. *)

val push_row : t -> (int * Signal_lang.Types.value) array -> unit
(** Int-indexed fast path used by the simulators: the row lists the
    present signals by declaration index, {e sorted ascending}, with
    their values. The array is owned by the trace after the call and
    is immutable from then on: one row may be pushed into several
    traces (lockstep scenarios that share an instant share its row),
    and rows share cells across instants and traces (the interned
    cells of {!cell}), so no consumer may mutate a row it reads. *)

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
    instant (values compared with {!Signal_lang.Types.equal_value}). *)

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
