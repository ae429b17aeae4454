(** Recorded simulation traces: per logical instant, each signal is
    absent or present with a value. *)

type t

val create : 'p Signal_lang.Ast.gvardecl list -> t
(** Empty trace over the given signal declarations (any phase; marks
    are stripped — traces record names, types and values only). *)

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
    so no consumer may mutate a row it reads. *)

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
