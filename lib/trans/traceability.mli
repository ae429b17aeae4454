(** Traceability between AADL model elements and generated SIGNAL
    signals/processes (paper Sec. IV-E: names preserved as names or in
    annotations).

    Entries pair an AADL instance path (a component instance or a
    feature instance) with the name of the generated SIGNAL signal or
    process; each direction is looked up in a table of the map's own
    strings, so the map is plain data. *)

type t

val create : unit -> t

val add_component : t -> aadl:string -> signal:string -> unit
(** Records a component instance (thread, data, processor…), keyed by
    its instance path. *)

val add_port : t -> aadl:string -> signal:string -> unit
(** Records a feature instance, keyed by its feature path. *)

val signal_of : t -> string -> string option
(** The signal last recorded for the path, looked up among components
    first, then among ports. *)

val aadl_of : t -> string -> string option
(** The path last recorded for the signal. *)

val entries : t -> (string * string) list
(** (aadl path, signal name) pairs in insertion order. *)

val pp : Format.formatter -> t -> unit
