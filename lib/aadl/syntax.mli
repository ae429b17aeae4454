(** Abstract syntax of the AADL textual subset (SAE AS5506).

    The subset covers what the paper's tool chain consumes
    (Sec. IV-E): software components (process, thread, thread group,
    subprogram, data), execution platform components (processor,
    virtual processor, memory, bus, virtual bus, device), the composite
    system category, features (ports, data access, subprogram access),
    subcomponents, port and access connections, property associations
    (including [applies to] binding properties), and packages. Modes,
    flows and annexes are out of scope (the paper defers modes to
    future work). *)

type loc = {
  l_line : int;   (** 1-based; 0 = synthesized (no source position) *)
  l_col : int;
}

val no_loc : loc
val loc : line:int -> col:int -> loc

type category =
  | System
  | Process
  | Thread
  | Thread_group
  | Subprogram
  | Data
  | Processor
  | Virtual_processor
  | Memory
  | Bus
  | Virtual_bus
  | Device

val category_to_string : category -> string
val category_of_string : string -> category option

type direction = Din | Dout | Dinout

type port_kind = Data_port | Event_port | Event_data_port

type access_right = Read_only | Write_only | Read_write

type property_value =
  | Pint of int * string option       (** integer with optional unit *)
  | Preal of float * string option
  | Pstring of string
  | Pbool of bool
  | Pname of string                   (** enumeration literal / identifier *)
  | Preference of string              (** reference (path) *)
  | Pclassifier of string             (** classifier (name) *)
  | Plist of property_value list
  | Prange of property_value * property_value

type property_assoc = {
  pname : string;                     (** possibly qualified, [Set::Name] *)
  pvalue : property_value;
  applies_to : string list;           (** dot-paths; empty = self *)
  pa_loc : loc;
}

val assoc :
  ?loc:loc -> string -> property_value -> string list -> property_assoc
(** Build a property association; [loc] defaults to {!no_loc}. *)

type feature =
  | Port of {
      fname : string;
      dir : direction;
      kind : port_kind;
      dtype : string option;  (** data classifier, e.g. [Base_Types::Integer] *)
      fprops : property_assoc list;  (** port properties, e.g. Queue_Size *)
      floc : loc;
    }
  | Data_access of {
      fname : string;
      dtype : string option;
      right : access_right;
      provided : bool;  (** [provides] vs [requires] *)
      floc : loc;
    }
  | Subprogram_access of {
      fname : string;
      spec : string option;
      provided : bool;
      floc : loc;
    }

val feature_name : feature -> string
val feature_loc : feature -> loc

type subcomponent = {
  sc_name : string;
  sc_category : category;
  sc_classifier : string option;      (** ["thProducer.impl"] or type name *)
  sc_properties : property_assoc list;
  sc_loc : loc;
}

type connection_kind = Port_connection | Access_connection

type connection = {
  conn_name : string;
  conn_kind : connection_kind;
  conn_src : string;                  (** dot-path, e.g. ["thProducer.pOut"] *)
  conn_dst : string;
  immediate : bool;                   (** [->] immediate vs [->>] delayed *)
  conn_properties : property_assoc list;
  conn_loc : loc;
}

(** Mode-automaton support (paper Sec. VII perspective: modes handled
    as SIGNAL automata). *)

type mode = {
  m_name : string;
  m_initial : bool;
  m_loc : loc;
}

type mode_transition = {
  mt_name : string;
  mt_src : string;        (** source mode *)
  mt_trigger : string;    (** in event port arming the transition *)
  mt_dst : string;        (** destination mode *)
  mt_loc : loc;
}

type component_type = {
  ct_name : string;
  ct_category : category;
  ct_extends : string option;
  ct_features : feature list;
  ct_properties : property_assoc list;
  ct_modes : mode list;
  ct_transitions : mode_transition list;
  ct_loc : loc;
}

type component_impl = {
  ci_name : string;                   (** ["prProdCons.impl"] *)
  ci_type : string;                   (** ["prProdCons"] *)
  ci_category : category;
  ci_extends : string option;
  ci_subcomponents : subcomponent list;
  ci_connections : connection list;
  ci_properties : property_assoc list;
  ci_loc : loc;
}

type declaration =
  | Dtype of component_type
  | Dimpl of component_impl

type package = {
  pkg_name : string;
  pkg_imports : string list;          (** [with] clauses *)
  pkg_decls : declaration list;
  pkg_shape : string;
      (** digest of the package without its scheduler-owned property
          associations ({!Props.scheduler_owned}), locations included;
          taken once by the parser ({!Parser.shape_digest}) *)
}

val strip_locs : package -> package
(** Erase every source location ({!no_loc} everywhere) and the shape
    digest that covers them, e.g. to compare two parses structurally
    (printer round-trips). *)

val impl_base_name : string -> string
(** ["prProdCons.impl"] → ["prProdCons"]. *)

val find_type : package -> string -> component_type option
val find_impl : package -> string -> component_impl option

val find_feature : component_type -> string -> feature option

val property_names : package -> string list
(** All distinct property names used in the package, sorted. *)
