(** Typed accessors for the AADL timing properties the paper relies on
    (Sec. IV-A): dispatch protocol, Period, Deadline,
    Compute_Execution_Time, Input_Time / Output_Time, Queue_Size,
    Queue_Processing_Protocol, Priority, and the
    Actual_Processor_Binding deployment property.

    Durations are normalized to {e microseconds}. *)

type dispatch_protocol =
  | Periodic
  | Aperiodic
  | Sporadic
  | Background

(** The simplified Input_Time / Output_Time of the paper's execution
    model (Fig. 2): a reference event of the thread's dispatch frame. *)
type io_time =
  | At_dispatch
  | At_start
  | At_complete
  | At_deadline

type queue_protocol = Fifo | Lifo

type overflow_protocol = Drop_oldest | Drop_newest | Overflow_error

val base_name : string -> string
(** Strip a property-set qualifier: ["Timing_Properties::Period"] →
    ["Period"]. Matching is case-insensitive downstream. *)

val name_eq : string -> string -> bool
(** Property-name match: the {!base_name}s are equal up to ASCII case.
    Compares in place and allocates nothing. *)

val find :
  string -> Syntax.property_assoc list -> Syntax.property_value option
(** Last association for the (unqualified, case-insensitive) name wins,
    as in AADL's override semantics. Associations with an [applies_to]
    clause are skipped here. *)

val duration_us : Syntax.property_value -> int option
(** Interpret a value as a duration in µs: int/real with unit
    [ns|us|ms|s|sec|min|hr] (default ms, the common usage in the
    paper); ranges use their upper bound (worst case). *)

val dispatch_protocol :
  Syntax.property_assoc list -> dispatch_protocol option

val period_us : Syntax.property_assoc list -> int option
val deadline_us : Syntax.property_assoc list -> int option
val compute_execution_time_us : Syntax.property_assoc list -> int option
val priority : Syntax.property_assoc list -> int option
val queue_size : Syntax.property_assoc list -> int option
val queue_protocol : Syntax.property_assoc list -> queue_protocol option
val overflow_protocol :
  Syntax.property_assoc list -> overflow_protocol option
val input_time : Syntax.property_assoc list -> io_time option
val output_time : Syntax.property_assoc list -> io_time option

val scheduler_owned : string list
(** The properties the static scheduler owns: exactly those a thread's
    scheduler task is built from (Dispatch_Protocol, Period, Deadline,
    Compute_Execution_Time, Dispatch_Offset, Priority). Everything else
    the translation generates is a function of the model without them,
    which is what lets a timing edit reuse it. *)

val is_scheduler_owned : string -> bool
(** [is_scheduler_owned name]: [name] ({!name_eq}) is one of
    {!scheduler_owned}. *)

val processor_bindings :
  Syntax.property_assoc list -> (string * string) list
(** [Actual_Processor_Binding => reference(cpu) applies to part]
    pairs as [(part_path, processor_path)]. *)

val pp_dispatch_protocol : Format.formatter -> dispatch_protocol -> unit
val pp_io_time : Format.formatter -> io_time -> unit
