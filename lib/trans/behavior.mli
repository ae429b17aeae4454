(** Thread behaviour registry.

    AADL describes architecture, not computation: the body of a thread
    (what it does between Input_Time and Output_Time) comes from source
    code in real systems. The translator therefore consults a registry
    mapping thread classifiers to behaviour generators; unregistered
    threads get a neutral default (echo the first frozen input, or a
    job counter). This mirrors the paper's
    [ProducerConsumer_others_System_behavior()] processes. *)

type ctx = {
  start_event : Signal_lang.Ast.expr;
      (** the thread's [Start] control event *)
  start_bool : Signal_lang.Ast.expr;
      (** boolean [true] at start instants *)
  frozen : string -> Signal_lang.Ast.expr;
      (** in port name → frozen value, memorized at [Start]
          (an [fm] of the port's frozen FIFO head) *)
  frozen_count : string -> Signal_lang.Ast.expr;
      (** in port name → number of items frozen for this dispatch,
          memorized at [Start] *)
  out_item : string -> string;
      (** out port name → signal to define with the produced item *)
  read_value : string -> Signal_lang.Ast.expr;
      (** read data-access name → value popped from the shared data *)
  pop_signal : string -> string;
      (** read data-access name → pop-request event signal to define *)
  write_signal : string -> string;
      (** write data-access name → write signal to define *)
  fresh_local : Signal_lang.Types.styp -> string;
      (** declare a behaviour-local signal *)
  in_mode : string -> Signal_lang.Ast.expr;
      (** mode name → boolean, true at [Start] when the thread is in
          that mode (modes extension; constant true for modeless
          threads) *)
  modes : string list;
      (** declared mode names, declaration order; [] when modeless *)
  props : Aadl.Syntax.property_assoc list;
      (** the thread's merged properties, less the scheduler-owned
          ones ({!Aadl.Props.scheduler_owned}): a behaviour cannot
          depend on the thread's timing, so a timing edit never
          regenerates a thread model *)
  in_ports : string list;
  out_ports : string list;
  read_accesses : string list;
  write_accesses : string list;
}

type t = ctx -> Signal_lang.Ast.stmt list

type registry
(** Behaviour entries keyed by thread classifier base name
    (case-insensitive), plus a stable string identity. Behaviours are
    closures, so a registry cannot be digested structurally; the id is
    what incremental recompute folds into its stage keys, and it MUST
    change whenever the generated behaviour changes (e.g. derive it
    from the configuration parameters the behaviours close over). *)

val make : id:string -> (string * t) list -> registry
(** [make ~id entries] — see {!registry} for the contract on [id]. *)

val empty : registry
(** No entries; id ["empty"]. *)

val id : registry -> string

val with_id : id:string -> registry -> registry
(** The same behaviours under another id, e.g. to translate without
    reusing anything cached under the old one. *)

val find : registry -> string -> t option

val default : t
(** Neutral behaviour: every out port and write access carries a job
    counter at [Start] (or the first frozen input when one exists);
    every read access pops at [Start]. *)

val job_counter :
  ctx -> Signal_lang.Ast.stmt list * Signal_lang.Ast.expr
(** Defining statements and the counter expression (number of starts so
    far), present at [Start]. *)
