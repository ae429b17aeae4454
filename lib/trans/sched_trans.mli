(** Generation of the SIGNAL scheduler process from a synthesized
    static schedule (paper Sec. IV-D: "the generated valid schedules
    are then seamlessly translated into SIGNAL").

    The process consumes the processor's base [tick] and produces, for
    each scheduled task, the control events [*_dispatch], [*_start],
    [*_complete] and [*_deadline] at the base-tick phases recorded in
    the schedule, cycling over the hyper-period:
    {[
      n  := n $ 1 init 0 + 1          -- tick counter
      ph := (n - 1) modulo H          -- phase in the hyper-period
      thX_dispatch := when (ph = 0 or ph = 4 or ...)
    ]} *)

val translate :
  name:string ->
  prefix_of:(string -> string) ->
  Sched.Static_sched.schedule ->
  Signal_lang.Ast.process
(** [prefix_of] maps a schedule task name to the signal prefix used
    for its four control-event outputs. *)

val output_names : prefix:string -> string list
(** The four event outputs generated for one task, in declaration
    order: dispatch, start, complete, deadline. *)

val task_names : Sched.Static_sched.schedule -> string list
(** The tasks [translate] generates events for: those with a job in
    the schedule, in [String.compare] order. *)
