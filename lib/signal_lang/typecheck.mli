(** Static typing and well-formedness of SIGNAL programs.

    Checks performed per process:
    - declared names (params, inputs, outputs, locals) are distinct;
    - every signal read is declared;
    - outputs and locals are defined exactly once (totally), or only by
      partial definitions, or by an instance output;
    - inputs and params are never defined;
    - expressions are well-typed ([event] promotes to [boolean]);
    - process instances resolve (locally, globally, or in the
      AADL2SIGNAL library) with matching arities and types. *)

type error = {
  err_proc : string;  (** process in which the error was found *)
  err_msg : string;
  err_code : string;  (** stable [SIG-TYPE-0xx] code *)
  err_signal : string option;
      (** concerned signal, when attributable — lets callers recover
          the declaration span from the declaration's mark
          ({!Ast.mark_span}) *)
}

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val type_of_expr :
  (Ast.ident -> Types.styp option) -> Ast.expr -> (Types.styp, string) result
(** Type of an expression under the given typing environment. *)

val check_process :
  ?program:Ast.program -> Ast.process -> error list
(** All errors in one process (empty list = well-formed). The optional
    program provides global process models for instance resolution; the
    AADL2SIGNAL library is always in scope. *)

val check_program : Ast.program -> error list

val type_process : Ast.process -> Ast.typed Ast.gprocess
(** Mark-transforming elaboration: re-mark a parsed process as
    [typed], attaching the inferred type to every expression node.
    Total and best-effort — nodes that do not type get [None]; run
    {!check_process} for the error list. *)
