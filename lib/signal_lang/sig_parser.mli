(** Parser for the SIGNAL concrete syntax produced by {!Pp}.

    Accepts modules and single processes; {!Pp} followed by this parser
    is the identity on abstract syntax up to marks and value
    normalization (the event value prints as [true] and reparses as a
    boolean): printing a reparsed tree gives the same text, a property
    exercised by the test suite on every generated program. Parsed trees carry
    source spans on every expression, statement and declaration. *)

exception Parse_error of string
(** message, with the offending token. *)

val parse_program : string -> (Ast.program, string) result
(** Parse [module N = process…]. *)

val parse_process : string -> (Ast.process, string) result
(** Parse a single [process N = …;]. *)

val parse_expr : string -> (Ast.expr, string) result
(** Parse a standalone expression (tooling and tests). *)
