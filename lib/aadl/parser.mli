(** Recursive-descent parser for the AADL textual subset.

    Accepts one package per file:
    {[
      package ProducerConsumer
      public
        with Base_Types;

        thread thProducer
          features
            pProdStart: in event port;
          properties
            Dispatch_Protocol => Periodic;
            Period => 4 ms;
        end thProducer;

        process implementation prProdCons.impl
          subcomponents
            thProducer: thread thProducer.impl;
          connections
            c0: port thProducer.pOut -> thConsumer.pIn;
        end prProdCons.impl;
      end ProducerConsumer;
    ]}

    Keywords are case-insensitive, as mandated by the standard. *)

exception Parse_error of string * int * int
(** message, line, column *)

val parse_package : string -> (Syntax.package, string) result
(** Parse a complete package from source text. The error string
    includes the position. *)

val parse_package_exn : string -> Syntax.package
(** @raise Parse_error on malformed input. *)

val parse_packages : string -> (Syntax.package list, string) result
(** Parse a file containing several packages (at least one), e.g. a
    library package plus the system package that imports it. *)

val parse_package_diag :
  ?file:string -> string -> (Syntax.package, Putil.Diag.t list) result
(** Like {!parse_package}, but failures are structured diagnostics
    carrying a stable code ([AADL-PARSE-00x] / [AADL-LEX-001]) and a
    source span. [file] names the source in reported spans. *)

val parse_packages_diag :
  ?file:string -> string -> (Syntax.package list, Putil.Diag.t list) result
(** Like {!parse_packages}, with structured diagnostics. *)

val shape_digest : Syntax.package -> string
(** The digest the parser stores in [pkg_shape]: the package with
    every scheduler-owned property association dropped
    ({!Props.is_scheduler_owned}), source locations kept. Two packages
    whose other declarations are equal, positions included, share
    it. *)

val parse_property_value : string -> (Syntax.property_value, string) result
(** Parse a standalone property value (used by tests and tooling). *)
