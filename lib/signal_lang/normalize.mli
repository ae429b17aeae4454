(** Normalization of SIGNAL processes to {!Kernel} form.

    - expressions are flattened to three-address equations over fresh,
      typed temporaries;
    - non-primitive process instances (including the kernel-expressible
      AADL2SIGNAL library models) are inlined, with static parameters
      substituted by their actual constant values;
    - primitive instances are kept as {!Kernel.kinstance} nodes;
    - partial definitions are turned into a recorded merge of
      per-branch temporaries.

    Fresh names are built as ["label__name"] for inlined instances and
    ["_tN"] for temporaries, so they cannot clash with source names
    produced by the AADL translator. *)

exception Normalize_error of Putil.Diag.t
(** Raised by {!process_exn}; a printer is registered so uncaught
    instances render as the diagnostic. *)

val process :
  ?program:Ast.program ->
  ?params:Types.value list ->
  Ast.process ->
  (Kernel.kprocess, Putil.Diag.t) result
(** Normalize one process. [params] instantiates its static parameters
    (required when the process declares any). [program] provides the
    global scope for instance resolution; the AADL2SIGNAL library is
    always in scope. Generated kernel declarations carry [normalized]
    marks whose spans point back at the source construct each
    temporary flattens. Errors are [SIG-NORM-001] diagnostics whose
    span is the marked source construct (statement, expression or
    instance) normalization gave up on, when one is known. *)

val process_exn :
  ?program:Ast.program -> ?params:Types.value list -> Ast.process ->
  Kernel.kprocess
(** @raise Normalize_error on normalization errors. *)

(** {1 Link-time assembly from precomputed model kernels}

    Per-process incremental recompute normalizes each model once
    ({!process}, cached per model digest) and assembles the host
    kernel by {e linking}: every instance of a precomputed model is
    satisfied by renaming the cached kernel into the host namespace
    and splicing its content in place. Cold and warm runs share this
    path, so the assembled kernel is byte-identical either way. *)

type link = {
  l_label : string;  (** instance label in the host process *)
  l_model : string;  (** model process name *)
  l_rename : (Ast.ident * Ast.ident) list;
      (** model-local signal → host-kernel signal, covering the
          model's inputs (bound to actual atoms), outputs (bound to
          host names) and locals (["label__name"] / ["label___tN"]) *)
}

type linked = {
  lk_kernel : Kernel.kprocess;
      (** the fully linked kernel, equal to what {!process} on the
          host would produce under link-time naming *)
  lk_glue : Kernel.kprocess;
      (** host-side abstraction: the same traversal with spliced model
          content omitted — model outputs stay free, actual-input
          computations and host equations/constraints are kept.
          Per-process incremental analysis runs on this kernel with
          per-model interface summaries injected as constraints. *)
  lk_links : link list;  (** one per spliced instance, in body order *)
}

val process_linked :
  ?program:Ast.program ->
  precomputed:(string * Kernel.kprocess) list ->
  Ast.process ->
  (linked, Putil.Diag.t) result
(** Normalize the host process, splicing [precomputed] kernels at
    instance sites (models with static parameters, or shadowed by a
    subprocess of the host, fall back to ordinary inlining). *)
