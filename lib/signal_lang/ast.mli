(** Abstract syntax of the SIGNAL subset used by the AADL translation.

    The language is the polychronous kernel of SIGNAL (Le Guernic et
    al., "Polychrony for System Design"): step-wise functions, delay,
    sampling ([when]), deterministic merge ([default]), clock
    constraints, partial definitions and process composition.

    The AST is {e phase-indexed and marked}, in the style of the
    Catala compiler's [gexpr]: every node is a pair of a description
    and a mark, and the phase type parameter selects what the mark
    carries. [parsed] trees carry source spans; they are what the
    parser and the AADL translator produce, and what typechecking and
    normalization read. {!Typecheck.type_process} re-marks a process
    as [typed], carrying inferred types; the normalizer emits kernel
    declarations with [normalized] marks. *)

type ident = string

(** {1 Phases and marks} *)

type parsed = |
type typed = |
type normalized = |

type _ mark =
  | Mparsed : Putil.Diag.span option -> parsed mark
      (** source span of the construct, when known *)
  | Mtyped : Putil.Diag.span option * Types.styp option -> typed mark
      (** span, plus the inferred type ([None] on ill-typed nodes) *)
  | Mnorm : Putil.Diag.span option -> normalized mark
      (** span of the source construct a kernel declaration flattens *)

val mark_span : 'p mark -> Putil.Diag.span option
val mark_ty : 'p mark -> Types.styp option

val with_span : 'p mark -> Putil.Diag.span option -> 'p mark
(** Replace the span, keeping the phase and its other payload. *)

(** {1 The phase-indexed AST} *)

type unop =
  | Not
  | Neg

type binop =
  | Add | Sub | Mul | Div | Mod
  | And | Or | Xor
  | Eq | Neq | Lt | Le | Gt | Ge

type 'p gexpr = 'p gexpr_desc * 'p mark

and 'p gexpr_desc =
  | Econst of Types.value
  | Evar of ident
  | Eunop of unop * 'p gexpr
  | Ebinop of binop * 'p gexpr * 'p gexpr
  | Eif of 'p gexpr * 'p gexpr * 'p gexpr
      (** synchronous conditional: all three operands share one clock *)
  | Edelay of 'p gexpr * Types.value  (** [e $ 1 init v] *)
  | Ewhen of 'p gexpr * 'p gexpr      (** [e when b]: e sampled where b true *)
  | Edefault of 'p gexpr * 'p gexpr   (** [e default f]: e, else f *)
  | Eclock of 'p gexpr                (** [^e]: event clock of e *)

(** A statement of a process body. *)
type 'p gstmt = 'p gstmt_desc * 'p mark

and 'p gstmt_desc =
  | Sdef of ident * 'p gexpr       (** [x := e] total definition *)
  | Spartial of ident * 'p gexpr   (** [x ::= e] partial definition *)
  | Sclk_eq of 'p gexpr * 'p gexpr (** [e1 ^= e2] synchrony constraint *)
  | Sclk_le of 'p gexpr * 'p gexpr (** [e1 ^< e2] clock inclusion *)
  | Sclk_ex of 'p gexpr * 'p gexpr (** [e1 ^# e2] clock exclusion *)
  | Sinstance of 'p ginstance      (** sub-process instantiation *)

and 'p ginstance = {
  inst_label : string;        (** unique label, used for traceability *)
  inst_proc : ident;          (** name of the instantiated process model *)
  inst_ins : 'p gexpr list;   (** actual input expressions, positional *)
  inst_outs : ident list;     (** signals receiving the outputs *)
  inst_params : Types.value list;  (** static parameters, e.g. FIFO size *)
}

type 'p gvardecl = {
  var_name : ident;
  var_type : Types.styp;
  var_mark : 'p mark;
      (** for generated code, the span points at the source AADL
          construct the declaration translates *)
}

type 'p gprocess = {
  proc_name : ident;
  params : 'p gvardecl list;       (** static (constant) parameters *)
  inputs : 'p gvardecl list;
  outputs : 'p gvardecl list;
  locals : 'p gvardecl list;
  body : 'p gstmt list;
  subprocesses : 'p gprocess list; (** local process models, in scope *)
  pragmas : (string * string) list;
      (** free-form annotations; used for AADL traceability *)
}

type 'p gprogram = {
  prog_name : ident;
  processes : 'p gprocess list;    (** global process models *)
}

(** {1 Default-phase aliases}

    The parser and the AADL translator produce [parsed] trees; these
    aliases keep their signatures short. *)

type expr = parsed gexpr
type stmt = parsed gstmt
type instance = parsed ginstance
type vardecl = parsed gvardecl
type process = parsed gprocess
type program = parsed gprogram

type nvardecl = normalized gvardecl
(** Kernel-form declarations ({!Kernel.kprocess}). *)

(** {1 Node and mark access} *)

val desc : 'd * 'p mark -> 'd
(** Works on expressions and statements: both are description/mark
    pairs. *)

val mark : 'a * 'p mark -> 'p mark
val span : 'a * 'p mark -> Putil.Diag.span option

val mk : parsed gexpr_desc -> expr
(** Wrap a description with an empty parsed mark. *)

val var : ident -> Types.styp -> vardecl
(** A declaration with no source position. *)

val var_at : span:Putil.Diag.span -> ident -> Types.styp -> vardecl

val remark_norm : 'p gvardecl -> nvardecl
(** Re-mark a declaration into the normalized phase, keeping its span. *)

val find_process : 'p gprogram -> ident -> 'p gprocess option
(** Global lookup by name. *)

val find_subprocess : 'p gprocess -> ident -> 'p gprocess option
(** Lookup among a process's local models. *)

val free_signals : 'p gexpr -> ident list
(** Signal names read by an expression (without duplicates, sorted). *)

val defined_signals : 'p gstmt list -> ident list
(** Names defined by [Sdef], [Spartial] or instance outputs (sorted,
    without duplicates). *)

val stmt_reads : 'p gstmt -> ident list
(** Signal names read by a statement (sorted, without duplicates). *)

val rename_expr : (ident -> ident) -> 'p gexpr -> 'p gexpr

val equal_expr : 'p gexpr -> 'q gexpr -> bool
(** Mark-insensitive structural equality. *)

(** {1 Digests} *)

val program_digest : 'p gprogram -> string
(** Structural digest (16 raw bytes), marks included: keys the
    per-stage memoization of incremental recompute. Conservative — a
    position-only change alters the digest, which keeps replayed
    diagnostics accurate. *)

val process_digest : 'p gprocess -> string
(** Per-process structural digest (16 raw bytes), marks included: keys
    the process-granular memoization of incremental recompute. *)

val expr_size : 'p gexpr -> int
(** Number of AST nodes, used by profiling and benches. *)
