type ident = string

(* ------------------------------------------------------------------ *)
(* Phases and marks                                                    *)
(* ------------------------------------------------------------------ *)

(* Phase witnesses: empty types indexing the mark GADT. A [parsed]
   tree carries only source positions; [typed] adds the inferred type
   of every node; [normalized] marks the kernel-form declarations. *)
type parsed = |
type typed = |
type normalized = |

type _ mark =
  | Mparsed : Putil.Diag.span option -> parsed mark
  | Mtyped : Putil.Diag.span option * Types.styp option -> typed mark
  | Mnorm : Putil.Diag.span option -> normalized mark

let mark_span : type p. p mark -> Putil.Diag.span option = function
  | Mparsed sp -> sp
  | Mtyped (sp, _) -> sp
  | Mnorm sp -> sp

let mark_ty : type p. p mark -> Types.styp option = function
  | Mtyped (_, ty) -> ty
  | Mparsed _ | Mnorm _ -> None

let with_span : type p. p mark -> Putil.Diag.span option -> p mark =
 fun m sp ->
  match m with
  | Mparsed _ -> Mparsed sp
  | Mtyped (_, ty) -> Mtyped (sp, ty)
  | Mnorm _ -> Mnorm sp

(* ------------------------------------------------------------------ *)
(* The phase-indexed marked AST                                        *)
(* ------------------------------------------------------------------ *)

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
  | Edelay of 'p gexpr * Types.value
  | Ewhen of 'p gexpr * 'p gexpr
  | Edefault of 'p gexpr * 'p gexpr
  | Eclock of 'p gexpr

type 'p gstmt = 'p gstmt_desc * 'p mark

and 'p gstmt_desc =
  | Sdef of ident * 'p gexpr
  | Spartial of ident * 'p gexpr
  | Sclk_eq of 'p gexpr * 'p gexpr
  | Sclk_le of 'p gexpr * 'p gexpr
  | Sclk_ex of 'p gexpr * 'p gexpr
  | Sinstance of 'p ginstance

and 'p ginstance = {
  inst_label : string;
  inst_proc : ident;
  inst_ins : 'p gexpr list;
  inst_outs : ident list;
  inst_params : Types.value list;
}

type 'p gvardecl = {
  var_name : ident;
  var_type : Types.styp;
  var_mark : 'p mark;
}

type 'p gprocess = {
  proc_name : ident;
  params : 'p gvardecl list;
  inputs : 'p gvardecl list;
  outputs : 'p gvardecl list;
  locals : 'p gvardecl list;
  body : 'p gstmt list;
  subprocesses : 'p gprocess list;
  pragmas : (string * string) list;
}

type 'p gprogram = {
  prog_name : ident;
  processes : 'p gprocess list;
}

(* The default phase of everything the translator and the parser
   produce. *)
type expr = parsed gexpr
type stmt = parsed gstmt
type instance = parsed ginstance
type vardecl = parsed gvardecl
type process = parsed gprocess
type program = parsed gprogram

type nvardecl = normalized gvardecl

let desc (d, _) = d
let mark (_, m) = m
let span e = mark_span (mark e)

let mk d : expr = (d, Mparsed None)

let var var_name var_type = { var_name; var_type; var_mark = Mparsed None }

let var_at ~span var_name var_type =
  { var_name; var_type; var_mark = Mparsed (Some span) }

let remark_norm vd =
  { var_name = vd.var_name; var_type = vd.var_type;
    var_mark = Mnorm (mark_span vd.var_mark) }

let find_process prog name =
  List.find_opt (fun p -> String.equal p.proc_name name) prog.processes

let find_subprocess proc name =
  List.find_opt (fun p -> String.equal p.proc_name name) proc.subprocesses

let sort_uniq_idents l = List.sort_uniq String.compare l

let rec free_vars_acc : type p. ident list -> p gexpr -> ident list =
 fun acc (d, _) ->
  match d with
  | Econst _ -> acc
  | Evar x -> x :: acc
  | Eunop (_, e) | Eclock e | Edelay (e, _) -> free_vars_acc acc e
  | Ebinop (_, e1, e2) | Ewhen (e1, e2) | Edefault (e1, e2) ->
    free_vars_acc (free_vars_acc acc e1) e2
  | Eif (c, t, f) -> free_vars_acc (free_vars_acc (free_vars_acc acc c) t) f

let free_signals e = sort_uniq_idents (free_vars_acc [] e)

let defined_signals stmts =
  let defs (d, _) =
    match d with
    | Sdef (x, _) | Spartial (x, _) -> [ x ]
    | Sinstance i -> i.inst_outs
    | Sclk_eq _ | Sclk_le _ | Sclk_ex _ -> []
  in
  sort_uniq_idents (List.concat_map defs stmts)

let stmt_reads (d, _) =
  match d with
  | Sdef (_, e) | Spartial (_, e) -> free_signals e
  | Sclk_eq (e1, e2) | Sclk_le (e1, e2) | Sclk_ex (e1, e2) ->
    sort_uniq_idents (free_vars_acc (free_vars_acc [] e1) e2)
  | Sinstance i ->
    sort_uniq_idents (List.concat_map free_signals i.inst_ins)

let rec rename_expr : type p. (ident -> ident) -> p gexpr -> p gexpr =
 fun f (d, m) ->
  let d =
    match d with
    | Econst _ as d -> d
    | Evar x -> Evar (f x)
    | Eunop (op, e) -> Eunop (op, rename_expr f e)
    | Ebinop (op, e1, e2) -> Ebinop (op, rename_expr f e1, rename_expr f e2)
    | Eif (c, t, e) -> Eif (rename_expr f c, rename_expr f t, rename_expr f e)
    | Edelay (e, v) -> Edelay (rename_expr f e, v)
    | Ewhen (e, b) -> Ewhen (rename_expr f e, rename_expr f b)
    | Edefault (e1, e2) -> Edefault (rename_expr f e1, rename_expr f e2)
    | Eclock e -> Eclock (rename_expr f e)
  in
  (d, m)

(* Mark-insensitive structural equality; constants compare with [=]. *)
let rec equal_expr : type p q. p gexpr -> q gexpr -> bool =
 fun (a, _) (b, _) ->
  match a, b with
  | Econst v, Econst w -> v = w
  | Evar x, Evar y -> String.equal x y
  | Eunop (o, e), Eunop (o', e') -> o = o' && equal_expr e e'
  | Ebinop (o, e1, e2), Ebinop (o', e1', e2') ->
    o = o' && equal_expr e1 e1' && equal_expr e2 e2'
  | Eif (c, t, f), Eif (c', t', f') ->
    equal_expr c c' && equal_expr t t' && equal_expr f f'
  | Edelay (e, v), Edelay (e', w) -> equal_expr e e' && v = w
  | Ewhen (e1, e2), Ewhen (e1', e2') | Edefault (e1, e2), Edefault (e1', e2')
    ->
    equal_expr e1 e1' && equal_expr e2 e2'
  | Eclock e, Eclock e' -> equal_expr e e'
  | ( ( Econst _ | Evar _ | Eunop _ | Ebinop _ | Eif _ | Edelay _ | Ewhen _
      | Edefault _ | Eclock _ ),
      _ ) ->
    false

(* ------------------------------------------------------------------ *)
(* Digests                                                             *)
(* ------------------------------------------------------------------ *)

(* Stage digests for incremental recompute. The digest includes marks
   (positions and phase annotations): it is conservative — a pure
   position shift re-runs downstream stages — but guarantees that
   replayed diagnostics carry current spans. *)
let program_digest (prog : 'p gprogram) =
  Digest.string (Marshal.to_string prog [ Marshal.No_sharing ])

let process_digest (p : 'p gprocess) =
  Digest.string (Marshal.to_string p [ Marshal.No_sharing ])

let rec expr_size : type p. p gexpr -> int =
 fun (d, _) ->
  match d with
  | Econst _ | Evar _ -> 1
  | Eunop (_, e) | Eclock e | Edelay (e, _) -> 1 + expr_size e
  | Ebinop (_, e1, e2) | Ewhen (e1, e2) | Edefault (e1, e2) ->
    1 + expr_size e1 + expr_size e2
  | Eif (c, t, f) -> 1 + expr_size c + expr_size t + expr_size f
