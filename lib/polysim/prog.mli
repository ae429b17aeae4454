(** The int-indexed program IR shared by {!Engine} and {!Compile}.

    One lowering pass ({!of_kprocess}) maps every signal of a
    kernel process to a dense index and rewrites equations,
    constraints and primitive instances over those indices. The
    fixpoint interpreter consumes [eqs]/[constraints]/[prims]; the
    clock-directed compiler consumes the derived per-signal [vdefs]
    and the same [prims] — both evaluators therefore share name
    resolution, primitive arity checking and queue-policy parsing,
    and their per-instant state is flat arrays. *)

exception Lower_error of string

type atom =
  | Avar of int
  | Aconst of Signal_lang.Types.value

type leq =
  | Lfunc of { dst : int; op : Signal_lang.Kernel.prim; args : atom array }
  | Ldelay of { dst : int; src : int; init : Signal_lang.Types.value }
  | Lwhen of { dst : int; src : atom; cond : atom }
  | Ldefault of { dst : int; left : atom; right : atom }

type lconstraint =
  | Leq of int * int
  | Lle of int * int
  | Lex of int * int

type overflow_policy = Drop_oldest | Drop_newest | Overflow_error

type lprim = {
  lp_ki : Signal_lang.Kernel.kinstance;
  lp_ins : int array;
  lp_outs : int array;
  lp_capacity : int;
  lp_policy : overflow_policy;
}

type vdef =
  | Vnone
  | Vfunc of Signal_lang.Kernel.prim * atom array
  | Vdelay
  | Vwhen of atom
  | Vdefault of atom * atom
  | Vprim of int * int

type t = {
  kp : Signal_lang.Kernel.kprocess;
  tab : Signal_lang.Kernel.sigtab;
  n : int;
  names : string array;
  types : Signal_lang.Types.styp array;
  is_input : bool array;
  inputs : int array;
  eqs : leq array;
  constraints : lconstraint array;
  prims : lprim array;
  vdefs : vdef array;
  delay_src : int array;
  delay_init : Signal_lang.Types.value array;
}

val of_kprocess : Signal_lang.Kernel.kprocess -> t
(** @raise Lower_error on references to undeclared signals. *)

val index_opt : t -> Signal_lang.Ast.ident -> int option
val name : t -> int -> Signal_lang.Ast.ident
val decls : t -> Signal_lang.Ast.nvardecl list
