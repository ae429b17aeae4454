(** Kernel normal form of SIGNAL processes.

    Every equation is three-address over {e atoms} (signal names or
    constants). Non-primitive process instances are inlined; primitive
    (simulator-native) instances are kept as nodes. This is the common
    input of the clock calculus, the static analyses and the simulator. *)

type atom =
  | Avar of Ast.ident
  | Aconst of Types.value

(** Step-wise (single-instant) operators. *)
type prim =
  | Punop of Ast.unop
  | Pbinop of Ast.binop
  | Pif              (** 3 args: condition, then, else — synchronous *)
  | Pid              (** copy *)
  | Pclock           (** [^x] : event extraction, synchronous with arg *)

type keq =
  | Kfunc of { dst : Ast.ident; op : prim; args : atom list }
  | Kdelay of { dst : Ast.ident; src : Ast.ident; init : Types.value }
  | Kwhen of { dst : Ast.ident; src : atom; cond : atom }
  | Kdefault of { dst : Ast.ident; left : atom; right : atom }

type kconstraint =
  | Ceq of Ast.ident * Ast.ident  (** synchronous signals *)
  | Cle of Ast.ident * Ast.ident  (** clock inclusion *)
  | Cex of Ast.ident * Ast.ident  (** clock exclusion *)

(** A primitive instance kept as a black box; its inputs have been
    flattened to signal names. *)
type kinstance = {
  ki_label : string;
  ki_prim : Stdproc.primitive;
  ki_ins : Ast.ident list;
  ki_outs : Ast.ident list;
  ki_params : Types.value list;
}

type kprocess = {
  kname : string;
  kinputs : Ast.nvardecl list;
  koutputs : Ast.nvardecl list;
  klocals : Ast.nvardecl list;  (** declared locals and generated temps *)
  keqs : keq list;
  kconstraints : kconstraint list;
  kinstances : kinstance list;
  kpartials : (Ast.ident * Ast.ident list) list;
      (** signals defined by merging partial definitions, with the
          temporaries holding each branch, in source order *)
}

val atom_type :
  (Ast.ident -> Types.styp option) -> atom -> Types.styp option

val signals : kprocess -> Ast.nvardecl list
(** All signals of the process: inputs, outputs, locals. *)

val signal_count : kprocess -> int
(** [List.length (signals kp)] (and [st_count (sigtab kp)]), counted
    without building either. *)

val digest : kprocess -> string
(** Structural digest (16 raw bytes): structurally equal processes
    yield equal digests. Keys the clock-analysis and compilation memo
    tables, so repeated pipeline runs over one kernel analyze it
    once. *)

(** {1 Indexed signal table}

    Dense per-process indexing of the declared signals, in {!signals}
    order. Names are interned ({!Putil.Symbol}) so lookup is a flat
    array read; the simulator, the compiler and the clock calculus all
    key their per-signal state on these indices. *)

type sigtab

val sigtab : kprocess -> sigtab

val st_count : sigtab -> int
val st_sym : sigtab -> int -> Putil.Symbol.t

val st_uid : sigtab -> int -> Putil.Uid.Signal.t
(** The signal's interned {!Putil.Uid.Signal} identity — the key the
    traceability map uses. *)

val st_name : sigtab -> int -> Ast.ident
val st_decl : sigtab -> int -> Ast.nvardecl
val st_index_sym : sigtab -> Putil.Symbol.t -> int option
val st_index_opt : sigtab -> Ast.ident -> int option

val st_index_exn : sigtab -> Ast.ident -> int
(** @raise Not_found for undeclared signals. *)

val defined_by : kprocess -> Ast.ident -> keq list
(** Equations whose destination is the given signal. *)

val pp_keq : Format.formatter -> keq -> unit
val pp_kprocess : Format.formatter -> kprocess -> unit
