type atom =
  | Avar of Ast.ident
  | Aconst of Types.value

type prim =
  | Punop of Ast.unop
  | Pbinop of Ast.binop
  | Pif
  | Pid
  | Pclock

type keq =
  | Kfunc of { dst : Ast.ident; op : prim; args : atom list }
  | Kdelay of { dst : Ast.ident; src : Ast.ident; init : Types.value }
  | Kwhen of { dst : Ast.ident; src : atom; cond : atom }
  | Kdefault of { dst : Ast.ident; left : atom; right : atom }

type kconstraint =
  | Ceq of Ast.ident * Ast.ident
  | Cle of Ast.ident * Ast.ident
  | Cex of Ast.ident * Ast.ident

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
  klocals : Ast.nvardecl list;
  keqs : keq list;
  kconstraints : kconstraint list;
  kinstances : kinstance list;
  kpartials : (Ast.ident * Ast.ident list) list;
}

let atom_type env = function
  | Avar x -> env x
  | Aconst v -> Some (Types.type_of_value v)

let signals kp = kp.kinputs @ kp.koutputs @ kp.klocals

let signal_count kp =
  List.length kp.kinputs + List.length kp.koutputs + List.length kp.klocals

let m_digests = Putil.Metrics.counter "kernel.digests"

(* kprocess is pure data (strings, values, lists), so a structural
   marshalling is a faithful canonical form *)
let digest kp =
  Putil.Metrics.incr m_digests;
  Digest.string (Marshal.to_string kp [ Marshal.No_sharing ])

(* ------------------------------------------------------------------ *)
(* Indexed signal table                                                *)
(* ------------------------------------------------------------------ *)

(* Dense per-process indexing of the declared signals, in [signals]
   order (inputs, outputs, locals), with a name -> index table of the
   process's own names built once, so every downstream layer
   (simulator, clock calculus, compiler) can key its state on ints. *)
type sigtab = {
  st_decls : Ast.nvardecl array;          (* local idx -> declaration *)
  st_lookup : (string, int) Hashtbl.t;    (* name -> local idx *)
}

let sigtab kp =
  let decls = Array.of_list (signals kp) in
  let lookup = Hashtbl.create (Array.length decls) in
  Array.iteri (fun i vd -> Hashtbl.replace lookup vd.Ast.var_name i) decls;
  { st_decls = decls; st_lookup = lookup }

let st_count tab = Array.length tab.st_decls
let st_name tab i = tab.st_decls.(i).Ast.var_name
let st_decl tab i = tab.st_decls.(i)
let st_index_opt tab x = Hashtbl.find_opt tab.st_lookup x

let eq_dst = function
  | Kfunc { dst; _ } | Kdelay { dst; _ } | Kwhen { dst; _ }
  | Kdefault { dst; _ } -> dst

let defined_by kp x =
  List.filter (fun eq -> String.equal (eq_dst eq) x) kp.keqs

let pp_atom ppf = function
  | Avar x -> Format.pp_print_string ppf x
  | Aconst v -> Types.pp_value ppf v

let prim_to_string = function
  | Punop op -> Pp.unop_to_string op
  | Pbinop op -> Pp.binop_to_string op
  | Pif -> "if"
  | Pid -> "id"
  | Pclock -> "^"

let pp_keq ppf = function
  | Kfunc { dst; op; args } ->
    Format.fprintf ppf "%s := %s(%a)" dst (prim_to_string op)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_atom)
      args
  | Kdelay { dst; src; init } ->
    Format.fprintf ppf "%s := %s $ 1 init %a" dst src Types.pp_value init
  | Kwhen { dst; src; cond } ->
    Format.fprintf ppf "%s := %a when %a" dst pp_atom src pp_atom cond
  | Kdefault { dst; left; right } ->
    Format.fprintf ppf "%s := %a default %a" dst pp_atom left pp_atom right

let pp_kconstraint ppf = function
  | Ceq (a, b) -> Format.fprintf ppf "%s ^= %s" a b
  | Cle (a, b) -> Format.fprintf ppf "%s ^< %s" a b
  | Cex (a, b) -> Format.fprintf ppf "%s ^# %s" a b

let pp_kinstance ppf ki =
  Format.fprintf ppf "%s: %s(%a) -> (%a)" ki.ki_label
    (match ki.ki_prim with
     | Stdproc.Pfifo -> "fifo"
     | Stdproc.Pfifo_reset -> "fifo_reset"
     | Stdproc.Pin_event_port -> "in_event_port"
     | Stdproc.Pout_event_port -> "out_event_port")
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    ki.ki_ins
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_string)
    ki.ki_outs

let pp_kprocess ppf kp =
  Format.fprintf ppf "@[<v 2>kernel %s:@," kp.kname;
  List.iter (fun eq -> Format.fprintf ppf "%a@," pp_keq eq) kp.keqs;
  List.iter (fun c -> Format.fprintf ppf "%a@," pp_kconstraint c) kp.kconstraints;
  List.iter (fun ki -> Format.fprintf ppf "%a@," pp_kinstance ki) kp.kinstances;
  List.iter
    (fun (x, srcs) ->
      Format.fprintf ppf "%s ::= merge(%a)@," x
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_string)
        srcs)
    kp.kpartials;
  Format.fprintf ppf "@]"
