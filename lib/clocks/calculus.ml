module K = Signal_lang.Kernel
module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Metrics = Putil.Metrics

let m_analyses = Metrics.counter "calculus.analyses"
let m_uf_finds = Metrics.counter "calculus.uf_finds"
let m_uf_unions = Metrics.counter "calculus.uf_unions"
let m_constraints = Metrics.counter "calculus.constraints"
let m_signals = Metrics.gauge "calculus.signals"
let m_classes = Metrics.gauge "calculus.classes"
let m_analyze_ns = Metrics.timer "calculus.analyze_ns"

(* ------------------------------------------------------------------ *)
(* Union-find over signal indices                                      *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  type t = { parent : int array; rank : int array }

  let create n = { parent = Array.init n (fun i -> i); rank = Array.make n 0 }

  let rec root uf i =
    let p = uf.parent.(i) in
    if p = i then i
    else begin
      let r = root uf p in
      uf.parent.(i) <- r;
      r
    end

  let find uf i =
    Metrics.incr m_uf_finds;
    root uf i

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then begin
      Metrics.incr m_uf_unions;
      if uf.rank.(ri) < uf.rank.(rj) then uf.parent.(ri) <- rj
      else if uf.rank.(ri) > uf.rank.(rj) then uf.parent.(rj) <- ri
      else begin
        uf.parent.(rj) <- ri;
        uf.rank.(ri) <- uf.rank.(ri) + 1
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

(* Boolean structure of a sampling condition, resolved down to base
   literals (condition signals whose value is opaque). Decomposing
   and/or/not lets the calculus prove exclusions like
   [x when c] ^# [x when (d and not c)]. *)
type cform =
  | Ftrue
  | Ffalse
  | Flit of Ast.ident * bool    (* value of boolean signal, polarity *)
  | Feq of Ast.ident * int * bool
      (* integer signal compared to a constant; distinct constants on
         the same signal are mutually exclusive (mode automata) *)
  | Fand of cform * cform
  | For of cform * cform

let rec neg_cform = function
  | Ftrue -> Ffalse
  | Ffalse -> Ftrue
  | Flit (x, pos) -> Flit (x, not pos)
  | Feq (x, k, pos) -> Feq (x, k, not pos)
  | Fand (a, b) -> For (neg_cform a, neg_cform b)
  | For (a, b) -> Fand (neg_cform a, neg_cform b)

(* A clock definition attached to a synchronization class. *)
type cdef =
  | Dwhen of int option * int option * cform
      (* src class ∧ cond class ∧ condition formula; [None] for
         constant operands whose clock is contextual *)
  | Dunion of int list         (* union of classes *)

type var_doc =
  [ `Present of int | `Cond of Ast.ident | `CondEq of Ast.ident * int ]

type t = {
  mgr : Bdd.manager;
  tab : K.sigtab;                           (* signal <-> dense index *)
  names : Ast.ident array;                  (* dense index -> signal *)
  class_ids : int array;                    (* signal index -> class id *)
  reprs : int array;                        (* class id -> root index *)
  clocks : Bdd.t array;                     (* class id -> clock bdd *)
  phi : Bdd.t;
  confl : string list;
  var_doc : var_doc array;                  (* bdd var -> meaning *)
  qmu : Mutex.t;
      (* serializes post-analysis BDD work on [mgr]: query functions
         here plus consumers that borrow the manager through
         [with_query_lock]. The memoized state is shared across
         domains (concurrent pipeline sessions), and BDD [apply]
         mutates the manager's unique table and caches. *)
}

let sig_index st x =
  match K.st_index_opt st.tab x with
  | Some i -> i
  | None -> raise Not_found

(* ------------------------------------------------------------------ *)
(* Definition extraction                                               *)
(* ------------------------------------------------------------------ *)

let defmap_of kp =
  let h = Hashtbl.create 64 in
  List.iter
    (fun eq ->
      let dst =
        match eq with
        | K.Kfunc { dst; _ } | K.Kdelay { dst; _ } | K.Kwhen { dst; _ }
        | K.Kdefault { dst; _ } -> dst
      in
      if not (Hashtbl.mem h dst) then Hashtbl.add h dst eq)
    kp.K.keqs;
  h

(* Signals that are [true] whenever present: event-typed signals, the
   constant true propagated through copies, merges and sampling. *)
let always_true_set kp defmap =
  let types = Hashtbl.create 64 in
  List.iter
    (fun vd -> Hashtbl.replace types vd.Ast.var_name vd.Ast.var_type)
    (K.signals kp);
  let memo = Hashtbl.create 64 in
  let rec atrue ?(stack = []) x =
    match Hashtbl.find_opt memo x with
    | Some b -> b
    | None ->
      if List.mem x stack then false
      else begin
        let stack = x :: stack in
        let b =
          (match Hashtbl.find_opt types x with
           | Some Types.Tevent -> true
           | _ -> (
             match Hashtbl.find_opt defmap x with
             | Some (K.Kfunc { op = K.Pid; args = [ a ]; _ }) -> atom_true stack a
             | Some (K.Kfunc { op = K.Pclock; _ }) -> true
             | Some (K.Kwhen { src; _ }) -> atom_true stack src
             | Some (K.Kdefault { left; right; _ }) ->
               atom_true stack left && atom_true stack right
             | Some (K.Kdelay { src; init; _ }) ->
               (match init with
                | Types.Vbool true | Types.Vevent -> atrue ~stack src
                | _ -> false)
             | _ -> false))
        in
        Hashtbl.replace memo x b;
        b
      end
  and atom_true stack = function
    | K.Aconst (Types.Vbool true) | K.Aconst Types.Vevent -> true
    | K.Aconst _ -> false
    | K.Avar y -> atrue ~stack y
  in
  atrue

(* Resolve a boolean condition signal to a formula over base literals,
   chasing copies, negations and (synchronous) boolean connectives. *)
let rec resolve_cond ~atrue ~defmap ?(stack = []) x pos =
  if List.mem x stack then Flit (x, pos)
  else if atrue x then if pos then Ftrue else Ffalse
  else
    let stack = x :: stack in
    let atom a p =
      match a with
      | K.Avar y -> resolve_cond ~atrue ~defmap ~stack y p
      | K.Aconst (Types.Vbool b) -> if b = p then Ftrue else Ffalse
      | K.Aconst Types.Vevent -> if p then Ftrue else Ffalse
      | K.Aconst (Types.Vint _ | Types.Vreal _ | Types.Vstring _) ->
        Flit (x, pos)
    in
    match Hashtbl.find_opt defmap x with
    | Some (K.Kfunc { op = K.Pid; args = [ a ]; _ }) -> atom a pos
    | Some (K.Kfunc { op = K.Punop Ast.Not; args = [ a ]; _ }) ->
      atom a (not pos)
    | Some (K.Kfunc { op = K.Pbinop Ast.And; args = [ a; b ]; _ }) ->
      let f = Fand (atom a true, atom b true) in
      if pos then f else neg_cform f
    | Some (K.Kfunc { op = K.Pbinop Ast.Or; args = [ a; b ]; _ }) ->
      let f = For (atom a true, atom b true) in
      if pos then f else neg_cform f
    | Some (K.Kfunc { op = K.Pbinop Ast.Eq;
                      args = [ K.Avar y; K.Aconst (Types.Vint k) ]; _ })
    | Some (K.Kfunc { op = K.Pbinop Ast.Eq;
                      args = [ K.Aconst (Types.Vint k); K.Avar y ]; _ }) ->
      Feq (resolve_copy ~defmap y, k, pos)
    | Some (K.Kfunc { op = K.Pbinop Ast.Neq;
                      args = [ K.Avar y; K.Aconst (Types.Vint k) ]; _ })
    | Some (K.Kfunc { op = K.Pbinop Ast.Neq;
                      args = [ K.Aconst (Types.Vint k); K.Avar y ]; _ }) ->
      Feq (resolve_copy ~defmap y, k, not pos)
    | _ -> Flit (x, pos)

(* canonical signal through Pid copies, so "m = 1" and "m = 2" on the
   same memory are recognized as comparisons of one signal *)
and resolve_copy ~defmap ?(fuel = 32) x =
  if fuel = 0 then x
  else
    match Hashtbl.find_opt defmap x with
    | Some (K.Kfunc { op = K.Pid; args = [ K.Avar y ]; _ }) ->
      resolve_copy ~defmap ~fuel:(fuel - 1) y
    | _ -> x

(* ------------------------------------------------------------------ *)
(* Main analysis                                                       *)
(* ------------------------------------------------------------------ *)

let analyze_impl (kp : K.kprocess) =
  let tab = K.sigtab kp in
  let n = K.st_count tab in
  let names = Array.init n (K.st_name tab) in
  let uf = Uf.create n in
  let idx x =
    match K.st_index_opt tab x with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Calculus.analyze: undeclared %s" x)
  in
  (* Phase 1: synchrony classes. *)
  let sync a b = Uf.union uf (idx a) (idx b) in
  List.iter
    (fun eq ->
      match eq with
      | K.Kfunc { dst; args; _ } ->
        List.iter (function K.Avar x -> sync dst x | K.Aconst _ -> ()) args
      | K.Kdelay { dst; src; _ } -> sync dst src
      | K.Kwhen _ | K.Kdefault _ -> ())
    kp.K.keqs;
  List.iter
    (function
      | K.Ceq (a, b) -> sync a b
      | K.Cle _ | K.Cex _ -> ())
    kp.K.kconstraints;
  (* Primitive contracts contributing synchrony. *)
  List.iter
    (fun ki ->
      match ki.K.ki_prim, ki.K.ki_ins, ki.K.ki_outs with
      | Stdproc.Pin_event_port, [ _arrival; frozen_time ], [ _frozen; frozen_count ] ->
        sync frozen_count frozen_time
      | _ -> ())
    kp.K.kinstances;
  (* Dense class ids. *)
  let class_of_root = Hashtbl.create n in
  let nclasses = ref 0 in
  for i = 0 to n - 1 do
    let r = Uf.find uf i in
    if not (Hashtbl.mem class_of_root r) then begin
      Hashtbl.add class_of_root r !nclasses;
      incr nclasses
    end
  done;
  let nclasses = !nclasses in
  let class_ids = Array.make (max n 1) (-1) in
  for i = 0 to n - 1 do
    class_ids.(i) <- Hashtbl.find class_of_root (Uf.find uf i)
  done;
  let reprs = Array.make (max nclasses 1) 0 in
  (* representative = lowest-index member, deterministic *)
  for i = n - 1 downto 0 do
    reprs.(class_ids.(i)) <- i
  done;
  let confl = ref [] in
  let defmap = defmap_of kp in
  let atrue = always_true_set kp defmap in
  let class_of x = class_ids.(idx x) in
  (* Phase 2: collect per-class clock definitions. *)
  let defs : (int, cdef list) Hashtbl.t = Hashtbl.create nclasses in
  let add_def c d =
    let prev = Option.value ~default:[] (Hashtbl.find_opt defs c) in
    Hashtbl.replace defs c (d :: prev)
  in
  let cond_of_atom = function
    | K.Aconst (Types.Vbool true) | K.Aconst Types.Vevent -> (None, Ftrue)
    | K.Aconst (Types.Vbool false) -> (None, Ffalse)
    | K.Aconst _ -> (None, Ftrue)
    | K.Avar b -> (Some (class_of b), resolve_cond ~atrue ~defmap b true)
  in
  List.iter
    (fun eq ->
      match eq with
      | K.Kfunc _ | K.Kdelay _ -> ()
      | K.Kwhen { dst; src; cond } ->
        let src_class =
          match src with
          | K.Avar x -> Some (class_of x)
          | K.Aconst _ -> None
        in
        let bclass, lit = cond_of_atom cond in
        if src_class <> None || bclass <> None then
          add_def (class_of dst) (Dwhen (src_class, bclass, lit))
        else if lit = Ffalse then
          (* fully constant, condition false: the null clock *)
          add_def (class_of dst) (Dwhen (None, None, Ffalse))
      | K.Kdefault { dst; left; right } ->
        let classes =
          List.filter_map
            (function K.Avar x -> Some (class_of x) | K.Aconst _ -> None)
            [ left; right ]
        in
        (match classes with
         | [] -> ()
         | cs -> add_def (class_of dst) (Dunion cs)))
    kp.K.keqs;
  (* Primitive contracts as definitions / constraints (mirrors
     Stdproc contracts). *)
  let prim_constraints = ref [] in
  List.iter
    (fun ki ->
      match ki.K.ki_prim, ki.K.ki_ins, ki.K.ki_outs with
      | Stdproc.Pfifo, [ push; pop ], [ data; size ] ->
        prim_constraints := K.Cle (data, pop) :: !prim_constraints;
        add_def (class_of size) (Dunion [ class_of push; class_of pop ])
      | Stdproc.Pfifo_reset, [ push; pop; reset ], [ data; size ] ->
        prim_constraints := K.Cle (data, pop) :: !prim_constraints;
        add_def (class_of size)
          (Dunion [ class_of push; class_of pop; class_of reset ])
      | Stdproc.Pin_event_port, [ _arrival; frozen_time ], [ frozen; _cnt ] ->
        prim_constraints := K.Cle (frozen, frozen_time) :: !prim_constraints
      | Stdproc.Pout_event_port, [ _item; output_time ], [ sent ] ->
        prim_constraints := K.Cle (sent, output_time) :: !prim_constraints
      | _ ->
        confl :=
          Printf.sprintf "instance %s: arity mismatch with primitive contract"
            ki.K.ki_label
          :: !confl)
    kp.K.kinstances;
  let constraints = kp.K.kconstraints @ !prim_constraints in
  Metrics.incr ~by:(List.length constraints) m_constraints;
  (* Phases 3–4, clocks and Φ's conjuncts, as one construction into
     [mgr] that numbers the i-th fresh variable [number i]. It runs
     twice (DESIGN §12, "Clock-calculus variable order"): once in
     discovery order, only to read the conjuncts' supports, and once
     in the order computed from them, so every clock and conjunct is
     built directly as its final BDD. Fresh variables are drawn in the
     same sequence on both runs: the walk depends on the definitions
     alone, never on a BDD. *)
  let construct mgr ~number =
    let nvars = ref 0 and docs = ref [] in
    let fresh_var doc =
      let v = number !nvars in
      incr nvars;
      docs := doc :: !docs;
      v
    in
    let cond_vars : (Ast.ident, int) Hashtbl.t = Hashtbl.create 16 in
    let lit_bdd b pos =
      let v =
        match Hashtbl.find_opt cond_vars b with
        | Some v -> v
        | None ->
          let v = fresh_var (`Cond b) in
          Hashtbl.replace cond_vars b v;
          v
      in
      let bv = Bdd.var mgr v in
      if pos then bv else Bdd.not_ mgr bv
    in
    (* one variable per (signal, constant) equality; equalities of the
       same signal against distinct constants exclude each other in Φ *)
    let eq_vars : (Ast.ident * int, int) Hashtbl.t = Hashtbl.create 8 in
    let eq_bdd x k pos =
      let v =
        match Hashtbl.find_opt eq_vars (x, k) with
        | Some v -> v
        | None ->
          let v = fresh_var (`CondEq (x, k)) in
          Hashtbl.replace eq_vars (x, k) v;
          v
      in
      let bv = Bdd.var mgr v in
      if pos then bv else Bdd.not_ mgr bv
    in
    let rec cond_bdd = function
      | Ftrue -> Bdd.one mgr
      | Ffalse -> Bdd.zero mgr
      | Flit (b, pos) -> lit_bdd b pos
      | Feq (x, k, pos) -> eq_bdd x k pos
      | Fand (a, b) -> Bdd.and_ mgr (cond_bdd a) (cond_bdd b)
      | For (a, b) -> Bdd.or_ mgr (cond_bdd a) (cond_bdd b)
    in
    (* Phase 3: clock BDD per class, with cycle cut-off. *)
    let status = Array.make (max nclasses 1) `Todo in
    let clocks = Array.make (max nclasses 1) (Bdd.one mgr) in
    let free_clock c =
      let v = fresh_var (`Present c) in
      Bdd.var mgr v
    in
    (* A class may have several definitions (merged by [^=]) and they
       may be mutually recursive through memory patterns. Each
       definition is tried in turn; one whose evaluation loops back to
       the class itself is abandoned ([Cyclic]) and retried as a Φ
       constraint once the class got its clock from an acyclic
       definition — or from a fresh free variable when every definition
       is cyclic. *)
    let exception Cyclic in
    let rec clock_of_class c =
      match status.(c) with
      | `Done -> clocks.(c)
      | `Busy -> raise Cyclic
      | `Todo -> (
        status.(c) <- `Busy;
        let eval = function
          | Dwhen (base, bclass, lit) ->
            let opt = function
              | Some ci -> clock_of_class ci
              | None -> Bdd.one mgr
            in
            Bdd.and_ mgr (opt base) (Bdd.and_ mgr (opt bclass) (cond_bdd lit))
          | Dunion cs ->
            List.fold_left
              (fun acc ci -> Bdd.or_ mgr acc (clock_of_class ci))
              (Bdd.zero mgr) cs
        in
        (* definitions in source order: in translated programs the
           driving definition (e.g. the scheduler's event) precedes
           memory feedback, so trying them in order avoids most cuts *)
        let all_defs =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt defs c))
        in
        (* choose the first acyclically evaluable definition *)
        let chosen = ref None in
        let deferred = ref [] in
        List.iter
          (fun d ->
            match !chosen with
            | Some _ -> deferred := d :: !deferred
            | None -> (
              match eval d with
              | b -> chosen := Some b
              | exception Cyclic -> deferred := d :: !deferred))
          all_defs;
        (match !chosen with
         | Some b -> clocks.(c) <- b
         | None -> clocks.(c) <- free_clock c);
        status.(c) <- `Done;
        (* deferred/redundant definitions become context constraints,
           processed after every class has its clock *)
        List.iter
          (fun d -> pending_constraints := (c, d) :: !pending_constraints)
          !deferred;
        clocks.(c))
    and pending_constraints = ref [] in
    for c = 0 to nclasses - 1 do
      match clock_of_class c with
      | _ -> ()
      | exception Cyclic -> ()
    done;
    (* Phase 4: Φ's conjuncts. Declared and primitive constraints come
       first, then the deferred definitions (all classes are Done, so
       they evaluate without cycles and pin the free variables), then
       one at-most-one chain per compared signal. *)
    let clock_of_sig x = clocks.(class_of x) in
    let declared =
      List.filter_map
        (function
          | K.Ceq _ -> None
          | K.Cle (a, b) -> Some (Bdd.imp mgr (clock_of_sig a) (clock_of_sig b))
          | K.Cex (a, b) ->
            Some (Bdd.not_ mgr (Bdd.and_ mgr (clock_of_sig a) (clock_of_sig b))))
        constraints
    in
    let eval_done = function
      | Dwhen (base, bclass, lit) ->
        let opt = function
          | Some ci -> clocks.(ci)
          | None -> Bdd.one mgr
        in
        Bdd.and_ mgr (opt base) (Bdd.and_ mgr (opt bclass) (cond_bdd lit))
      | Dunion cs ->
        List.fold_left
          (fun acc ci -> Bdd.or_ mgr acc clocks.(ci))
          (Bdd.zero mgr) cs
    in
    let deferred =
      List.map
        (fun (c, d) ->
          let bi = eval_done d in
          Bdd.and_ mgr (Bdd.imp mgr bi clocks.(c)) (Bdd.imp mgr clocks.(c) bi))
        (List.rev !pending_constraints)
    in
    (* the m(m-1)/2 pairwise exclusions of a signal's constants as one
       chain of 2m nodes, built from its last variable up over two
       functions of the variables seen so far: [amo], at most one holds,
       and [none], none holds (what is left once a variable above
       holds) *)
    let at_most_one vs =
      fst
        (List.fold_right
           (fun v (amo, none) ->
             let x = Bdd.var mgr v in
             let nx = Bdd.not_ mgr x in
             ( Bdd.or_ mgr (Bdd.and_ mgr x none) (Bdd.and_ mgr nx amo),
               Bdd.and_ mgr nx none ))
           vs (Bdd.one mgr, Bdd.one mgr))
    in
    let constants = Hashtbl.create 8 in
    Hashtbl.iter
      (fun (x, _) v ->
        Hashtbl.replace constants x
          (v :: Option.value ~default:[] (Hashtbl.find_opt constants x)))
      eq_vars;
    let exclusions =
      Hashtbl.fold
        (fun _ vs acc ->
          match List.sort compare vs with
          | _ :: _ :: _ as vs -> vs :: acc
          | _ -> acc)
        constants []
      |> List.sort compare |> List.map at_most_one
    in
    ( clocks,
      Array.of_list (declared @ deferred @ exclusions),
      Array.of_list (List.rev !docs) )
  in
  let discovery = Bdd.manager () in
  let _, conjuncts, discovered = construct discovery ~number:Fun.id in
  (* Variable order: the variables no conjunct mentions in discovery
     order, then first appearance over the conjuncts' supports, in
     conjunct order; a satellite — a variable whose only conjunct links
     it to one other variable — moves right behind that partner. A
     constraint between a presence and a schedule-slot variable then
     finds both adjacent, and Φ stays linear in replicated subsystems.
     Φ does not depend on the unmentioned variables, so placing them
     first leaves it unchanged; a clock query then branches on them
     before it walks Φ. *)
  let nvars = Array.length discovered in
  let supports = Array.map (Bdd.support discovery) conjuncts in
  let occurs = Array.make nvars 0 and partner = Array.make nvars (-1) in
  Array.iter
    (fun sp ->
      List.iter (fun v -> occurs.(v) <- occurs.(v) + 1) sp;
      match sp with
      | [ a; b ] ->
        partner.(a) <- b;
        partner.(b) <- a
      | _ -> ())
    supports;
  let satellite v =
    occurs.(v) = 1 && partner.(v) >= 0 && occurs.(partner.(v)) > 1
  in
  let seen = Array.make nvars false and appearance = ref [] in
  let see v =
    if not seen.(v) then begin
      seen.(v) <- true;
      appearance := v :: !appearance
    end
  in
  for v = 0 to nvars - 1 do if occurs.(v) = 0 then see v done;
  Array.iter (List.iter see) supports;
  (* [!appearance] is reversed, so consing keeps satellites in order *)
  let satellites = Array.make nvars [] in
  List.iter
    (fun v ->
      if satellite v then
        satellites.(partner.(v)) <- v :: satellites.(partner.(v)))
    !appearance;
  let rank = Array.make nvars 0 and order = Array.make nvars 0 in
  let placed = ref 0 in
  let put v =
    rank.(v) <- !placed;
    order.(!placed) <- v;
    incr placed
  in
  List.iter
    (fun v -> if not (satellite v) then (put v; List.iter put satellites.(v)))
    (List.rev !appearance);
  let mgr = Bdd.manager () in
  let clocks, conjuncts, _ = construct mgr ~number:(Array.get rank) in
  let phi = Bdd.conj mgr conjuncts in
  let confl =
    if Bdd.is_zero phi then
      "clock constraint system is unsatisfiable" :: !confl
    else !confl
  in
  { mgr; tab; names; class_ids; reprs; clocks; phi; confl;
    var_doc = Array.map (Array.get discovered) order;
    qmu = Mutex.create () }

(* Analyses are memoized on the kernel's structural digest: the state
   is immutable once [analyze_impl] returns, so handing the same [t] to
   every caller is sound (later query functions touch only the BDD
   manager's caches, not the analysis result). The memo holds its lock
   across a cold analysis, so concurrent callers never analyze one
   kernel twice. Queries on a shared [t] remain single-domain
   territory — see the interface notes. *)
let memo : t Putil.Memo.t =
  Putil.Memo.create ~stage:"pipeline" Putil.Memo.Cache ~cap:256 ~store:None

let analyze ?digest kp =
  let dg = match digest with Some d -> d | None -> K.digest kp in
  Putil.Memo.get memo ~name:dg ~key:dg @@ fun () ->
  Metrics.incr m_analyses;
  let st =
    Putil.Tracing.with_span "clocks.calculus"
      ~args:[ ("signals", Putil.Tracing.Aint (K.signal_count kp)) ]
    @@ fun () ->
    let st = Metrics.time m_analyze_ns (fun () -> analyze_impl kp) in
    if Putil.Tracing.enabled () then
      Putil.Tracing.instant "clocks.calculus.result" ~cat:"clocks"
        ~args:
          [ ("vars", Putil.Tracing.Aint (Array.length st.var_doc));
            ("phi_nodes", Putil.Tracing.Aint (Bdd.size st.mgr st.phi)) ];
    st
  in
  Metrics.set m_signals (K.st_count st.tab);
  Metrics.set m_classes (Array.length st.reprs);
  st

let reset_cache () = Putil.Memo.clear memo

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let manager st = st.mgr
let context st = st.phi
let consistent st = not (Bdd.is_zero st.phi)

let class_of_exn st x = st.class_ids.(sig_index st x)

let clock_of st x =
  let c = class_of_exn st x in
  st.clocks.(c)

let same_class st a b = class_of_exn st a = class_of_exn st b

let class_count st =
  Array.length st.reprs

let class_reprs st =
  Array.to_list (Array.mapi (fun c r -> (c, st.names.(r))) st.reprs)

let clock_of_class_id st c = st.clocks.(c)

let class_id_of st x = class_of_exn st x

let var_kind st v =
  if v >= 0 && v < Array.length st.var_doc then Some st.var_doc.(v) else None

let representative st x =
  let c = class_of_exn st x in
  st.names.(st.reprs.(c))

(* Post-analysis queries decide emptiness against Φ with
   [Bdd.disjoint], which never builds the conjunction with Φ but still
   writes the shared manager's apply cache; [subclock] and [exclusive]
   also build the difference or conjunction of the two clocks. One
   memoized [t] is handed to every caller, concurrent pipeline sessions
   included, so [qmu] serializes that manager work; pure array reads
   (class ids, clocks, representatives) stay lock-free. *)
let with_query_lock st f = Mutex.protect st.qmu f

let is_null st x =
  with_query_lock st @@ fun () -> Bdd.disjoint st.mgr st.phi (clock_of st x)

let subclock st a b =
  with_query_lock st @@ fun () ->
  Bdd.disjoint st.mgr st.phi (Bdd.diff st.mgr (clock_of st a) (clock_of st b))

let exclusive st a b =
  with_query_lock st @@ fun () ->
  Bdd.disjoint st.mgr st.phi (Bdd.and_ st.mgr (clock_of st a) (clock_of st b))

let null_signals st =
  (* Nullness is a property of the synchronization class: test each
     class once against Φ instead of each signal (typically 3-4×
     fewer emptiness decisions). *)
  let null_class =
    with_query_lock st @@ fun () ->
    Array.map (Bdd.disjoint st.mgr st.phi) st.clocks
  in
  let n = K.st_count st.tab in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    if null_class.(st.class_ids.(i)) then acc := st.names.(i) :: !acc
  done;
  !acc

let conflicts st = List.rev st.confl

let pp_summary ppf st =
  Format.fprintf ppf "@[<v>clock calculus: %d signals, %d classes@,"
    (K.st_count st.tab) (class_count st);
  if not (consistent st) then
    Format.fprintf ppf "INCONSISTENT constraint system@,";
  List.iter (fun m -> Format.fprintf ppf "conflict: %s@," m) (conflicts st);
  (match null_signals st with
   | [] -> ()
   | l ->
     Format.fprintf ppf "null-clocked signals: %a@,"
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
          Format.pp_print_string)
       l);
  Format.fprintf ppf "@]"

(* ---- structured diagnostics ---- *)

let code_conflict =
  Putil.Diag.code "CLK-CONSTR-001" "contradictory clock constraint"
let code_inconsistent =
  Putil.Diag.code "CLK-CONSTR-002" "unsatisfiable clock constraint system"
let code_null =
  Putil.Diag.code "CLK-NULL-001" "signal with a provably empty clock"
