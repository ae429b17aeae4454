module K = Signal_lang.Kernel
module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Calc = Clocks.Calculus
module Bdd = Clocks.Bdd
module Metrics = Putil.Metrics
module Clock = Putil.Clock

let m_compilations = Metrics.counter "compile.compilations"
let m_plan_builds = Metrics.counter "compile.plan_builds"
let m_cache_hits = Metrics.counter "pipeline.cache_hits"
let m_compile_ns = Metrics.timer "compile.compile_ns"
let m_plan_ops = Metrics.gauge "compile.plan_ops"
let m_bdd_nodes = Metrics.gauge "compile.bdd_nodes"
let m_bdd_apply_calls = Metrics.gauge "compile.bdd_apply_calls"
let m_bdd_apply_hit_pct = Metrics.gauge "compile.bdd_apply_hit_pct"
let m_free_classes = Metrics.gauge "compile.free_classes"
let m_instants = Metrics.counter "compile.instants"
let m_shared_instants = Metrics.counter "compile.shared_instants"
let m_step_ns = Metrics.timer "compile.step_ns"
let m_codegen_bytes = Metrics.gauge "compile.codegen_bytes"

exception Comp_error of string

let errf fmt = Format.kasprintf (fun m -> raise (Comp_error m)) fmt

(* how a class's presence is decided *)
type pdef =
  | Pinput of int list             (* input signal indices in the class *)
  | Pprim of int * int             (* primitive index, output position *)
  | Pderived of int                (* walk the clock DAG from this root *)
  | Palias of int                  (* mirror another class's presence *)
  | Pfree                          (* default to absent *)

type op =
  | Opres of int
  | Oval of int

(* what a clock-DAG node tests, resolved from its BDD variable at plan
   time so the per-instant walk is pure array indexing *)
type varres =
  | Rpresent of int                (* class id *)
  | Rcond of int                   (* boolean signal index *)
  | Rcondeq of int * int           (* integer signal index, constant *)

(* node [k] of the clock DAG is the five cells [5k .. 5k+4]: kind
   (0 present, 1 cond, 2 condeq), operand, constant, hi, lo; one flat
   array, so the step walks it without allocating *)
type dag = int array

let dag_size d = Array.length d / 5

let dag_node d k =
  let b = 5 * k in
  let r =
    match d.(b) with
    | 0 -> Rpresent d.(b + 1)
    | 1 -> Rcond d.(b + 1)
    | _ -> Rcondeq (d.(b + 1), d.(b + 2))
  in
  (r, d.(b + 3), d.(b + 4))

(* Values live unboxed in structure-of-arrays slots: a small tag plus
   one payload cell per representation kind. Booleans and events share
   the int payload. *)
let tg_int = 0
let tg_bool = 1
let tg_event = 2
let tg_real = 3
let tg_string = 4

(* compiled atoms: constants are pre-split by representation *)
type catom =
  | CAvar of int
  | CAconst_i of int * int             (* tag (int/bool/event), payload *)
  | CAconst_r of float
  | CAconst_s of string

(* FIFO state as unboxed ring buffers, one stripe of [cap] cells per
   scenario (mirroring the ring layout the C backend emits) *)
type prim_st = {
  lp : Prog.lprim;
  cap : int;                       (* ring capacity, >= 1 *)
  q_ri : int array;                (* nscen * cap payload cells *)
  q_rr : float array;
  q_rs : string array;
  q_tg : int array;
  q_len : int array;               (* per scenario *)
  q_head : int array;              (* per scenario *)
}

(* The compiler is split in two: an immutable [plan] — everything that
   depends only on the kernel (lowered IR, presence definitions, the
   clock DAG, the topologically sorted op schedule compiled to
   closures), immutable arrays that keep no handle on the clock
   calculus — and a mutable instance
   [t] holding per-run state. Instance state is striped: scenario [s]
   of a [K]-scenario instance owns slots [s*n .. s*n+n-1] of every
   per-signal array (and [s*nclasses ..] of the presence array), and
   the compiled code addresses state only through [base_sig]/[base_cls],
   so one shared plan drives any number of scenarios in lockstep, and
   scenarios known to be in the same state share the work of an
   instant (see "Lockstep sharing" below).
   Plans are memoized on the kernel's structural digest and shared
   freely, including across domains: stepping an instance only reads
   the plan, so each worker of the parallel explorer instantiates its
   own [t] over the one shared plan. *)
type plan = {
  p_prog : Prog.t;                 (* shared lowered IR (same as Engine) *)
  p_class_of : int array;
  p_nclasses : int;
  p_pdefs : pdef array;
  p_dag : dag;                     (* every derived clock, shared *)
  p_plan : op array;
  p_ops : (t -> unit) array;       (* the schedule, compiled to closures *)
  p_n_free : int;                  (* statically free classes *)
  p_live : int array;              (* registers fed by a delay equation *)
  p_non_inputs : int array;        (* signals no stimulus writes *)
  p_input_clocks : (int * int) array;
      (* (input, DAG root): an input class whose clock the calculus
         derived, and that clock, checked against the stimulus *)
  p_header : Trace.header;         (* shared by every trace of the plan *)
}

and t = {
  pl : plan;
  (* plan fields, aliased for direct access on the hot path *)
  prog : Prog.t;
  class_of : int array;
  nclasses : int;
  ops : (t -> unit) array;
  (* instance-owned state *)
  n : int;                         (* signal count *)
  nscen : int;                     (* scenarios sharing this instance *)
  mutable scen : int;              (* currently selected scenario *)
  mutable base_sig : int;          (* = scen * n *)
  mutable base_cls : int;          (* = scen * nclasses *)
  (* per-instant SoA slots, scenario-striped *)
  ri : int array;
  rr : float array;
  rs : string array;
  tg : int array;
  has : bool array;                (* slot holds a value this instant *)
  stim_p : bool array;             (* input stimulated this instant *)
  pres : bool array;               (* per class, scenario-striped *)
  (* delay registers, scenario-striped, same slot layout *)
  di : int array;
  dr : float array;
  ds : string array;
  dtg : int array;
  prims : prim_st array;
  traces : Trace.t array;          (* one per scenario *)
  recorder : Trace.recorder;       (* the executing scenario's row *)
  (* lockstep sharing, per scenario *)
  leader : int array;              (* lowest scenario in the same state *)
  served : int array;              (* whose instant it took, this instant *)
  last_rows : Trace.row array;     (* last recorded row *)
  mutable instants : int;
  mutable recording : bool;
}

(* ------------------------------------------------------------------ *)
(* Unboxed slot operations                                             *)
(* ------------------------------------------------------------------ *)

let everrf st fmt =
  Format.kasprintf
    (fun m -> raise (Comp_error (Printf.sprintf "instant %d: %s" st.instants m)))
    fmt

let slot_value st j =
  match st.tg.(j) with
  | 0 -> Types.Vint st.ri.(j)
  | 1 -> if st.ri.(j) <> 0 then Types.Vbool true else Types.Vbool false
  | 2 -> Types.Vevent
  | 3 -> Types.Vreal st.rr.(j)
  | _ -> Types.Vstring st.rs.(j)

let set_slot_value st j v =
  (match v with
   | Types.Vint n -> st.tg.(j) <- tg_int; st.ri.(j) <- n
   | Types.Vbool b -> st.tg.(j) <- tg_bool; st.ri.(j) <- (if b then 1 else 0)
   | Types.Vevent -> st.tg.(j) <- tg_event; st.ri.(j) <- 1
   | Types.Vreal r -> st.tg.(j) <- tg_real; st.rr.(j) <- r
   | Types.Vstring s -> st.tg.(j) <- tg_string; st.rs.(j) <- s);
  st.has.(j) <- true

let set_i st j n = st.tg.(j) <- tg_int; st.ri.(j) <- n; st.has.(j) <- true
let set_b st j b =
  st.tg.(j) <- tg_bool; st.ri.(j) <- (if b then 1 else 0); st.has.(j) <- true
let set_e st j = st.tg.(j) <- tg_event; st.ri.(j) <- 1; st.has.(j) <- true
let set_r st j r = st.tg.(j) <- tg_real; st.rr.(j) <- r; st.has.(j) <- true

let copy_sig st dst src =
  let t = st.tg.(src) in
  st.tg.(dst) <- t;
  (match t with
   | 3 -> st.rr.(dst) <- st.rr.(src)
   | 4 -> st.rs.(dst) <- st.rs.(src)
   | _ -> st.ri.(dst) <- st.ri.(src));
  st.has.(dst) <- true

(* delay register <-> value slot (same index layout) *)
let copy_delay_to_sig st j =
  let t = st.dtg.(j) in
  st.tg.(j) <- t;
  (match t with
   | 3 -> st.rr.(j) <- st.dr.(j)
   | 4 -> st.rs.(j) <- st.ds.(j)
   | _ -> st.ri.(j) <- st.di.(j));
  st.has.(j) <- true

let copy_sig_to_delay st src dst =
  let t = st.tg.(src) in
  st.dtg.(dst) <- t;
  match t with
  | 3 -> st.dr.(dst) <- st.rr.(src)
  | 4 -> st.ds.(dst) <- st.rs.(src)
  | _ -> st.di.(dst) <- st.ri.(src)

let delay_boxed st j =
  match st.dtg.(j) with
  | 0 -> Types.Vint st.di.(j)
  | 1 -> if st.di.(j) <> 0 then Types.Vbool true else Types.Vbool false
  | 2 -> Types.Vevent
  | 3 -> Types.Vreal st.dr.(j)
  | _ -> Types.Vstring st.ds.(j)

let set_delay_slot st j v =
  match v with
  | Types.Vint n -> st.dtg.(j) <- tg_int; st.di.(j) <- n
  | Types.Vbool b -> st.dtg.(j) <- tg_bool; st.di.(j) <- (if b then 1 else 0)
  | Types.Vevent -> st.dtg.(j) <- tg_event; st.di.(j) <- 1
  | Types.Vreal r -> st.dtg.(j) <- tg_real; st.dr.(j) <- r
  | Types.Vstring s -> st.dtg.(j) <- tg_string; st.ds.(j) <- s

let slot_bool st j =
  match st.tg.(j) with
  | 1 -> st.ri.(j) <> 0
  | 2 -> true
  | _ ->
    everrf st "boolean operation on %s"
      (Types.value_to_string (slot_value st j))

(* ------------------------------------------------------------------ *)
(* Compiled atoms                                                      *)
(* ------------------------------------------------------------------ *)

let atom_check st = function
  | CAvar y ->
    if not st.has.(st.base_sig + y) then
      errf "instant %d: signal %s used before being computed"
        st.instants st.prog.Prog.names.(y)
  | CAconst_i _ | CAconst_r _ | CAconst_s _ -> ()

let atom_tag st = function
  | CAvar y -> st.tg.(st.base_sig + y)
  | CAconst_i (t, _) -> t
  | CAconst_r _ -> tg_real
  | CAconst_s _ -> tg_string

let atom_i st = function
  | CAvar y -> st.ri.(st.base_sig + y)
  | CAconst_i (_, n) -> n
  | CAconst_r _ | CAconst_s _ -> 0

let atom_r st = function
  | CAvar y -> st.rr.(st.base_sig + y)
  | CAconst_r r -> r
  | CAconst_i _ | CAconst_s _ -> 0.

let atom_s st = function
  | CAvar y -> st.rs.(st.base_sig + y)
  | CAconst_s s -> s
  | CAconst_i _ | CAconst_r _ -> ""

let atom_boxed st = function
  | CAvar y -> slot_value st (st.base_sig + y)
  | CAconst_i (t, n) ->
    if t = tg_int then Types.Vint n
    else if t = tg_bool then (if n <> 0 then Types.Vbool true else Types.Vbool false)
    else Types.Vevent
  | CAconst_r r -> Types.Vreal r
  | CAconst_s s -> Types.Vstring s

let atom_bool st a =
  match atom_tag st a with
  | 1 -> atom_i st a <> 0
  | 2 -> true
  | _ ->
    everrf st "boolean operation on %s" (Types.value_to_string (atom_boxed st a))

let copy_atom st dst a =
  match a with
  | CAvar y -> copy_sig st dst (st.base_sig + y)
  | CAconst_i (t, n) -> st.tg.(dst) <- t; st.ri.(dst) <- n; st.has.(dst) <- true
  | CAconst_r r -> set_r st dst r
  | CAconst_s s -> st.tg.(dst) <- tg_string; st.rs.(dst) <- s; st.has.(dst) <- true

(* mirrors Types.equal_value, including the event/bool cross case *)
let atom_equal st a b =
  let ta = atom_tag st a and tb = atom_tag st b in
  if ta = tg_event then
    (if tb = tg_event then true
     else if tb = tg_bool then atom_i st b <> 0
     else false)
  else if tb = tg_event then (if ta = tg_bool then atom_i st a <> 0 else false)
  else if ta <> tb then false
  else
    match ta with
    | 0 | 1 -> atom_i st a = atom_i st b
    | 3 -> atom_r st a = atom_r st b
    | _ -> String.equal (atom_s st a) (atom_s st b)

(* mirrors Eval.compare_num *)
let atom_cmp st a b =
  match atom_tag st a, atom_tag st b with
  | 0, 0 -> Int.compare (atom_i st a) (atom_i st b)
  | 3, 3 -> Float.compare (atom_r st a) (atom_r st b)
  | 4, 4 -> String.compare (atom_s st a) (atom_s st b)
  | _, _ ->
    everrf st "comparison of %s and %s"
      (Types.value_to_string (atom_boxed st a))
      (Types.value_to_string (atom_boxed st b))

(* mirrors Eval.eval_binop over unboxed slots (same error messages,
   same short-circuiting) *)
let exec_binop st dst bop a b =
  match bop with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
    match atom_tag st a, atom_tag st b with
    | 0, 0 ->
      let x = atom_i st a and y = atom_i st b in
      set_i st dst
        (match bop with
         | Ast.Add -> x + y
         | Ast.Sub -> x - y
         | Ast.Mul -> x * y
         | Ast.Div ->
           if y = 0 then everrf st "division by zero" else x / y
         | _ -> if y = 0 then everrf st "modulo by zero" else x mod y)
    | 3, 3 when bop <> Ast.Mod ->
      let x = atom_r st a and y = atom_r st b in
      set_r st dst
        (match bop with
         | Ast.Add -> x +. y
         | Ast.Sub -> x -. y
         | Ast.Mul -> x *. y
         | _ -> x /. y)
    | _, _ ->
      everrf st "arithmetic on %s and %s"
        (Types.value_to_string (atom_boxed st a))
        (Types.value_to_string (atom_boxed st b)))
  | Ast.And ->
    set_b st dst (if atom_bool st a then atom_bool st b else false)
  | Ast.Or -> set_b st dst (if atom_bool st a then true else atom_bool st b)
  | Ast.Xor -> set_b st dst (atom_bool st a <> atom_bool st b)
  | Ast.Eq -> set_b st dst (atom_equal st a b)
  | Ast.Neq -> set_b st dst (not (atom_equal st a b))
  | Ast.Lt -> set_b st dst (atom_cmp st a b < 0)
  | Ast.Le -> set_b st dst (atom_cmp st a b <= 0)
  | Ast.Gt -> set_b st dst (atom_cmp st a b > 0)
  | Ast.Ge -> set_b st dst (atom_cmp st a b >= 0)

let rec check_args_then_malformed st cargs k =
  if k < Array.length cargs then begin
    atom_check st cargs.(k);
    check_args_then_malformed st cargs (k + 1)
  end
  else everrf st "malformed kernel function application"

(* ------------------------------------------------------------------ *)
(* Clock evaluation                                                    *)
(* ------------------------------------------------------------------ *)

(* presence of the clock DAG rooted at [k]: one root-to-leaf path,
   no allocation *)
let rec walk st (d : dag) k =
  if k < 2 then k = 1
  else begin
    let b = 5 * k in
    let x = d.(b + 1) in
    let v =
      match d.(b) with
      | 0 -> st.pres.(st.base_cls + x)
      | 1 ->
        let j = st.base_sig + x in
        st.pres.(st.base_cls + st.class_of.(x))
        && st.has.(j) && slot_bool st j
      | _ ->
        let j = st.base_sig + x in
        st.pres.(st.base_cls + st.class_of.(x))
        && st.has.(j) && st.tg.(j) = tg_int && st.ri.(j) = d.(b + 2)
    in
    walk st d (if v then d.(b + 3) else d.(b + 4))
  end

(* ------------------------------------------------------------------ *)
(* FIFO ring buffers                                                   *)
(* ------------------------------------------------------------------ *)

let copy_queue_head st p dst =
  let s = st.scen in
  let idx = (s * p.cap) + p.q_head.(s) in
  let t = p.q_tg.(idx) in
  st.tg.(dst) <- t;
  (match t with
   | 3 -> st.rr.(dst) <- p.q_rr.(idx)
   | 4 -> st.rs.(dst) <- p.q_rs.(idx)
   | _ -> st.ri.(dst) <- p.q_ri.(idx));
  st.has.(dst) <- true

let qclear p s =
  p.q_len.(s) <- 0;
  p.q_head.(s) <- 0

let qpop p s =
  if p.q_len.(s) > 0 then begin
    p.q_head.(s) <- (p.q_head.(s) + 1) mod p.cap;
    p.q_len.(s) <- p.q_len.(s) - 1
  end

let qwrite_tail st p src =
  let s = st.scen in
  let idx = (s * p.cap) + ((p.q_head.(s) + p.q_len.(s)) mod p.cap) in
  let t = st.tg.(src) in
  p.q_tg.(idx) <- t;
  (match t with
   | 3 -> p.q_rr.(idx) <- st.rr.(src)
   | 4 -> p.q_rs.(idx) <- st.rs.(src)
   | _ -> p.q_ri.(idx) <- st.ri.(src));
  p.q_len.(s) <- p.q_len.(s) + 1

let qpush_bounded st p src =
  let s = st.scen in
  if p.q_len.(s) >= p.cap then begin
    match p.lp.Prog.lp_policy with
    | Prog.Drop_oldest ->
      qpop p s;
      qwrite_tail st p src
    | Prog.Drop_newest -> ()
    | Prog.Overflow_error ->
      errf "queue overflow on %s (Overflow_Handling_Protocol => Error)"
        p.lp.Prog.lp_ki.K.ki_label
  end
  else qwrite_tail st p src

let commit_prim st p =
  let s = st.scen in
  let ins = p.lp.Prog.lp_ins in
  match p.lp.Prog.lp_ki.K.ki_prim with
  | Stdproc.Pfifo | Stdproc.Pfifo_reset ->
    if Array.length ins = 3
       && st.pres.(st.base_cls + st.class_of.(ins.(2)))
    then qclear p s;
    if st.pres.(st.base_cls + st.class_of.(ins.(0))) then
      qpush_bounded st p (st.base_sig + ins.(0));
    if st.pres.(st.base_cls + st.class_of.(ins.(1))) then qpop p s
  | Stdproc.Pin_event_port ->
    if st.pres.(st.base_cls + st.class_of.(ins.(1))) then qclear p s;
    (* NOTE: the engine moves in_fifo to frozen_fifo; since [frozen]
       only ever exposes the head at Frozen_time, dropping the old
       frozen content and re-freezing is equivalent observably; the
       in_fifo is cleared after a freeze, matching Engine.commit. *)
    if st.pres.(st.base_cls + st.class_of.(ins.(0))) then
      qpush_bounded st p (st.base_sig + ins.(0))
  | Stdproc.Pout_event_port ->
    if st.pres.(st.base_cls + st.class_of.(ins.(0))) then
      qpush_bounded st p (st.base_sig + ins.(0));
    if st.pres.(st.base_cls + st.class_of.(ins.(1))) then qpop p s

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec stim_any st ms k =
  k < Array.length ms
  && (st.stim_p.(st.base_sig + ms.(k)) || stim_any st ms (k + 1))

let rec check_stim_agree st ms p k =
  if k < Array.length ms then begin
    let i = ms.(k) in
    if st.stim_p.(st.base_sig + i) <> p then
      errf "instant %d: synchronous inputs %s disagree on presence"
        st.instants st.prog.Prog.names.(i);
    check_stim_agree st ms p (k + 1)
  end

let check_computed st y =
  if not st.has.(st.base_sig + y) then
    errf "instant %d: signal %s used before being computed"
      st.instants st.prog.Prog.names.(y)

(* [0 .. n-1] in [String.compare] order of their decimal names: the
   preorder of the digit trie, each number before its extensions *)
let decimal_order n =
  let acc = ref [] in
  let rec visit x =
    if x < n then begin
      acc := x :: !acc;
      for d = 0 to 9 do visit ((10 * x) + d) done
    end
  in
  if n > 0 then acc := [ 0 ];
  for d = 1 to 9 do visit d done;
  Array.of_list (List.rev !acc)

let compile_impl ?digest kp =
  try
    let prog = Prog.of_kprocess kp in
    let calc = Calc.analyze ?digest kp in
    if not (Calc.consistent calc) then
      errf "clock constraint system is unsatisfiable";
    let nsignals = prog.Prog.n in
    let index x =
      match Prog.index_opt prog x with
      | Some i -> i
      | None -> errf "undeclared signal %s" x
    in
    let class_of =
      Array.init nsignals (fun i ->
          Calc.class_id_of calc prog.Prog.names.(i))
    in
    let nclasses = Calc.class_count calc in
    let clock_bdd =
      Array.init nclasses (fun c -> Calc.clock_of_class_id calc c)
    in
    let is_input = prog.Prog.is_input in
    let lprims = prog.Prog.prims in
    (* presence sources per class; [Pderived]'s root is set once the
       sources are settled *)
    let pdefs = Array.make nclasses Pfree in
    let mgr = Calc.manager calc in
    (* Every BDD read below walks the shared manager's node arrays; take
       the analysis query lock so concurrent sessions querying the same
       memoized calculus can't grow them under us. Nothing BDD leaves
       this section: the plan holds plain arrays. *)
    let supports, bddvars, dag, input_clocks =
      Calc.with_query_lock calc @@ fun () ->
      let supports = Array.map (Bdd.support mgr) clock_bdd in
      Array.iteri
        (fun c support ->
          let refers_self =
            List.exists
              (fun v ->
                match Calc.var_kind calc v with
                | Some (`Present c') -> c' = c
                | _ -> false)
              support
          in
          pdefs.(c) <- (if refers_self then Pfree else Pderived 0))
        supports;
      (* stateful primitive outputs override *)
      let stateful_outs lp =
        match lp.Prog.lp_ki.K.ki_prim with
        | Stdproc.Pfifo | Stdproc.Pfifo_reset -> [ 0 ]       (* data *)
        | Stdproc.Pin_event_port -> [ 0 ]                     (* frozen *)
        | Stdproc.Pout_event_port -> [ 0 ]                    (* sent *)
      in
      Array.iteri
        (fun pi lp ->
          List.iter
            (fun pos ->
              pdefs.(class_of.(lp.Prog.lp_outs.(pos))) <- Pprim (pi, pos))
            (stateful_outs lp))
        lprims;
      (* input classes *)
      let derived_inputs = ref [] in
      for i = 0 to nsignals - 1 do
        if is_input.(i) then begin
          let c = class_of.(i) in
          match pdefs.(c) with
          | Pinput members -> pdefs.(c) <- Pinput (i :: members)
          | Pfree -> pdefs.(c) <- Pinput [ i ]
          | Pderived _ ->
            (* an input whose presence is derived from other clocks: the
               stimulus decides it, and each instant checks the stimulus
               against the derivation *)
            derived_inputs := i :: !derived_inputs;
            pdefs.(c) <- Pinput [ i ]
          | Palias _ -> assert false           (* not assigned yet *)
          | Pprim _ ->
            errf "input %s is synchronized with a FIFO-driven clock"
              prog.Prog.names.(i)
        end
      done;
      (* A free presence variable pinned absent is only sound while
         nothing observable forces it true. When the calculus solved an
         observable class's clock as exactly that variable — the
         hierarchy picked the free class as representative, so an input
         (or FIFO-driven) class [c] has clock_bdd = Present c' with c'
         free — the stimulus deciding [c] decides [c'] too: mirror it
         instead of pinning it. *)
      for c = 0 to nclasses - 1 do
        match pdefs.(c) with
        | Pinput _ | Pprim _ -> (
          match Bdd.view mgr clock_bdd.(c) with
          | `Node (v, lo, hi)
            when Bdd.view mgr lo = `Leaf false
                 && Bdd.view mgr hi = `Leaf true -> (
            match Calc.var_kind calc v with
            | Some (`Present c') when c' <> c && pdefs.(c') = Pfree ->
              pdefs.(c') <- Palias c
            | _ -> ())
          | _ -> ())
        | Pderived _ | Pfree | Palias _ -> ()
      done;
      (* resolve every bdd variable appearing in a clock function once,
         so lowering never consults a name table; a variable the
         calculus does not name reads false *)
      let max_var = Array.fold_left (List.fold_left max) (-1) supports in
      let bddvars = Array.make (max_var + 1) None in
      Array.iter
        (List.iter (fun v ->
             match Calc.var_kind calc v with
             | Some (`Present c) -> bddvars.(v) <- Some (Rpresent c)
             | Some (`Cond bsig) -> bddvars.(v) <- Some (Rcond (index bsig))
             | Some (`CondEq (x, k)) ->
               bddvars.(v) <- Some (Rcondeq (index x, k))
             | None -> ()))
        supports;
      (* lower the derived clocks into the shared DAG: children first,
         depth first, one node per BDD node (memoized on its id) *)
      let leaf = [| 0; 0; 0; 0; 0 |] in
      let nodes = ref [ leaf; leaf ] and next = ref 2 in
      let node r hi lo =
        let kind, x, k =
          match r with
          | Rpresent c -> (0, c, 0)
          | Rcond x -> (1, x, 0)
          | Rcondeq (x, k) -> (2, x, k)
        in
        nodes := [| kind; x; k; hi; lo |] :: !nodes;
        incr next;
        !next - 1
      in
      let memo = Hashtbl.create 256 in
      let rec lower b =
        match Bdd.view mgr b with
        | `Leaf l -> if l then 1 else 0
        | `Node (v, lo, hi) -> (
          match Hashtbl.find_opt memo (Bdd.id b) with
          | Some k -> k
          | None ->
            let k =
              match bddvars.(v) with
              | None -> lower lo
              | Some r ->
                let h = lower hi in
                let l = lower lo in
                node r h l
            in
            Hashtbl.add memo (Bdd.id b) k;
            k)
      in
      Array.iteri
        (fun c -> function
          | Pderived _ -> pdefs.(c) <- Pderived (lower clock_bdd.(c))
          | Pinput _ | Pprim _ | Palias _ | Pfree -> ())
        pdefs;
      let input_clocks =
        Array.of_list
          (List.rev_map
             (fun i -> (i, lower clock_bdd.(class_of.(i))))
             !derived_inputs)
      in
      (supports, bddvars, Array.concat (List.rev !nodes), input_clocks)
    in
    Metrics.set m_bdd_nodes (Bdd.node_count mgr);
    let calls, hits = Bdd.apply_stats mgr in
    Metrics.set m_bdd_apply_calls calls;
    Metrics.set m_bdd_apply_hit_pct
      (if calls = 0 then 0 else 100 * hits / calls);
    let n_free =
      Array.fold_left
        (fun acc p -> match p with Pfree -> acc + 1 | _ -> acc)
        0 pdefs
    in
    (* dependency graph over presence nodes [c] and value nodes
       [nclasses + i], ordered as the names "P<c>" and "V<i>" sort:
       that order fixes the plan, the generated C and the cycle
       reported below *)
    let g =
      Analysis.Digraph.Indexed.create
        ~order:
          (Array.append (decimal_order nclasses)
             (Array.map (( + ) nclasses) (decimal_order nsignals)))
    in
    let pnode c = c and vnode i = nclasses + i in
    let edge = Analysis.Digraph.Indexed.add_edge g in
    for i = 0 to nsignals - 1 do
      (* a value needs its class presence *)
      edge (pnode class_of.(i)) (vnode i)
    done;
    for c = 0 to nclasses - 1 do
      match pdefs.(c) with
      | Pfree -> ()
      | Pinput _ -> ()
      | Palias src -> edge (pnode src) (pnode c)
      | Pprim (pi, _) ->
        Array.iter
          (fun i -> edge (pnode class_of.(i)) (pnode c))
          lprims.(pi).Prog.lp_ins
      | Pderived _ ->
        List.iter
          (fun v ->
            match bddvars.(v) with
            | Some (Rpresent c') -> if c' <> c then edge (pnode c') (pnode c)
            | Some (Rcond bi | Rcondeq (bi, _)) ->
              edge (vnode bi) (pnode c);
              edge (pnode class_of.(bi)) (pnode c)
            | None -> ())
          supports.(c)
    done;
    let dep_atom dst = function
      | Prog.Avar y -> edge (vnode y) (vnode dst)
      | Prog.Aconst _ -> ()
    in
    for i = 0 to nsignals - 1 do
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone | Prog.Vdelay -> ()
      | Prog.Vfunc (_, args) -> Array.iter (dep_atom i) args
      | Prog.Vwhen src -> dep_atom i src
      | Prog.Vdefault (l, r) ->
        dep_atom i l;
        dep_atom i r;
        (match l with
         | Prog.Avar y -> edge (pnode class_of.(y)) (vnode i)
         | Prog.Aconst _ -> ());
        (match r with
         | Prog.Avar y -> edge (pnode class_of.(y)) (vnode i)
         | Prog.Aconst _ -> ())
      | Prog.Vprim (pi, _) ->
        Array.iter
          (fun j ->
            edge (vnode j) (vnode i);
            edge (pnode class_of.(j)) (vnode i))
          lprims.(pi).Prog.lp_ins
    done;
    let node_name k =
      if k < nclasses then "P" ^ string_of_int k
      else "V" ^ string_of_int (k - nclasses)
    in
    let order =
      match Analysis.Digraph.Indexed.topological_sort g with
      | Ok order -> order
      | Error cycle ->
        errf "causality cycle prevents compilation: %s"
          (String.concat " -> " (List.map node_name cycle))
    in
    let plan =
      Array.of_list
        (List.map
           (fun k -> if k < nclasses then Opres k else Oval (k - nclasses))
           order)
    in
    (* ---- compile the schedule to closures over the SoA state ---- *)
    let names = prog.Prog.names in
    let catom = function
      | Prog.Avar y -> CAvar y
      | Prog.Aconst v -> (
        match v with
        | Types.Vint n -> CAconst_i (tg_int, n)
        | Types.Vbool b -> CAconst_i (tg_bool, if b then 1 else 0)
        | Types.Vevent -> CAconst_i (tg_event, 1)
        | Types.Vreal r -> CAconst_r r
        | Types.Vstring s -> CAconst_s s)
    in
    let compile_prim_pres c pi pos =
      let lp = lprims.(pi) in
      let ins = lp.Prog.lp_ins in
      match lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        fun st ->
          let p = st.prims.(pi) in
          let reset_p = has_reset && st.pres.(st.base_cls + c2) in
          let push_p = st.pres.(st.base_cls + c0) in
          let pop_p = st.pres.(st.base_cls + c1) in
          let qlen0 = if reset_p then 0 else p.q_len.(st.scen) in
          st.pres.(st.base_cls + c) <-
            pop_p && qlen0 + (if push_p then 1 else 0) > 0
      | Stdproc.Pin_event_port, 0 ->
        let c1 = class_of.(ins.(1)) in
        fun st ->
          let p = st.prims.(pi) in
          st.pres.(st.base_cls + c) <-
            st.pres.(st.base_cls + c1) && p.q_len.(st.scen) > 0
      | Stdproc.Pout_event_port, 0 ->
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        fun st ->
          let p = st.prims.(pi) in
          st.pres.(st.base_cls + c) <-
            st.pres.(st.base_cls + c1)
            && (st.pres.(st.base_cls + c0) || p.q_len.(st.scen) > 0)
      | _, _ -> fun _ -> assert false
    in
    let compile_pres c =
      match pdefs.(c) with
      | Pfree -> (fun st -> st.pres.(st.base_cls + c) <- false)
      | Palias src ->
        fun st -> st.pres.(st.base_cls + c) <- st.pres.(st.base_cls + src)
      | Pinput members ->
        let ms = Array.of_list members in
        fun st ->
          let p = stim_any st ms 0 in
          check_stim_agree st ms p 0;
          st.pres.(st.base_cls + c) <- p
      | Pprim (pi, pos) -> compile_prim_pres c pi pos
      | Pderived root ->
        if root < 2 then fun st -> st.pres.(st.base_cls + c) <- root = 1
        else fun st -> st.pres.(st.base_cls + c) <- walk st dag root
    in
    let compile_func i c op args =
      let cargs = Array.map catom args in
      match op, Array.length args with
      | K.Pid, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            copy_atom st (st.base_sig + i) a
          end
      | K.Pclock, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            set_e st (st.base_sig + i)
          end
      | K.Punop Ast.Not, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            set_b st (st.base_sig + i) (not (atom_bool st a))
          end
      | K.Punop Ast.Neg, 1 ->
        let a = cargs.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            match atom_tag st a with
            | 0 -> set_i st (st.base_sig + i) (-atom_i st a)
            | 3 -> set_r st (st.base_sig + i) (-.atom_r st a)
            | _ -> everrf st "malformed kernel function application"
          end
      | K.Pif, 3 ->
        let a = cargs.(0) and bt = cargs.(1) and bf = cargs.(2) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            atom_check st bt;
            atom_check st bf;
            copy_atom st (st.base_sig + i) (if atom_bool st a then bt else bf)
          end
      | K.Pbinop bop, 2 ->
        let a = cargs.(0) and b = cargs.(1) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            atom_check st b;
            exec_binop st (st.base_sig + i) bop a b
          end
      | (K.Punop _ | K.Pbinop _ | K.Pif | K.Pid | K.Pclock), _ ->
        fun st ->
          if st.pres.(st.base_cls + c) then
            check_args_then_malformed st cargs 0
    in
    let compile_prim_val i c pi pos =
      let lp = lprims.(pi) in
      let ins = lp.Prog.lp_ins in
      match lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        let in0 = ins.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            let p = st.prims.(pi) in
            let reset_p = has_reset && st.pres.(st.base_cls + c2) in
            let qlen0 = if reset_p then 0 else p.q_len.(st.scen) in
            if qlen0 > 0 then copy_queue_head st p (st.base_sig + i)
            else begin
              check_computed st in0;
              copy_sig st (st.base_sig + i) (st.base_sig + in0)
            end
          end
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 1 ->
        let has_reset = Array.length ins = 3 in
        let c0 = class_of.(ins.(0)) and c1 = class_of.(ins.(1)) in
        let c2 = if has_reset then class_of.(ins.(2)) else 0 in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            let p = st.prims.(pi) in
            let reset_p = has_reset && st.pres.(st.base_cls + c2) in
            let push_p = st.pres.(st.base_cls + c0) in
            let pop_p = st.pres.(st.base_cls + c1) in
            let qlen0 = if reset_p then 0 else p.q_len.(st.scen) in
            let n1 =
              if push_p then (
                let m = qlen0 + 1 in
                if m < p.cap then m else p.cap)
              else qlen0
            in
            set_i st (st.base_sig + i)
              (if pop_p && n1 > 0 then n1 - 1 else n1)
          end
      | Stdproc.Pin_event_port, 0 ->
        fun st ->
          if st.pres.(st.base_cls + c) then
            copy_queue_head st st.prims.(pi) (st.base_sig + i)
      | Stdproc.Pin_event_port, 1 ->
        fun st ->
          if st.pres.(st.base_cls + c) then
            set_i st (st.base_sig + i) st.prims.(pi).q_len.(st.scen)
      | Stdproc.Pout_event_port, 0 ->
        let in0 = ins.(0) in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            let p = st.prims.(pi) in
            if p.q_len.(st.scen) = 0 then begin
              check_computed st in0;
              copy_sig st (st.base_sig + i) (st.base_sig + in0)
            end
            else copy_queue_head st p (st.base_sig + i)
          end
      | _, _ -> fun _ -> assert false
    in
    let compile_val i =
      let c = class_of.(i) in
      match prog.Prog.vdefs.(i) with
      | Prog.Vnone ->
        fun st ->
          if st.pres.(st.base_cls + c) && not st.has.(st.base_sig + i) then
            errf "instant %d: present signal %s has no value (missing input?)"
              st.instants names.(i)
      | Prog.Vfunc (op, args) -> compile_func i c op args
      | Prog.Vdelay ->
        fun st ->
          if st.pres.(st.base_cls + c) then
            copy_delay_to_sig st (st.base_sig + i)
      | Prog.Vwhen src ->
        let a = catom src in
        fun st ->
          if st.pres.(st.base_cls + c) then begin
            atom_check st a;
            copy_atom st (st.base_sig + i) a
          end
      | Prog.Vdefault (l, r) -> (
        match l with
        | Prog.Aconst _ ->
          let cl = catom l in
          fun st ->
            if st.pres.(st.base_cls + c) then
              copy_atom st (st.base_sig + i) cl
        | Prog.Avar y -> (
          let cy = class_of.(y) in
          match r with
          | Prog.Aconst _ ->
            let cr = catom r in
            fun st ->
              if st.pres.(st.base_cls + c) then
                if st.pres.(st.base_cls + cy) then begin
                  check_computed st y;
                  copy_sig st (st.base_sig + i) (st.base_sig + y)
                end
                else copy_atom st (st.base_sig + i) cr
          | Prog.Avar z ->
            let cz = class_of.(z) in
            fun st ->
              if st.pres.(st.base_cls + c) then
                if st.pres.(st.base_cls + cy) then begin
                  check_computed st y;
                  copy_sig st (st.base_sig + i) (st.base_sig + y)
                end
                else if st.pres.(st.base_cls + cz) then begin
                  check_computed st z;
                  copy_sig st (st.base_sig + i) (st.base_sig + z)
                end
                else
                  errf "instant %d: merge %s present with both branches absent"
                    st.instants names.(i)))
      | Prog.Vprim (pi, pos) -> compile_prim_val i c pi pos
    in
    let ops =
      Array.map
        (function Opres c -> compile_pres c | Oval i -> compile_val i)
        plan
    in
    let signals_where p =
      Array.of_list (List.filter p (List.init nsignals Fun.id))
    in
    Ok
      { p_prog = prog; p_class_of = class_of; p_nclasses = nclasses;
        p_pdefs = pdefs; p_dag = dag; p_plan = plan; p_ops = ops;
        p_n_free = n_free;
        p_live = signals_where (fun i -> prog.Prog.delay_src.(i) >= 0);
        p_non_inputs = signals_where (fun i -> not prog.Prog.is_input.(i));
        p_input_clocks = input_clocks;
        p_header = Trace.header (Prog.decls prog) }
  with
  | Comp_error m -> Error m
  | Prog.Lower_error m -> Error m
  | Invalid_argument m -> Error m

(* a fresh mutable instance over a (possibly shared) plan *)
let instantiate ?(scenarios = 1) pl =
  let prog = pl.p_prog in
  let n = prog.Prog.n in
  let k = scenarios in
  let nc = pl.p_nclasses in
  let st =
    { pl;
      prog;
      class_of = pl.p_class_of;
      nclasses = nc;
      ops = pl.p_ops;
      n;
      nscen = k;
      scen = 0;
      base_sig = 0;
      base_cls = 0;
      ri = Array.make (k * n) 0;
      rr = Array.make (k * n) 0.;
      rs = Array.make (k * n) "";
      tg = Array.make (k * n) 0;
      has = Array.make (k * n) false;
      stim_p = Array.make (k * n) false;
      pres = Array.make (k * nc) false;
      di = Array.make (k * n) 0;
      dr = Array.make (k * n) 0.;
      ds = Array.make (k * n) "";
      dtg = Array.make (k * n) 0;
      prims =
        Array.map
          (fun lp ->
            let cap = max 1 lp.Prog.lp_capacity in
            { lp; cap;
              q_ri = Array.make (k * cap) 0;
              q_rr = Array.make (k * cap) 0.;
              q_rs = Array.make (k * cap) "";
              q_tg = Array.make (k * cap) 0;
              q_len = Array.make k 0;
              q_head = Array.make k 0 })
          prog.Prog.prims;
      traces = Array.init k (fun _ -> Trace.of_header pl.p_header);
      recorder = Trace.recorder pl.p_header;
      (* every stripe starts from the same initial state *)
      leader = Array.make k 0;
      served = Array.init k Fun.id;
      last_rows = Array.make k Trace.empty_row;
      instants = 0;
      recording = true }
  in
  for s = 0 to k - 1 do
    for i = 0 to n - 1 do
      set_delay_slot st ((s * n) + i) prog.Prog.delay_init.(i)
    done
  done;
  st

(* Plans are memoized on the kernel digest (compile errors too — they
   are just as deterministic). The memo holds its lock across a build,
   so two domains never build one plan twice; cold builds are
   serialized, which is irrelevant next to their cost being paid
   once. *)
let plan_memo : (plan, string) result Putil.Memo.t =
  Putil.Memo.create ~stage:"pipeline" Putil.Memo.Cache ~cap:256 ~store:None

(* every plan build, memoized or not: one [compile.plan] span, timed
   into [compile_ns], with the plan gauges recorded on success *)
let build_plan ?digest kp =
  Metrics.incr m_plan_builds;
  let r =
    Putil.Tracing.with_span "compile.plan"
      ~args:[ ("signals", Putil.Tracing.Aint (K.signal_count kp)) ]
    @@ fun () ->
    Metrics.time m_compile_ns (fun () -> compile_impl ?digest kp)
  in
  (match r with
   | Ok pl ->
     Metrics.set m_plan_ops (Array.length pl.p_plan);
     Metrics.set m_free_classes pl.p_n_free
   | Error _ -> ());
  r

let plan_of_digest ?digest kp =
  let dg = match digest with Some d -> d | None -> K.digest kp in
  Putil.Memo.get plan_memo ~name:dg ~key:dg @@ fun () ->
  build_plan ~digest:dg kp

(* Physical-equality fast path over the digest memo: re-instantiating
   the same in-memory kernel (the common case in batched and
   multi-scenario runs) skips the Marshal-based digest entirely. *)
let plan_last : (K.kprocess * (plan, string) result) option Atomic.t =
  Atomic.make None

let plan_of ?digest kp =
  match Atomic.get plan_last with
  | Some (kp0, r) when kp0 == kp -> Metrics.incr m_cache_hits; r
  | _ ->
    let r = plan_of_digest ?digest kp in
    Atomic.set plan_last (Some (kp, r));
    r

let compile ?digest kp =
  Metrics.incr m_compilations;
  Result.map (fun pl -> instantiate pl) (plan_of ?digest kp)

(* A K-scenario instance holds K x signals slots in each of its ten
   per-signal arrays (about 80 bytes a slot), before any trace. *)
let max_scenario_slots = 1 lsl 20

let check_scenarios kp scenarios =
  let n =
    List.length kp.K.kinputs + List.length kp.K.koutputs
    + List.length kp.K.klocals
  in
  if scenarios < 1 then
    Error (Printf.sprintf "scenarios must be >= 1, got %d" scenarios)
  else if scenarios > max_scenario_slots / max 1 n then
    Error
      (Printf.sprintf
         "%d scenarios of %d signals exceed the limit of %d scenario \
          slots (at most %d scenarios)"
         scenarios n max_scenario_slots (max_scenario_slots / max 1 n))
  else Ok ()

let compile_scenarios ?digest kp ~scenarios =
  Result.bind (check_scenarios kp scenarios) @@ fun () ->
  Metrics.incr m_compilations;
  Result.map (fun pl -> instantiate ~scenarios pl) (plan_of ?digest kp)

let compile_uncached kp =
  Metrics.incr m_compilations;
  Result.map (fun pl -> instantiate pl) (build_plan kp)

let fork st = instantiate ~scenarios:st.nscen st.pl

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let select_scenario st s =
  st.scen <- s;
  st.base_sig <- s * st.n;
  st.base_cls <- s * st.nclasses

let scenarios st = st.nscen
let n_signals st = st.n
let signal_index st x = Prog.index_opt st.prog x
let signal_name st i = st.prog.Prog.names.(i)
let is_input st i = st.prog.Prog.is_input.(i)

(* only the inputs' slots: a stimulus writes nothing else, and the
   other slots are reset by [exec_instant], so an instant a scenario
   shares costs its inputs, not its signals *)
let stim_clear st =
  let inputs = st.prog.Prog.inputs in
  for k = 0 to Array.length inputs - 1 do
    let j = st.base_sig + inputs.(k) in
    st.has.(j) <- false;
    st.stim_p.(j) <- false
  done

let set_stim st i v =
  if i < 0 || i >= st.n then errf "stimulus index %d out of range" i;
  if not st.prog.Prog.is_input.(i) then
    errf "stimulus for non-input signal %s" st.prog.Prog.names.(i);
  let j = st.base_sig + i in
  st.stim_p.(j) <- true;
  set_slot_value st j v

let set_stim_named st x v =
  match Prog.index_opt st.prog x with
  | Some i -> set_stim st i v
  | None -> errf "stimulus for unknown signal %s" x

(* one instant for the selected scenario; stimulus must already be in
   the stim buffer. Allocation-free in steady state when recording is
   off (and when on, allocates only the trace row: its keys, its int
   payloads, and the values of its reals and strings). *)
let exec_instant st =
  let b = st.base_sig in
  (* [stim_clear] and the fill set the inputs' slots; the others may
     still hold an instant this scenario shared, not executed *)
  let non_inputs = st.pl.p_non_inputs in
  for k = 0 to Array.length non_inputs - 1 do
    st.has.(b + non_inputs.(k)) <- false
  done;
  Array.fill st.pres st.base_cls st.nclasses false;
  let ops = st.ops in
  for k = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops k) st
  done;
  let class_of = st.class_of in
  (* an input class with a derived clock took its presence from the
     stimulus; now that every operand of the clock is decided, the two
     must agree *)
  let checks = st.pl.p_input_clocks in
  for k = 0 to Array.length checks - 1 do
    let i, root = checks.(k) in
    let p = st.pres.(st.base_cls + class_of.(i)) in
    if p <> walk st st.pl.p_dag root then
      errf "instant %d: input %s %s against its derived clock" st.instants
        st.prog.Prog.names.(i) (if p then "present" else "absent")
  done;
  (* one pass: every present signal has a value, and is recorded *)
  let recording = st.recording and r = st.recorder in
  let pres = st.pres and bc = st.base_cls and has = st.has in
  let tg = st.tg and ri = st.ri in
  Trace.clear r;
  for i = 0 to st.n - 1 do
    if pres.(bc + class_of.(i)) then begin
      let j = b + i in
      if not has.(j) then
        errf "instant %d: signal %s present without a value" st.instants
          st.prog.Prog.names.(i);
      if recording then
        match tg.(j) with
        | 0 -> Trace.record_int r i ri.(j)
        | 1 -> Trace.record_bool r i (ri.(j) <> 0)
        | 2 -> Trace.record_event r i
        | _ -> Trace.record r i (slot_value st j)
    end
  done;
  if recording then begin
    let row = Trace.take r in
    Trace.push_row st.traces.(st.scen) row;
    st.last_rows.(st.scen) <- row
  end;
  (* commit: delays then queues *)
  let delay_src = st.prog.Prog.delay_src and live = st.pl.p_live in
  for k = 0 to Array.length live - 1 do
    let i = live.(k) in
    let src = delay_src.(i) in
    if pres.(bc + class_of.(src)) then copy_sig_to_delay st (b + src) (b + i)
  done;
  let prims = st.prims in
  for k = 0 to Array.length prims - 1 do
    commit_prim st prims.(k)
  done;
  Metrics.incr m_instants

let rec present_assoc_from st b i =
  if i >= st.n then []
  else if st.pres.(st.base_cls + st.class_of.(i)) then
    (st.prog.Prog.names.(i), slot_value st (b + i))
    :: present_assoc_from st b (i + 1)
  else present_assoc_from st b (i + 1)

let present_assoc st = present_assoc_from st st.base_sig 0

let out_present st i = st.pres.(st.base_cls + st.class_of.(i))

let out_value st i =
  let j = st.base_sig + i in
  if st.pres.(st.base_cls + st.class_of.(i)) && st.has.(j) then
    Some (slot_value st j)
  else None

let iter_present st f =
  let b = st.base_sig in
  for i = 0 to st.n - 1 do
    if st.pres.(st.base_cls + st.class_of.(i)) then
      f i (slot_value st (b + i))
  done

(* ------------------------------------------------------------------ *)
(* Lockstep sharing                                                    *)
(* ------------------------------------------------------------------ *)

(* Scenarios of a sweep often reach the same state: an event queued on
   an in event port carries no arrival time, so scenarios that differ
   only in when an arrival happened converge a few ticks later. The
   live state is the delay registers fed by a delay equation plus the
   queued FIFO cells; an instant is a function of the live state and
   the stimulus alone. Between instants, [leader.(s)] is the lowest
   scenario whose live state is known to equal [s]'s ([s] itself if
   none). Within an instant, [served.(s)] is the scenario whose
   post-instant state [s] copied, or [s] if [s] executed. Every stripe
   always holds its true state: sharing only decides who computes it,
   so snapshots, state keys and traces need no materialization.
   Comparisons are exact: tags, ints and strings directly, floats by
   bit pattern, queues by length and cells in logical order.
   The state is the delay registers and the queues, nothing else. The
   per-instant slots of a scenario (values, [has], [pres]) are written
   only when it executes, so after an instant it shared they still
   hold an older instant; [stim_clear] resets the inputs' slots and
   [exec_instant] the others, so a shared instant costs the inputs
   and the state comparison, not the signals. *)

let cell_equal (tg : int array) (ri : int array) (rr : float array)
    (rs : string array) ja jb =
  let t = tg.(ja) in
  t = tg.(jb)
  &&
  match t with
  | 3 -> Int64.equal (Int64.bits_of_float rr.(ja)) (Int64.bits_of_float rr.(jb))
  | 4 -> String.equal rs.(ja) rs.(jb)
  | _ -> ri.(ja) = ri.(jb)

let cell_copy (tg : int array) (ri : int array) (rr : float array)
    (rs : string array) ~src ~dst =
  let t = tg.(src) in
  tg.(dst) <- t;
  match t with
  | 3 -> rr.(dst) <- rr.(src)
  | 4 -> rs.(dst) <- rs.(src)
  | _ -> ri.(dst) <- ri.(src)

(* the freshly filled stimuli of scenarios [a] and [b] coincide *)
let same_stim st a b =
  let inputs = st.prog.Prog.inputs in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length inputs do
    let ja = (a * st.n) + inputs.(!k) and jb = (b * st.n) + inputs.(!k) in
    let p = st.stim_p.(ja) in
    ok :=
      p = st.stim_p.(jb)
      && ((not p) || cell_equal st.tg st.ri st.rr st.rs ja jb);
    incr k
  done;
  !ok

let queue_equal p a b =
  let len = p.q_len.(a) in
  let ok = ref (len = p.q_len.(b)) and k = ref 0 in
  while !ok && !k < len do
    ok :=
      cell_equal p.q_tg p.q_ri p.q_rr p.q_rs
        ((a * p.cap) + ((p.q_head.(a) + !k) mod p.cap))
        ((b * p.cap) + ((p.q_head.(b) + !k) mod p.cap));
    incr k
  done;
  !ok

let same_state st a b =
  let live = st.pl.p_live in
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length live do
    ok :=
      cell_equal st.dtg st.di st.dr st.ds
        ((a * st.n) + live.(!k)) ((b * st.n) + live.(!k));
    incr k
  done;
  k := 0;
  while !ok && !k < Array.length st.prims do
    ok := queue_equal st.prims.(!k) a b;
    incr k
  done;
  !ok

let copy_state st ~src ~dst =
  let live = st.pl.p_live in
  for k = 0 to Array.length live - 1 do
    cell_copy st.dtg st.di st.dr st.ds ~src:((src * st.n) + live.(k))
      ~dst:((dst * st.n) + live.(k))
  done;
  for q = 0 to Array.length st.prims - 1 do
    let p = st.prims.(q) in
    let len = p.q_len.(src) and head = p.q_head.(src) in
    p.q_len.(dst) <- len;
    p.q_head.(dst) <- head;
    for k = 0 to len - 1 do
      let idx = (head + k) mod p.cap in
      cell_copy p.q_tg p.q_ri p.q_rr p.q_rs ~src:((src * p.cap) + idx)
        ~dst:((dst * p.cap) + idx)
    done
  done

(* nothing is known to be shared, e.g. after [restore] or an error *)
let reset_sharing st =
  for s = 0 to st.nscen - 1 do
    st.leader.(s) <- s
  done

(* the instant of selected scenario [s], whose stimulus is filled: if
   an earlier scenario of its pre-instant class executed this instant
   on the same stimulus, take that scenario's post-instant state and
   row instead of executing. Returns whether [s] shared. *)
let share_or_exec st s =
  let l = st.leader.(s) in
  let r = ref l in
  while
    !r < s
    && not (st.served.(!r) = !r && st.leader.(!r) = l && same_stim st !r s)
  do
    incr r
  done;
  if !r < s then begin
    copy_state st ~src:!r ~dst:s;
    if st.recording then Trace.push_row st.traces.(s) st.last_rows.(!r);
    st.served.(s) <- !r;
    true
  end
  else begin
    st.served.(s) <- s;
    exec_instant st;
    false
  end

(* after an instant: a scenario that shared joins its server's class;
   one that executed joins the first earlier class whose state it
   equals *)
let merge_classes st =
  for s = 0 to st.nscen - 1 do
    let r = st.served.(s) in
    if r <> s then st.leader.(s) <- st.leader.(r)
    else begin
      let o = ref 0 in
      while !o < s && not (st.leader.(!o) = !o && same_state st !o s) do
        incr o
      done;
      st.leader.(s) <- !o
    end
  done

(* The one stepping core: [n] lockstep instants of scenarios
   [0 .. k-1]; [fill st t s] sets scenario [s]'s stimulus for relative
   instant [t] into the freshly cleared buffer. With [k > 1], scenarios
   share instants (above). A stimulus or step error ends the call as
   [Error]; every exit leaves scenario 0 selected, so the dense
   accessors read scenario 0 after any call (scenario 0 always
   executes). *)
let step_core st ~n ~k fill =
  let t0 = Clock.now_ns () in
  (* stepping only some scenarios leaves the others behind *)
  if k < st.nscen then reset_sharing st;
  let shared = ref 0 in
  let r =
    try
      for t = 0 to n - 1 do
        for s = 0 to k - 1 do
          select_scenario st s;
          stim_clear st;
          fill st t s;
          if k = 1 then exec_instant st
          else if share_or_exec st s then incr shared
        done;
        if k > 1 then merge_classes st;
        st.instants <- st.instants + 1
      done;
      Ok ()
    with
    | Comp_error m -> reset_sharing st; Error m
    | e -> reset_sharing st; raise e
  in
  if !shared > 0 then begin
    Metrics.incr ~by:!shared m_instants;
    Metrics.incr ~by:!shared m_shared_instants
  end;
  select_scenario st 0;
  Metrics.add_span_ns m_step_ns (Clock.now_ns () - t0);
  r

let run_batched st ~n ~fill = step_core st ~n ~k:1 (fun st t _ -> fill st t)

let step_many st ~fill =
  step_core st ~n:1 ~k:st.nscen (fun st _ s -> fill st s)

let trace st = st.traces.(0)
let trace_of st s = st.traces.(s)
let instant st = st.instants

(* ------------------------------------------------------------------ *)
(* State management                                                    *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_dstate : Types.value array;          (* boxed, nscen * n *)
  s_queues : Types.value list array;     (* nprims * nscen, front first *)
  s_instants : int;
}

let queue_list p s =
  List.init p.q_len.(s) (fun k ->
      let idx = (s * p.cap) + ((p.q_head.(s) + k) mod p.cap) in
      match p.q_tg.(idx) with
      | 0 -> Types.Vint p.q_ri.(idx)
      | 1 -> if p.q_ri.(idx) <> 0 then Types.Vbool true else Types.Vbool false
      | 2 -> Types.Vevent
      | 3 -> Types.Vreal p.q_rr.(idx)
      | _ -> Types.Vstring p.q_rs.(idx))

let snapshot st =
  let nprims = Array.length st.prims in
  { s_dstate = Array.init (st.nscen * st.n) (fun j -> delay_boxed st j);
    s_queues =
      Array.init (nprims * st.nscen) (fun k ->
          queue_list st.prims.(k / st.nscen) (k mod st.nscen));
    s_instants = st.instants }

let restore st snap =
  for j = 0 to (st.nscen * st.n) - 1 do
    set_delay_slot st j snap.s_dstate.(j)
  done;
  Array.iteri
    (fun k vs ->
      let p = st.prims.(k / st.nscen) and s = k mod st.nscen in
      qclear p s;
      List.iter
        (fun v ->
          let idx = (s * p.cap) + ((p.q_head.(s) + p.q_len.(s)) mod p.cap) in
          (match v with
           | Types.Vint n -> p.q_tg.(idx) <- tg_int; p.q_ri.(idx) <- n
           | Types.Vbool b ->
             p.q_tg.(idx) <- tg_bool;
             p.q_ri.(idx) <- (if b then 1 else 0)
           | Types.Vevent -> p.q_tg.(idx) <- tg_event; p.q_ri.(idx) <- 1
           | Types.Vreal r -> p.q_tg.(idx) <- tg_real; p.q_rr.(idx) <- r
           | Types.Vstring s' -> p.q_tg.(idx) <- tg_string; p.q_rs.(idx) <- s');
          p.q_len.(s) <- p.q_len.(s) + 1)
        vs)
    snap.s_queues;
  reset_sharing st;
  st.instants <- snap.s_instants

let set_recording st b = st.recording <- b

(* Fixed-width state keys for visited sets: serialize the mutable state
   (delay registers + FIFO rings, the same fields [snapshot] captures
   minus the instant counter) into a reused byte buffer, then hash to a
   16-byte MD5. The per-call garbage is one 16-byte string, not a
   Marshal image of the boxed state. *)

type keybuf = { mutable kbytes : Bytes.t; mutable kpos : int }

let keybuf () = { kbytes = Bytes.create 512; kpos = 0 }

let kb_ensure kb extra =
  let need = kb.kpos + extra in
  let cap = Bytes.length kb.kbytes in
  if need > cap then begin
    let ncap = ref (cap * 2) in
    while !ncap < need do ncap := !ncap * 2 done;
    let b = Bytes.create !ncap in
    Bytes.blit kb.kbytes 0 b 0 kb.kpos;
    kb.kbytes <- b
  end

let kb_byte kb v =
  kb_ensure kb 1;
  Bytes.unsafe_set kb.kbytes kb.kpos (Char.unsafe_chr (v land 0xff));
  kb.kpos <- kb.kpos + 1

let kb_int kb v =
  kb_ensure kb 8;
  let b = kb.kbytes and p = kb.kpos in
  Bytes.unsafe_set b p (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (p + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (p + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (p + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (p + 7) (Char.unsafe_chr ((v asr 56) land 0xff));
  kb.kpos <- p + 8

(* all 64 bits matter (sign included), so split before the 63-bit int *)
let kb_float kb f =
  let bits = Int64.bits_of_float f in
  kb_int kb (Int64.to_int (Int64.shift_right_logical bits 32));
  kb_int kb (Int64.to_int (Int64.logand bits 0xFFFFFFFFL))

let kb_string kb s =
  let len = String.length s in
  kb_int kb len;
  kb_ensure kb len;
  Bytes.blit_string s 0 kb.kbytes kb.kpos len;
  kb.kpos <- kb.kpos + len

let state_key st kb =
  kb.kpos <- 0;
  for j = 0 to (st.nscen * st.n) - 1 do
    let t = st.dtg.(j) in
    kb_byte kb t;
    (match t with
     | 3 -> kb_float kb st.dr.(j)
     | 4 -> kb_string kb st.ds.(j)
     | _ -> kb_int kb st.di.(j))
  done;
  Array.iter
    (fun p ->
      for s = 0 to st.nscen - 1 do
        let len = p.q_len.(s) in
        kb_int kb len;
        for k = 0 to len - 1 do
          let idx = (s * p.cap) + ((p.q_head.(s) + k) mod p.cap) in
          let t = p.q_tg.(idx) in
          kb_byte kb t;
          match t with
          | 3 -> kb_float kb p.q_rr.(idx)
          | 4 -> kb_string kb p.q_rs.(idx)
          | _ -> kb_int kb p.q_ri.(idx)
        done
      done)
    st.prims;
  Digest.subbytes kb.kbytes 0 kb.kpos

let plan_length st = Array.length st.pl.p_plan
let free_classes st = st.pl.p_n_free


(* ------------------------------------------------------------------ *)
(* Symbolic introspection: a read-only view of the compiled plan so    *)
(* the symbolic reachability engine can rebuild the same presence and  *)
(* value semantics as BDD formulas instead of imperative closures.     *)
(* ------------------------------------------------------------------ *)

type sym_view = {
  sv_prog : Prog.t;
  sv_nclasses : int;
  sv_class_of : int array;
  sv_pdefs : pdef array;
  sv_dag : dag;
  sv_input_clocks : (int * int) array;
  sv_order : [ `Pres of int | `Val of int ] array;
}

let sym_view st =
  { sv_prog = st.prog;
    sv_nclasses = st.nclasses;
    sv_class_of = st.class_of;
    sv_pdefs = st.pl.p_pdefs;
    sv_dag = st.pl.p_dag;
    sv_input_clocks = st.pl.p_input_clocks;
    sv_order =
      Array.map (function Opres c -> `Pres c | Oval i -> `Val i) st.pl.p_plan }

let free_class_members st =
  let acc = ref [] in
  for i = st.prog.Prog.n - 1 downto 0 do
    match st.pl.p_pdefs.(st.class_of.(i)) with
    | Pfree -> acc := st.prog.Prog.names.(i) :: !acc
    | Pinput _ | Pprim _ | Pderived _ | Palias _ -> ()
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* C code generation (the Polychrony back-end pillar, ref [15]):       *)
(* compile the execution plan to a self-contained C program.           *)
(* ------------------------------------------------------------------ *)

let styp_of st i = st.prog.Prog.types.(i)

let to_c st =
  let buf = Buffer.create 16384 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let prog = st.prog in
  let nsignals = prog.Prog.n in
  let names = prog.Prog.names in
  let is_real i = styp_of st i = Types.Treal in
  (* reject string-typed signals: no C mapping *)
  let has_string =
    Array.exists (fun ty -> ty = Types.Tstring) prog.Prog.types
  in
  if has_string then Error "string signals have no C mapping"
  else begin
    let v i = Printf.sprintf "v_%d" i in
    let p c = Printf.sprintf "p_%d" c in
    let inputs = prog.Prog.inputs in
    let input_index =
      let h = Hashtbl.create 8 in
      Array.iteri (fun k i -> Hashtbl.replace h i k) inputs;
      h
    in
    pf "/* generated by polychrony-aadl from process %s */\n"
      prog.Prog.kp.K.kname;
    pf "#include <stdio.h>\n#include <stdlib.h>\n#include <string.h>\n\n";
    pf "static long sdiv(long a, long b){ if(!b){fprintf(stderr,\"division by zero\\n\");exit(2);} return a/b; }\n";
    pf "static long smod(long a, long b){ if(!b){fprintf(stderr,\"modulo by zero\\n\");exit(2);} return a%%b; }\n\n";
    (* signal storage *)
    for i = 0 to nsignals - 1 do
      if is_real i then pf "static double %s; /* %s */\n" (v i) names.(i)
      else pf "static long %s; /* %s */\n" (v i) names.(i)
    done;
    for c = 0 to st.nclasses - 1 do
      pf "static int %s;\n" (p c)
    done;
    (* delay state (scenario 0 registers hold the current values) *)
    for i = 0 to nsignals - 1 do
      if prog.Prog.delay_src.(i) >= 0 then begin
        match delay_boxed st i with
        | Types.Vreal r -> pf "static double d_%d = %.17g;\n" i r
        | Types.Vint n -> pf "static long d_%d = %d;\n" i n
        | Types.Vbool b -> pf "static long d_%d = %d;\n" i (if b then 1 else 0)
        | Types.Vevent -> pf "static long d_%d = 1;\n" i
        | Types.Vstring _ -> ()
      end
    done;
    (* primitive queues *)
    Array.iteri
      (fun k pr ->
        pf "static long q%d_buf[%d]; static int q%d_len = 0, q%d_head = 0;\n"
          k pr.lp.Prog.lp_capacity k k)
      st.prims;
    pf "\nstatic void qpush(long*buf,int cap,int*len,int*head,int policy,long x){\n";
    pf "  if(*len >= cap){\n";
    pf "    if(policy==0){ buf[*head]= 0; *head=(*head+1)%%cap; (*len)--; }\n";
    pf "    else if(policy==1){ return; }\n";
    pf "    else { fprintf(stderr,\"queue overflow\\n\"); exit(3); }\n";
    pf "  }\n";
    pf "  buf[(*head + *len) %% cap] = x; (*len)++;\n}\n";
    pf "static long qpeek(long*buf,int cap,int head){ (void)cap; return buf[head]; }\n";
    pf "static void qpop(int cap,int*len,int*head){ if(*len>0){ *head=(*head+1)%%cap; (*len)--; } }\n\n";
    (* input buffers *)
    let ni = Array.length inputs in
    pf "static int in_p[%d]; static double in_raw[%d];\n\n" (max ni 1) (max ni 1);
    (* derived clocks: one function per clock-DAG node, children
       first, so each calls only functions already defined *)
    let dag = st.pl.p_dag in
    let node_call k =
      if k < 2 then string_of_int k else Printf.sprintf "c_%d()" k
    in
    for k = 2 to dag_size dag - 1 do
      let r, hi, lo = dag_node dag k in
      let cond =
        match r with
        | Rpresent c -> p c
        | Rcond bi -> Printf.sprintf "(%s && %s)" (p st.class_of.(bi)) (v bi)
        | Rcondeq (xi, n) ->
          Printf.sprintf "(%s && %s == %d)" (p st.class_of.(xi)) (v xi) n
      in
      pf "static int c_%d(void){ return %s ? %s : %s; }\n" k cond
        (node_call hi) (node_call lo)
    done;
    if dag_size dag > 2 then pf "\n";
    let atom_expr = function
      | Prog.Avar y -> v y
      | Prog.Aconst (Types.Vint n) -> string_of_int n
      | Prog.Aconst (Types.Vbool b) -> if b then "1" else "0"
      | Prog.Aconst Types.Vevent -> "1"
      | Prog.Aconst (Types.Vreal r) -> Printf.sprintf "%.17g" r
      | Prog.Aconst (Types.Vstring _) -> "0"
    in
    let prim_id pr st =
      let rec go k = if st.prims.(k) == pr then k else go (k + 1) in
      go 0
    in
    let prim_pres_expr pr pos =
      let ins = pr.lp.Prog.lp_ins in
      let pin k = p st.class_of.(ins.(k)) in
      match pr.lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        let k = prim_id pr st in
        Printf.sprintf
          "(%s && ((%s ? 0 : q%d_len) + (%s ? 1 : 0) > 0))"
          (pin 1)
          (if has_reset then pin 2 else "0")
          k (pin 0)
      | Stdproc.Pin_event_port, 0 ->
        Printf.sprintf "(%s && q%d_len > 0)" (pin 1) (prim_id pr st)
      | Stdproc.Pout_event_port, 0 ->
        Printf.sprintf "(%s && (%s || q%d_len > 0))" (pin 1) (pin 0)
          (prim_id pr st)
      | _ -> "0"
    in
    let prim_val_expr pr pos =
      let ins = pr.lp.Prog.lp_ins in
      let cap = pr.lp.Prog.lp_capacity in
      let pin k = p st.class_of.(ins.(k)) in
      let vin k = v ins.(k) in
      let k = prim_id pr st in
      match pr.lp.Prog.lp_ki.K.ki_prim, pos with
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 0 ->
        let has_reset = Array.length ins = 3 in
        Printf.sprintf
          "(((%s ? 0 : q%d_len) > 0) ? qpeek(q%d_buf,%d,q%d_head) : %s)"
          (if has_reset then pin 2 else "0")
          k k cap k (vin 0)
      | (Stdproc.Pfifo | Stdproc.Pfifo_reset), 1 ->
        let has_reset = Array.length ins = 3 in
        let n0 =
          Printf.sprintf "(%s ? 0 : q%d_len)"
            (if has_reset then pin 2 else "0") k
        in
        let n1 =
          Printf.sprintf
            "(%s ? ((%s + 1) < %d ? (%s + 1) : %d) : %s)"
            (pin 0) n0 cap n0 cap n0
        in
        Printf.sprintf "((%s && %s > 0) ? %s - 1 : %s)" (pin 1) n1 n1 n1
      | Stdproc.Pin_event_port, 0 ->
        Printf.sprintf "qpeek(q%d_buf,%d,q%d_head)" k cap k
      | Stdproc.Pin_event_port, 1 -> Printf.sprintf "(long)q%d_len" k
      | Stdproc.Pout_event_port, 0 ->
        Printf.sprintf "(q%d_len > 0 ? qpeek(q%d_buf,%d,q%d_head) : %s)"
          k k cap k (vin 0)
      | _ -> "0"
    in
    (* step function *)
    pf "static void step(void){\n";
    Array.iter
      (fun op ->
        match op with
        | Opres c -> (
          match st.pl.p_pdefs.(c) with
          | Pfree -> pf "  %s = 0;\n" (p c)
          | Pinput members ->
            let flags =
              List.map
                (fun i ->
                  Printf.sprintf "in_p[%d]" (Hashtbl.find input_index i))
                members
            in
            pf "  %s = %s;\n" (p c) (String.concat " || " flags)
          | Pprim (pi, pos) ->
            pf "  %s = %s;\n" (p c) (prim_pres_expr st.prims.(pi) pos)
          | Palias src -> pf "  %s = %s;\n" (p c) (p src)
          | Pderived root -> pf "  %s = %s;\n" (p c) (node_call root))
        | Oval i ->
          let guard = p st.class_of.(i) in
          (match prog.Prog.vdefs.(i) with
           | Prog.Vnone ->
             if prog.Prog.is_input.(i) then begin
               let k = Hashtbl.find input_index i in
               if is_real i then
                 pf "  if (%s) %s = in_raw[%d];\n" guard (v i) k
               else pf "  if (%s) %s = (long)in_raw[%d];\n" guard (v i) k
             end
           | Prog.Vfunc (op, args) ->
             let e =
               match op, Array.to_list args with
               | K.Pid, [ a ] -> atom_expr a
               | K.Pclock, [ _ ] -> "1"
               | K.Punop Ast.Not, [ a ] ->
                 Printf.sprintf "(!%s)" (atom_expr a)
               | K.Punop Ast.Neg, [ a ] ->
                 Printf.sprintf "(-%s)" (atom_expr a)
               | K.Pif, [ c0; t; f ] ->
                 Printf.sprintf "(%s ? %s : %s)" (atom_expr c0) (atom_expr t)
                   (atom_expr f)
               | K.Pbinop bop, [ a; b ] ->
                 let x = atom_expr a and y = atom_expr b in
                 (match bop with
                  | Ast.Add -> Printf.sprintf "(%s + %s)" x y
                  | Ast.Sub -> Printf.sprintf "(%s - %s)" x y
                  | Ast.Mul -> Printf.sprintf "(%s * %s)" x y
                  | Ast.Div ->
                    if is_real i then Printf.sprintf "(%s / %s)" x y
                    else Printf.sprintf "sdiv(%s, %s)" x y
                  | Ast.Mod -> Printf.sprintf "smod(%s, %s)" x y
                  | Ast.And -> Printf.sprintf "(%s && %s)" x y
                  | Ast.Or -> Printf.sprintf "(%s || %s)" x y
                  | Ast.Xor -> Printf.sprintf "(!!%s != !!%s)" x y
                  | Ast.Eq -> Printf.sprintf "(%s == %s)" x y
                  | Ast.Neq -> Printf.sprintf "(%s != %s)" x y
                  | Ast.Lt -> Printf.sprintf "(%s < %s)" x y
                  | Ast.Le -> Printf.sprintf "(%s <= %s)" x y
                  | Ast.Gt -> Printf.sprintf "(%s > %s)" x y
                  | Ast.Ge -> Printf.sprintf "(%s >= %s)" x y)
               | _, _ -> "0"
             in
             pf "  if (%s) %s = %s;\n" guard (v i) e
           | Prog.Vdelay -> pf "  if (%s) %s = d_%d;\n" guard (v i) i
           | Prog.Vwhen src ->
             pf "  if (%s) %s = %s;\n" guard (v i) (atom_expr src)
           | Prog.Vdefault (l, r) ->
             let rhs =
               match l, r with
               | Prog.Aconst _, _ -> atom_expr l
               | Prog.Avar y, Prog.Aconst _ ->
                 Printf.sprintf "(%s ? %s : %s)" (p st.class_of.(y)) (v y)
                   (atom_expr r)
               | Prog.Avar y, Prog.Avar z ->
                 Printf.sprintf "(%s ? %s : %s)" (p st.class_of.(y)) (v y)
                   (v z)
             in
             pf "  if (%s) %s = %s;\n" guard (v i) rhs
           | Prog.Vprim (pi, pos) ->
             pf "  if (%s) %s = %s;\n" guard (v i)
               (prim_val_expr st.prims.(pi) pos)))
      st.pl.p_plan;
    (* commit: delays then queues *)
    for i = 0 to nsignals - 1 do
      let src = prog.Prog.delay_src.(i) in
      if src >= 0 then
        pf "  if (%s) d_%d = %s;\n" (p st.class_of.(src)) i (v src)
    done;
    Array.iteri
      (fun k pr ->
        let ins = pr.lp.Prog.lp_ins in
        let cap = pr.lp.Prog.lp_capacity in
        let pin j = p st.class_of.(ins.(j)) in
        let vin j = v ins.(j) in
        let policy =
          match pr.lp.Prog.lp_policy with
          | Prog.Drop_oldest -> 0
          | Prog.Drop_newest -> 1
          | Prog.Overflow_error -> 2
        in
        match pr.lp.Prog.lp_ki.K.ki_prim with
        | Stdproc.Pfifo | Stdproc.Pfifo_reset ->
          if Array.length ins = 3 then
            pf "  if (%s) { q%d_len = 0; q%d_head = 0; }\n" (pin 2) k k;
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0);
          pf "  if (%s) qpop(%d,&q%d_len,&q%d_head);\n" (pin 1) cap k k
        | Stdproc.Pin_event_port ->
          pf "  if (%s) { q%d_len = 0; q%d_head = 0; }\n" (pin 1) k k;
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0)
        | Stdproc.Pout_event_port ->
          pf "  if (%s) qpush(q%d_buf,%d,&q%d_len,&q%d_head,%d,(long)%s);\n"
            (pin 0) k cap k k policy (vin 0);
          pf "  if (%s) qpop(%d,&q%d_len,&q%d_head);\n" (pin 1) cap k k)
      st.prims;
    pf "}\n\n";
    (* main: read stimuli lines, run, print present signals *)
    pf "int main(void){\n";
    pf "  char line[1 << 16];\n";
    pf "  while (fgets(line, sizeof line, stdin)) {\n";
    pf "    char *tok = strtok(line, \" \\t\\r\\n\");\n";
    pf "    for (int k = 0; k < %d; k++) {\n" ni;
    pf "      if (!tok || (tok[0]=='-' && tok[1]==0)) { in_p[k]=0; in_raw[k]=0; }\n";
    pf "      else { in_p[k]=1; in_raw[k]=strtod(tok, 0); }\n";
    pf "      if (tok) tok = strtok(0, \" \\t\\r\\n\");\n";
    pf "    }\n";
    pf "    step();\n";
    for i = 0 to nsignals - 1 do
      if is_real i then
        pf "    if (%s) printf(\"%s=%%.17g \", %s);\n" (p st.class_of.(i))
          names.(i) (v i)
      else
        pf "    if (%s) printf(\"%s=%%ld \", %s);\n" (p st.class_of.(i))
          names.(i) (v i)
    done;
    pf "    printf(\"\\n\");\n";
    pf "  }\n  return 0;\n}\n";
    Metrics.set m_codegen_bytes (Buffer.length buf);
    Ok (Buffer.contents buf)
  end
