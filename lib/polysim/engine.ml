module K = Signal_lang.Kernel
module Types = Signal_lang.Types
module Stdproc = Signal_lang.Stdproc
module Metrics = Putil.Metrics

let m_instants = Metrics.counter "engine.instants"
let m_fixpoint_iters = Metrics.counter "engine.fixpoint_iters"
let m_defaults = Metrics.counter "engine.defaults"
let m_step_ns = Metrics.timer "engine.step_ns"

exception Sim_error of string

let errf fmt = Format.kasprintf (fun m -> raise (Sim_error m)) fmt

type presence = Unknown | Present | Absent

type prim_state = {
  lp : Prog.lprim;
  queue : Types.value Queue.t;
  frozen : Types.value Queue.t;   (* in_event_port only *)
  mutable overflows : int;
}

(* All per-signal state is indexed by the dense signal index of the
   shared program IR (Prog): the fixpoint loop is pure array reads and
   writes, names are only materialized in diagnostics and results. *)
type t = {
  prog : Prog.t;
  default_order : int array;
      (* unknown-presence defaulting order: dataflow sources first, so
         a defaulted sink never contradicts a later-resolved source *)
  rank : int array;  (* inverse of default_order *)
  delay_state : Types.value array;  (* indexed by dst *)
  prims : prim_state array;
  tr : Trace.t;
  recorder : Trace.recorder;
  mutable instants : int;
  mutable free : int;      (* defaulted-to-absent decisions *)
  (* per-instant scratch, allocated once *)
  pres : presence array;
  vals : Types.value option array;
  mutable changed : bool;
}

let create kp =
  Putil.Tracing.with_span "engine.create" @@ fun () ->
  let prog = Prog.of_kprocess kp in
  let n = prog.Prog.n in
  let delay_state = Array.copy prog.Prog.delay_init in
  let prims =
    Array.map
      (fun lp ->
        { lp; queue = Queue.create (); frozen = Queue.create ();
          overflows = 0 })
      prog.Prog.prims
  in
  let default_order =
    match
      Analysis.Digraph.topological_sort
        (Analysis.Deadlock.dependency_graph kp)
    with
    | Ok order ->
      (* topological prefix, then remaining signals in declaration
         order; a seen-array keeps the construction linear *)
      let seen = Array.make (max n 1) false in
      let acc = ref [] in
      List.iter
        (fun x ->
          match Prog.index_opt prog x with
          | Some i when not seen.(i) ->
            seen.(i) <- true;
            acc := i :: !acc
          | Some _ | None -> ())
        order;
      for i = n - 1 downto 0 do
        if not seen.(i) then acc := i :: !acc
      done;
      (* both pieces were accumulated in reverse *)
      let arr = Array.of_list !acc in
      let len = Array.length arr in
      Array.init len (fun k -> arr.(len - 1 - k))
    | Error _ -> Array.init n Fun.id
  in
  let rank = Array.make (max n 1) 0 in
  Array.iteri (fun k x -> rank.(x) <- k) default_order;
  let h = Trace.header (Prog.decls prog) in
  { prog; default_order; rank; delay_state; prims;
    tr = Trace.of_header h; recorder = Trace.recorder h;
    instants = 0; free = 0;
    pres = Array.make (max n 1) Unknown;
    vals = Array.make (max n 1) None;
    changed = false }

(* ------------------------------------------------------------------ *)
(* Fact tables                                                         *)
(* ------------------------------------------------------------------ *)

let presence st x = st.pres.(x)

let set_presence st x p =
  match st.pres.(x), p with
  | Unknown, (Present | Absent) ->
    st.pres.(x) <- p;
    st.changed <- true
  | Present, Absent | Absent, Present ->
    errf "instant %d: contradictory presence for signal %s" st.instants
      (Prog.name st.prog x)
  | _, _ -> ()

let value_of st x = st.vals.(x)

let set_value st x v =
  match st.vals.(x) with
  | None ->
    st.vals.(x) <- Some v;
    st.changed <- true
  | Some v0 ->
    if not (Types.equal_value v0 v) then
      errf "instant %d: contradictory values for signal %s (%s vs %s)"
        st.instants (Prog.name st.prog x) (Types.value_to_string v0)
        (Types.value_to_string v)

let atom_presence st = function
  | Prog.Avar x -> presence st x
  | Prog.Aconst _ -> Unknown  (* contextual; handled by the group rules *)

let atom_value st = function
  | Prog.Avar x -> value_of st x
  | Prog.Aconst v -> Some v

(* ------------------------------------------------------------------ *)
(* Presence / value propagation rules                                  *)
(* ------------------------------------------------------------------ *)

(* Synchronous group: dst and all Avar args share a clock. *)
let rule_sync_group st dst args =
  let any p =
    presence st dst = p
    || Array.exists
         (function Prog.Avar x -> presence st x = p | Prog.Aconst _ -> false)
         args
  in
  let set p =
    set_presence st dst p;
    Array.iter
      (function Prog.Avar x -> set_presence st x p | Prog.Aconst _ -> ())
      args
  in
  if any Present then set Present else if any Absent then set Absent

let rule_func st dst op args =
  rule_sync_group st dst args;
  if presence st dst = Present then begin
    let arg_vals = Array.map (atom_value st) args in
    if Array.for_all Option.is_some arg_vals then
      set_value st dst
        (Eval.eval_func op (Array.to_list (Array.map Option.get arg_vals)))
  end

let rule_delay st dst src =
  rule_sync_group st dst [| Prog.Avar src |];
  if presence st dst = Present then set_value st dst st.delay_state.(dst)

let rule_when st dst src cond =
  (* a constant condition has the contextual clock: false silences the
     destination, true makes it mirror the source *)
  (match cond with
   | Prog.Aconst v when not (Eval.as_bool v) -> set_presence st dst Absent
   | Prog.Aconst _ -> (
     match src with
     | Prog.Aconst v -> if presence st dst = Present then set_value st dst v
     | Prog.Avar x -> (
       match presence st x, presence st dst with
       | Present, _ ->
         set_presence st dst Present;
         (match value_of st x with
          | Some v -> set_value st dst v
          | None -> ())
       | Absent, _ -> set_presence st dst Absent
       | Unknown, Absent -> set_presence st x Absent
       | Unknown, (Present | Unknown) -> ()))
   | Prog.Avar _ -> ());
  (match atom_presence st cond, atom_value st cond with
   | Absent, _ -> set_presence st dst Absent
   | Present, Some v when not (Eval.as_bool v) -> set_presence st dst Absent
   | Present, Some _ -> (
     (* condition true: dst follows src *)
     match src with
     | Prog.Aconst v ->
       set_presence st dst Present;
       set_value st dst v
     | Prog.Avar x -> (
       match presence st x with
       | Present ->
         set_presence st dst Present;
         (match value_of st x with
          | Some v -> set_value st dst v
          | None -> ())
       | Absent -> set_presence st dst Absent
       | Unknown -> ()))
   | (Present | Unknown), _ -> ());
  (* backward: dst present forces src and cond present (cond true) *)
  if presence st dst = Present then begin
    (match src with
     | Prog.Avar x -> set_presence st x Present
     | Prog.Aconst _ -> ());
    match cond with
    | Prog.Avar b -> set_presence st b Present
    | Prog.Aconst _ -> ()
  end

let rule_default st dst left right =
  let pl = atom_presence st left and pr = atom_presence st right in
  (* union clock: either operand present forces the destination *)
  if pl = Present || pr = Present then set_presence st dst Present;
  (match pl with
   | Present -> (
     match atom_value st left with
     | Some v -> set_value st dst v
     | None -> ())
   | Absent -> (
     match pr with
     | Present -> (
       match atom_value st right with
       | Some v -> set_value st dst v
       | None -> ())
     | Absent -> set_presence st dst Absent
     | Unknown -> ())
   | Unknown -> ());
  (match presence st dst with
   | Absent ->
     (match left with
      | Prog.Avar x -> set_presence st x Absent
      | Prog.Aconst _ -> ());
     (match right with
      | Prog.Avar x -> set_presence st x Absent
      | Prog.Aconst _ -> ())
   | Present -> (
     (* if left absent, right must be present *)
     match pl, right with
     | Absent, Prog.Avar x -> set_presence st x Present
     | Absent, Prog.Aconst v -> set_value st dst v
     | _, _ -> ())
   | Unknown -> ());
  (* constant left: when dst is present and left is a constant, the
     merge yields the constant (a constant is contextually present) *)
  match left, presence st dst with
  | Prog.Aconst v, Present -> set_value st dst v
  | (Prog.Aconst _ | Prog.Avar _), _ -> ()

let rule_constraint st = function
  | Prog.Leq (a, b) -> (
    match presence st a, presence st b with
    | Present, _ -> set_presence st b Present
    | Absent, _ -> set_presence st b Absent
    | Unknown, Present -> set_presence st a Present
    | Unknown, Absent -> set_presence st a Absent
    | Unknown, Unknown -> ())
  | Prog.Lle (a, b) -> (
    (match presence st a with
     | Present -> set_presence st b Present
     | Absent | Unknown -> ());
    match presence st b with
    | Absent -> set_presence st a Absent
    | Present | Unknown -> ())
  | Prog.Lex (a, b) -> (
    (match presence st a with
     | Present -> set_presence st b Absent
     | Absent | Unknown -> ());
    match presence st b with
    | Present -> set_presence st a Absent
    | Absent | Unknown -> ())

(* Primitive presence/value rules; effects are deferred to commit. *)
let rule_prim st ps =
  let lp = ps.lp in
  let ins = lp.Prog.lp_ins and outs = lp.Prog.lp_outs in
  match lp.Prog.lp_ki.K.ki_prim with
  | (Stdproc.Pfifo | Stdproc.Pfifo_reset)
    when Array.length ins >= 2 && Array.length outs = 2 ->
    let push = ins.(0) and pop = ins.(1) in
    let data = outs.(0) and size = outs.(1) in
    let reset = if Array.length ins = 3 then Some ins.(2) else None in
    let reset_pres =
      match reset with Some r -> presence st r | None -> Absent
    in
    (* data: present iff pop present and an item is available; the
       available front accounts for a same-instant reset and push *)
    (match presence st pop with
     | Absent -> set_presence st data Absent
     | Present -> (
       let after_reset_empty =
         match reset_pres with
         | Present -> true
         | Absent -> Queue.is_empty ps.queue
         | Unknown -> false (* undecidable yet; only matters if queue empty *)
       in
       if not after_reset_empty && reset_pres <> Unknown then begin
         set_presence st data Present;
         set_value st data (Queue.peek ps.queue)
       end
       else
         match reset_pres, presence st push with
         | Unknown, _ -> ()
         | _, Present ->
           set_presence st data Present;
           (match value_of st push with
            | Some v -> set_value st data v
            | None -> ())
         | _, Absent ->
           if after_reset_empty then set_presence st data Absent
         | _, Unknown -> ())
     | Unknown -> ());
    (* size: present iff any of push/pop/reset present *)
    let any p = Array.exists (fun x -> presence st x = p) ins in
    if any Present then set_presence st size Present
    else if Array.for_all (fun x -> presence st x = Absent) ins then
      set_presence st size Absent;
    if presence st size = Present
       && Array.for_all (fun x -> presence st x <> Unknown) ins
    then begin
      let n0 = if reset_pres = Present then 0 else Queue.length ps.queue in
      let n1 =
        if presence st push = Present then min (n0 + 1) lp.Prog.lp_capacity
        else n0
      in
      let popped = presence st pop = Present && n1 > 0 in
      set_value st size (Types.Vint (if popped then n1 - 1 else n1))
    end
  | Stdproc.Pin_event_port
    when Array.length ins = 2 && Array.length outs = 2 -> (
    let frozen_time = ins.(1) in
    let frozen = outs.(0) and frozen_count = outs.(1) in
    match presence st frozen_time with
    | Absent ->
      set_presence st frozen Absent;
      set_presence st frozen_count Absent
    | Present ->
      (* freeze happens before same-instant arrivals: decidable from
         state alone *)
      set_presence st frozen_count Present;
      set_value st frozen_count (Types.Vint (Queue.length ps.queue));
      if Queue.is_empty ps.queue then set_presence st frozen Absent
      else begin
        set_presence st frozen Present;
        set_value st frozen (Queue.peek ps.queue)
      end
    | Unknown -> ())
  | Stdproc.Pout_event_port
    when Array.length ins = 2 && Array.length outs = 1 -> (
    let item = ins.(0) and output_time = ins.(1) in
    let sent = outs.(0) in
    match presence st output_time with
    | Absent -> set_presence st sent Absent
    | Present ->
      if not (Queue.is_empty ps.queue) then begin
        set_presence st sent Present;
        set_value st sent (Queue.peek ps.queue)
      end
      else (
        match presence st item with
        | Present ->
          set_presence st sent Present;
          (match value_of st item with
           | Some v -> set_value st sent v
           | None -> ())
        | Absent -> set_presence st sent Absent
        | Unknown -> ())
    | Unknown -> ())
  | Stdproc.Pfifo | Stdproc.Pfifo_reset | Stdproc.Pin_event_port
  | Stdproc.Pout_event_port ->
    errf "primitive instance %s: malformed arity" lp.Prog.lp_ki.K.ki_label

(* ------------------------------------------------------------------ *)
(* Commit phase                                                        *)
(* ------------------------------------------------------------------ *)

let push_bounded ps v =
  if Queue.length ps.queue >= ps.lp.Prog.lp_capacity then begin
    ps.overflows <- ps.overflows + 1;
    match ps.lp.Prog.lp_policy with
    | Prog.Drop_oldest ->
      ignore (Queue.pop ps.queue);
      Queue.push v ps.queue
    | Prog.Drop_newest -> ()
    | Prog.Overflow_error ->
      errf "queue overflow on %s (Overflow_Handling_Protocol => Error)"
        ps.lp.Prog.lp_ki.K.ki_label
  end
  else Queue.push v ps.queue

let commit_prim st ps =
  let lp = ps.lp in
  let ins = lp.Prog.lp_ins in
  let pres x = presence st x = Present in
  let valof x = value_of st x in
  match lp.Prog.lp_ki.K.ki_prim with
  | (Stdproc.Pfifo | Stdproc.Pfifo_reset) when Array.length ins >= 2 ->
    if Array.length ins = 3 && pres ins.(2) then Queue.clear ps.queue;
    if pres ins.(0) then (
      match valof ins.(0) with
      | Some v -> push_bounded ps v
      | None -> ());
    if pres ins.(1) && not (Queue.is_empty ps.queue) then
      ignore (Queue.pop ps.queue)
  | Stdproc.Pin_event_port when Array.length ins = 2 ->
    if pres ins.(1) then begin
      Queue.clear ps.frozen;
      Queue.transfer ps.queue ps.frozen
    end;
    if pres ins.(0) then (
      match valof ins.(0) with
      | Some v -> push_bounded ps v
      | None -> ())
  | Stdproc.Pout_event_port when Array.length ins = 2 ->
    if pres ins.(0) then (
      match valof ins.(0) with
      | Some v -> push_bounded ps v
      | None -> ());
    if pres ins.(1) && not (Queue.is_empty ps.queue) then
      ignore (Queue.pop ps.queue)
  | Stdproc.Pfifo | Stdproc.Pfifo_reset | Stdproc.Pin_event_port
  | Stdproc.Pout_event_port ->
    ()

(* ------------------------------------------------------------------ *)
(* The step                                                            *)
(* ------------------------------------------------------------------ *)

let step st ~stimulus =
  Metrics.time m_step_ns @@ fun () ->
  try
    let prog = st.prog in
    let n = prog.Prog.n in
    Array.fill st.pres 0 (Array.length st.pres) Unknown;
    Array.fill st.vals 0 (Array.length st.vals) None;
    (* inputs *)
    List.iter
      (fun (x, v) ->
        match Prog.index_opt prog x with
        | Some i when prog.Prog.is_input.(i) ->
          set_presence st i Present;
          set_value st i v
        | Some _ | None -> errf "stimulus for non-input signal %s" x)
      stimulus;
    Array.iter
      (fun i -> if presence st i = Unknown then set_presence st i Absent)
      prog.Prog.inputs;
    (* fixpoint *)
    let eqs = prog.Prog.eqs in
    let constraints = prog.Prog.constraints in
    let rec iterate guard =
      if guard = 0 then errf "fixpoint did not converge";
      Metrics.incr m_fixpoint_iters;
      st.changed <- false;
      Array.iter
        (fun eq ->
          match eq with
          | Prog.Lfunc { dst; op; args } -> rule_func st dst op args
          | Prog.Ldelay { dst; src; _ } -> rule_delay st dst src
          | Prog.Lwhen { dst; src; cond } -> rule_when st dst src cond
          | Prog.Ldefault { dst; left; right } ->
            rule_default st dst left right)
        eqs;
      Array.iter (rule_constraint st) constraints;
      Array.iter (rule_prim st) st.prims;
      if st.changed then iterate (guard - 1)
    in
    iterate ((2 * n) + 10);
    (* Default remaining unknowns to absent, one signal at a time:
       each choice is re-propagated before the next so that a signal
       whose presence follows from an earlier default is computed
       rather than defaulted (and cannot contradict later rules).
       Within an instant presence only moves Unknown -> decided, so
       the first-unknown position is monotone and a cursor keeps the
       whole defaulting sweep linear. *)
    let order = st.default_order in
    let cursor = ref 0 in
    (* A signal that is already Present but still value-less is waiting
       on the value of an Unknown-presence operand (e.g. a constant-only
       function feeding a default).  Those operands must be resolved
       before any other free choice: their decision lets the cascade
       COMPUTE downstream presences that a blind sweep would guess — and
       a wrong guess surfaces as a contradiction once the value arrives.
       The compiled evaluator makes the same choice (free clock classes
       are absent, everything else derived). *)
    let value_blocker () =
      let best = ref (-1) in
      let consider = function
        | Prog.Avar x ->
          if st.pres.(x) = Unknown
             && (!best < 0 || st.rank.(x) < st.rank.(!best))
          then best := x
        | Prog.Aconst _ -> ()
      in
      Array.iter
        (fun eq ->
          let dst =
            match eq with
            | Prog.Lfunc { dst; _ } | Prog.Ldelay { dst; _ }
            | Prog.Lwhen { dst; _ } | Prog.Ldefault { dst; _ } -> dst
          in
          if st.pres.(dst) = Present && st.vals.(dst) = None then
            match eq with
            | Prog.Lfunc { args; _ } -> Array.iter consider args
            | Prog.Ldelay _ -> ()
            | Prog.Lwhen { src; cond; _ } ->
              consider src;
              consider cond
            | Prog.Ldefault { left; right; _ } ->
              consider left;
              consider right)
        eqs;
      if !best < 0 then None else Some !best
    in
    let choose x =
      Metrics.incr m_defaults;
      st.free <- st.free + 1;
      st.pres.(x) <- Absent;
      st.changed <- true;
      iterate ((2 * n) + 10)
    in
    let rec default_one () =
      match value_blocker () with
      | Some x ->
        choose x;
        default_one ()
      | None ->
        while
          !cursor < Array.length order
          && presence st order.(!cursor) <> Unknown
        do
          incr cursor
        done;
        if !cursor < Array.length order then begin
          choose order.(!cursor);
          default_one ()
        end
    in
    default_one ();
    (* sanity: every present signal needs a value; recorded in the
       same pass *)
    let present = ref [] in
    Trace.clear st.recorder;
    for i = 0 to n - 1 do
      if st.pres.(i) = Present then
        match st.vals.(i) with
        | Some v ->
          Trace.record st.recorder i v;
          present := (Prog.name prog i, v) :: !present
        | None ->
          errf "instant %d: signal %s present without a value" st.instants
            (Prog.name prog i)
    done;
    (* commit state *)
    let delay_src = prog.Prog.delay_src in
    for i = 0 to n - 1 do
      let src = delay_src.(i) in
      if src >= 0 && st.pres.(src) = Present then
        match st.vals.(src) with
        | Some v -> st.delay_state.(i) <- v
        | None -> ()
    done;
    Array.iter (commit_prim st) st.prims;
    Trace.push_row st.tr (Trace.take st.recorder);
    st.instants <- st.instants + 1;
    Metrics.incr m_instants;
    Ok (List.rev !present)
  with
  | Sim_error m -> Error m
  | Prog.Lower_error m -> Error m
  | Eval.Eval_error m ->
    Error (Printf.sprintf "instant %d: %s" st.instants m)

let run kp ~stimuli =
  match create kp with
  | exception Prog.Lower_error m -> Error m
  | st ->
    let rec go = function
      | [] -> Ok st.tr
      | stim :: rest -> (
        match step st ~stimulus:stim with
        | Ok _ -> go rest
        | Error m -> Error m)
    in
    go stimuli

let trace st = st.tr
let instant st = st.instants
let free_choices st = st.free

let overflow_count st =
  Array.fold_left (fun acc ps -> acc + ps.overflows) 0 st.prims

let fifo_sizes st =
  Array.to_list
    (Array.map
       (fun ps -> (ps.lp.Prog.lp_ki.K.ki_label, Queue.length ps.queue))
       st.prims)
