module K = Signal_lang.Kernel
module Types = Signal_lang.Types
module Metrics = Putil.Metrics
module Pool = Putil.Domain_pool
module Shard_tbl = Putil.Shard_tbl

let m_checks = Metrics.counter "explore.checks"
let m_steps = Metrics.counter "explore.steps"
let m_domains = Metrics.gauge "explore.domains"
let m_states = Metrics.gauge "explore.states"
let m_frontier_max = Metrics.gauge "explore.frontier_max"
let m_check_ns = Metrics.timer "explore.check_ns"

(* Exploration failures surface as coded diagnostics so `verify` keeps
   its 0/1/2 exit contract instead of crashing on an exception. *)
let code_compile =
  Putil.Diag.code "EXPLORE-COMPILE-001"
    "process does not compile for bounded exploration"
let code_sim =
  Putil.Diag.code "EXPLORE-SIM-001"
    "simulation failed during bounded exploration"
let code_stim =
  Putil.Diag.code "EXPLORE-STIM-001"
    "stimulus combination space is too large to enumerate"
let code_replay =
  Putil.Diag.code "EXPLORE-SYM-002"
    "symbolic counterexample failed to replay on the explicit simulator"

let code_jobs =
  Putil.Diag.code "EXPLORE-JOBS-001"
    "more exploration jobs than the runtime can run domains"

let diag_compile m = Putil.Diag.errorf ~code:code_compile "%s" m
let diag_sim m = Putil.Diag.errorf ~code:code_sim "%s" m

type verdict =
  | Holds
  | Violated of (Signal_lang.Ast.ident * Types.value) list list

(* ------------------------------------------------------------------ *)
(* Stimulus space: an index-carried mixed-radix iterator               *)
(* ------------------------------------------------------------------ *)

(* The stimulus combinations of one instant form the cartesian product
   of the per-input alternative lists. The product used to be
   materialized as a list of assoc lists — exponential in inputs both
   in time and live heap. It is now addressed by integer index: input
   [i]'s digit at index [s] is [(s / suffix.(i+1)) mod radix_i] with
   the first listed input most significant, which reproduces the
   historical enumeration order (and therefore the counterexamples)
   exactly. Combinations are written straight into the dense stimulus
   buffer; assoc lists are only built for counterexample trails. *)
type stim_space = {
  ss_names : string array;
  ss_idx : int array; (* dense signal index; -1 when never present *)
  ss_alts : Types.value option array array;
  ss_suffix : int array; (* suffix.(i) = product of radices >= i *)
  ss_count : int;
}

let stim_cap = 1 lsl 30

(* Validate the stimulus spec upfront (shared by every engine) and
   precompute the mixed-radix layout. Unknown or non-input names are
   only an error if some alternative could make them present, matching
   what a [Compile.step] with that stimulus would have raised. *)
let stim_space c inputs =
  let arr = Array.of_list inputs in
  let k = Array.length arr in
  let names = Array.map fst arr in
  let alts = Array.map (fun (_, a) -> Array.of_list a) arr in
  let idx = Array.make k (-1) in
  let err = ref None in
  Array.iteri
    (fun i name ->
      if !err = None then
        let could_present = Array.exists (fun a -> a <> None) alts.(i) in
        match Compile.signal_index c name with
        | Some j when Compile.is_input c j -> idx.(i) <- j
        | Some _ ->
          if could_present then
            err :=
              Some
                (diag_sim
                   (Printf.sprintf "stimulus for non-input signal %s" name))
        | None ->
          if could_present then
            err :=
              Some
                (diag_sim
                   (Printf.sprintf "stimulus for unknown signal %s" name)))
    names;
  match !err with
  | Some d -> Error d
  | None ->
    let suffix = Array.make (k + 1) 1 in
    let ok = ref true in
    for i = k - 1 downto 0 do
      let p = suffix.(i + 1) * Array.length alts.(i) in
      if p > stim_cap then ok := false;
      suffix.(i) <- p
    done;
    if not !ok then
      Error
        (Putil.Diag.errorf ~code:code_stim
           "%d stimulus inputs yield more than %d combinations per instant"
           k stim_cap)
    else
      Ok { ss_names = names; ss_idx = idx; ss_alts = alts; ss_suffix = suffix;
           ss_count = suffix.(0) }

(* digit of input [i] at combination index [s] *)
let stim_digit sp i s =
  (s / sp.ss_suffix.(i + 1)) mod Array.length sp.ss_alts.(i)

(* write combination [s] into the instance's (cleared) dense stimulus
   buffer *)
let fill_stim c sp s =
  for i = 0 to Array.length sp.ss_idx - 1 do
    match sp.ss_alts.(i).(stim_digit sp i s) with
    | Some v -> Compile.set_stim c sp.ss_idx.(i) v
    | None -> ()
  done

(* the assoc list the historical [combinations] built for index [s] *)
let stim_assoc sp s =
  let acc = ref [] in
  for i = 0 to Array.length sp.ss_idx - 1 do
    match sp.ss_alts.(i).(stim_digit sp i s) with
    | Some v -> acc := (sp.ss_names.(i), v) :: !acc
    | None -> ()
  done;
  !acc

(* trail of combination indices (newest first) -> stimulus sequence *)
let trail_assoc sp trail = List.rev_map (stim_assoc sp) trail

let default_jobs () =
  match Sys.getenv_opt "EXPLORE_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* OCaml 5's [Max_domains]: the pool spawns [jobs - 1] domains next to
   the calling one, and one more than this fails inside [Domain.spawn]
   with the earlier ones already running *)
let max_jobs = 128

(* The original sequential depth-first search, kept as the reference
   semantics the parallel search is tested against. *)
let check_dfs ?(depth = 8) ~inputs ~safe kp =
  match Compile.compile kp with
  | Error m -> Error (diag_compile m)
  | Ok c -> (
    match stim_space c inputs with
    | Error d -> Error d
    | Ok sp -> (
      Compile.set_recording c false;
      let nstim = sp.ss_count in
      let kb = Compile.keybuf () in
      (* visited: state key -> best (largest) remaining depth already
         explored from that state *)
      let visited : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      let states = ref 0 in
      let exception Stop of verdict in
      let exception Sim_failure of string in
      let rec go remaining trail =
        if remaining > 0 then begin
          let k = Compile.state_key c kb in
          let seen =
            match Hashtbl.find_opt visited k with
            | Some r when r >= remaining -> true
            | _ ->
              Hashtbl.replace visited k remaining;
              false
          in
          if not seen then begin
            incr states;
            let snap = Compile.snapshot c in
            for s = 0 to nstim - 1 do
              Compile.restore c snap;
              match
                Compile.run_batched c ~n:1 ~fill:(fun c _ -> fill_stim c sp s)
              with
              | Ok () ->
                if not (safe (Compile.present_assoc c)) then
                  raise (Stop (Violated (trail_assoc sp (s :: trail))));
                go (remaining - 1) (s :: trail)
              | Error m -> raise (Sim_failure m)
            done
          end
        end
      in
      match go depth [] with
      | () -> Ok (Holds, !states)
      | exception Stop v -> Ok (v, !states)
      | exception Sim_failure m -> Error (diag_sim m)))

(* Breadth-first frontier search, one depth slice at a time, fanned out
   over a domain pool.

   Level [d] holds every state first reached after [d] instants. The
   level's items are expanded in parallel: each task borrows a compiled
   instance (all instances share one memoized plan, so an extra instance
   is just fresh delay/FIFO state) paired with a serialization buffer,
   restores the item's snapshot, and steps it once per stimulus index.
   New states are claimed in a sharded visited table keyed by
   {!Compile.state_key} (fixed-width digest through the reused buffer).

   Determinism. Every run — any job count, any scheduling — returns the
   same verdict, the same counterexample, and the same state count:

   - an edge is (item index, stimulus index), encoded as
     [item * nstim + stim]; items keep their frontier order, so edge
     keys are schedule-independent;
   - a violating (or failing) edge is min-merged into [best_edge]; edges
     strictly above the current bound may be skipped (they cannot win),
     edges below it always complete, so the surviving edge is the global
     minimum — the shallowest, lexicographically-least counterexample;
   - a fresh state may be claimed by several same-level edges
     concurrently; the table min-merges their keys and the sequential
     merge after the level barrier keeps exactly the child whose edge
     key equals the table's value, i.e. the least edge producing that
     state. The next frontier (order included) is therefore independent
     of the race outcome.

   The claim protocol in the visited table: [-1] marks a state already
   merged into some frontier (expanded, never to be re-entered); a
   non-negative value is the least edge key claiming it during the level
   in flight. The merge promotes claims to [-1].

   The state count matches the DFS within dedup tolerance: BFS reaches
   every state at its minimal depth, hence maximal remaining budget, and
   expands it exactly once, while the DFS may re-expand a state reached
   again with a larger remaining budget. *)
let check ?(depth = 8) ?jobs ~inputs ~safe kp =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if jobs > max_jobs then
    Error
      (Putil.Diag.errorf ~code:code_jobs
         "%d exploration jobs requested; at most %d domains can run" jobs
         max_jobs)
  else
  Putil.Tracing.with_span "explore.check"
    ~args:
      [ ("depth", Putil.Tracing.Aint depth);
        ("jobs", Putil.Tracing.Aint jobs) ]
  @@ fun () ->
  match Compile.compile kp with
  | Error m -> Error (diag_compile m)
  | Ok c0 -> (
    match stim_space c0 inputs with
    | Error d -> Error d
    | Ok sp ->
      Metrics.incr m_checks;
      Metrics.set m_domains jobs;
      Metrics.time m_check_ns @@ fun () ->
      if depth <= 0 then Ok (Holds, 0)
      else begin
        Compile.set_recording c0 false;
        let nstim = sp.ss_count in
        (* Instance lending: a task borrows an instance (and its paired
           key buffer) for a whole chunk, so at most [jobs] instances
           ever exist. [c0] seeds the pool. *)
        let kb0 = Compile.keybuf () in
        let inst_free = ref [ (c0, kb0) ] in
        let inst_mu = Mutex.create () in
        let with_instance f =
          let borrowed =
            Mutex.protect inst_mu (fun () ->
              match !inst_free with
              | c :: tl ->
                inst_free := tl;
                Some c
              | [] -> None)
          in
          let c =
            match borrowed with
            | Some c -> c
            | None ->
              (* A fork over [c0]'s already-built plan cannot fail, so
                 instance exhaustion can never crash the search. *)
              let c = Compile.fork c0 in
              Compile.set_recording c false;
              (c, Compile.keybuf ())
          in
          Fun.protect
            ~finally:(fun () ->
              Mutex.protect inst_mu (fun () -> inst_free := c :: !inst_free))
            (fun () -> f c)
        in
        let visited : int Shard_tbl.t = Shard_tbl.create () in
        Shard_tbl.update visited (Compile.state_key c0 kb0) (fun _ ->
            Some (-1));
        let states = ref 1 in
        let frontier = ref [| (Compile.snapshot c0, ([] : int list)) |] in
        let frontier_peak = ref 1 in
        let best_edge = Atomic.make max_int in
        let best_outcome :
            (int * ((verdict, Putil.Diag.t) result)) option ref =
          ref None
        in
        let outcome_mu = Mutex.create () in
        let record ek out =
          let rec lower () =
            let cur = Atomic.get best_edge in
            if ek < cur && not (Atomic.compare_and_set best_edge cur ek) then
              lower ()
          in
          lower ();
          Mutex.protect outcome_mu @@ fun () ->
          match !best_outcome with
          | Some (bek, _) when bek <= ek -> ()
          | _ -> best_outcome := Some (ek, out)
        in
        let result = ref None in
        Pool.with_pool jobs @@ fun pool ->
        let level = ref 0 in
        while !result = None && !level < depth && Array.length !frontier > 0
        do
          let items = !frontier in
          let n = Array.length items in
          if n > !frontier_peak then frontier_peak := n;
          let expand_children = !level + 1 < depth in
          let children = Array.make n [||] in
          Atomic.set best_edge max_int;
          best_outcome := None;
          let chunk = max 1 ((n + (jobs * 8) - 1) / (jobs * 8)) in
          let tasks = ref [] in
          let lo = ref 0 in
          while !lo < n do
            let lo0 = !lo in
            let hi0 = min n (lo0 + chunk) in
            lo := hi0;
            tasks :=
              (fun () ->
                with_instance @@ fun (c, kb) ->
                for i = lo0 to hi0 - 1 do
                  let base = i * nstim in
                  if base < Atomic.get best_edge then begin
                    let snap, trail = items.(i) in
                    let kids =
                      if expand_children then Array.make nstim None else [||]
                    in
                    for s = 0 to nstim - 1 do
                      let ek = base + s in
                      if ek < Atomic.get best_edge then begin
                        Compile.restore c snap;
                        match
                          Compile.run_batched c ~n:1 ~fill:(fun c _ ->
                              fill_stim c sp s)
                        with
                        | Ok () ->
                          Metrics.incr m_steps;
                          if not (safe (Compile.present_assoc c)) then
                            record ek
                              (Ok (Violated (trail_assoc sp (s :: trail))))
                          else if expand_children then begin
                            let dg = Compile.state_key c kb in
                            let claimed = ref false in
                            Shard_tbl.update visited dg (function
                              | None ->
                                claimed := true;
                                Some ek
                              | Some cur when cur >= 0 && ek < cur ->
                                claimed := true;
                                Some ek
                              | keep -> keep);
                            if !claimed then
                              kids.(s) <-
                                Some (dg, Compile.snapshot c, s :: trail)
                          end
                        | Error m -> record ek (Error (diag_sim m))
                      end
                    done;
                    children.(i) <- kids
                  end
                done)
              :: !tasks
          done;
          Pool.run_tasks pool (List.rev !tasks);
          (match !best_outcome with
          | Some (_, Ok v) -> result := Some (Ok (v, !states))
          | Some (_, Error m) -> result := Some (Error m)
          | None ->
            if expand_children then begin
              let next = ref [] in
              for i = 0 to n - 1 do
                let kids = children.(i) in
                for s = 0 to Array.length kids - 1 do
                  match kids.(s) with
                  | Some (dg, snap, trail) -> (
                    let ek = (i * nstim) + s in
                    match Shard_tbl.find_opt visited dg with
                    | Some v when v = ek ->
                      (* least edge producing [dg]: its child is the
                         state's canonical representative *)
                      Shard_tbl.update visited dg (fun _ -> Some (-1));
                      incr states;
                      next := (snap, trail) :: !next
                    | _ -> ())
                  | None -> ()
                done
              done;
              frontier := Array.of_list (List.rev !next)
            end
            else frontier := [||]);
          incr level
        done;
        Metrics.set m_states !states;
        Metrics.set m_frontier_max !frontier_peak;
        match !result with
        | Some r -> r
        | None -> Ok (Holds, !states)
      end)

(* Symbolic engine front-end: run the BDD reachability, then ground any
   symbolic counterexample by replaying its stimulus sequence on a
   fresh explicit instance — the verdict handed back is always
   explicit-simulator truth, never just a BDD artifact. *)
(* sat_count can exceed the int range; saturate rather than wrap *)
let states_int f = if f >= float_of_int max_int then max_int else int_of_float f

(* one replay instant over the dense stimulus ABI: named arrivals into
   the stimulus buffer, then the boxed present view for the safety
   predicate *)
let step_assoc r stimulus =
  match
    Compile.run_batched r ~n:1 ~fill:(fun r _ ->
        List.iter (fun (x, v) -> Compile.set_stim_named r x v) stimulus)
  with
  | Error _ as e -> e
  | Ok () -> Ok (Compile.present_assoc r)

let check_symbolic ?depth ~inputs ~prop kp =
  match Compile.compile kp with
  | Error m -> Error (diag_compile m)
  | Ok c -> (
    (* shared name validation only: the combination-count cap is a
       limit of the enumerating engines, not of image computation *)
    match stim_space c inputs with
    | Error d when d.Putil.Diag.code <> code_stim -> Error d
    | Error _ | Ok _ -> (
      match Symbolic.run ?depth ~inputs ~prop c with
      | Error d -> Error d
      | Ok (Symbolic.Sym_holds { states; _ }) ->
        Ok (Holds, states_int states)
      | Ok (Symbolic.Sym_cex { kind; stimuli; states }) ->
        let r = Compile.fork c in
        Compile.set_recording r false;
        let safe = Symbolic.safe_of_prop prop in
        let diverged i m =
          Error
            (Putil.Diag.errorf ~code:code_replay
               "symbolic counterexample diverged at instant %d: %s" i m)
        in
        let rec replay i = function
          | [] -> diverged i "empty stimulus sequence"
          | [ stimulus ] -> (
            match step_assoc r stimulus with
            | Ok present -> (
              match kind with
              | `Violation when not (safe present) ->
                Ok (Violated stimuli, states_int states)
              | `Violation -> diverged i "explicit run stays safe"
              | `Runtime_error ->
                diverged i "explicit run does not raise")
            | Error m -> (
              match kind with
              | `Runtime_error -> Error (diag_sim m)
              | `Violation -> diverged i m))
          | stimulus :: rest -> (
            match step_assoc r stimulus with
            | Ok _ -> replay (i + 1) rest
            | Error m -> diverged i m)
        in
        replay 1 stimuli))

let reachable_states ?depth ?jobs ~inputs kp =
  match check ?depth ?jobs ~inputs ~safe:(fun _ -> true) kp with
  | Ok (_, n) -> Ok n
  | Error m -> Error m
