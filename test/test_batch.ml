(* Batched and lockstep multi-scenario stepping over the dense
   stimulus ABI: byte-identical to the one-instant step loop and the
   fixpoint interpreter, and allocation-flat in steady state. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Engine = Polysim.Engine
module Compile = Polysim.Compile
module Trace = Polysim.Trace

let vi n = Types.Vint n
let vb b = Types.Vbool b
let ve = Types.Vevent

let analyzed () =
  match
    Polychrony.Pipeline.analyze
      ~registry:Polychrony.Case_study.registry_nominal
      Polychrony.Case_study.aadl_source
  with
  | Ok a -> a
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let case_stim t =
  ("tick", ve) :: (if t = 0 then [ ("env_pGo", vi 1) ] else [])

let fill_assoc c stim =
  List.iter (fun (x, v) -> Compile.set_stim_named c x v) stim

let step_all c stims =
  match Test_compile.step_named c stims with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* run_batched over the translated case study: same trace as the
   one-instant loop and as the interpreter *)
let test_run_batched_case_study () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let horizon = 48 in
  let stimuli = List.init horizon case_stim in
  let c_step = Result.get_ok (Compile.compile kp) in
  step_all c_step stimuli;
  let c_batch = Compile.fork c_step in
  (match
     Compile.run_batched c_batch ~n:horizon
       ~fill:(fun c t -> fill_assoc c (case_stim t))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "batched = one-instant loop" true
    (Trace.equal (Compile.trace c_step) (Compile.trace c_batch));
  match Engine.run kp ~stimuli with
  | Ok t_engine ->
    Alcotest.(check bool) "batched = interpreter" true
      (Trace.equal t_engine (Compile.trace c_batch))
  | Error m -> Alcotest.fail m

(* step_many: each scenario of a lockstep run equals an independent
   instance driven with the same stimuli *)
let test_step_many_case_study () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let horizon = 48 and k = 4 in
  (* scenario s delays the environment arrival by s base ticks *)
  let stim s t =
    ("tick", ve) :: (if t = s then [ ("env_pGo", vi 1) ] else [])
  in
  let c = Result.get_ok (Compile.compile_scenarios kp ~scenarios:k) in
  Alcotest.(check int) "carries k scenarios" k (Compile.scenarios c);
  for t = 0 to horizon - 1 do
    match Compile.step_many c ~fill:(fun c s -> fill_assoc c (stim s t)) with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  done;
  Alcotest.(check int) "one instant per lockstep call" horizon
    (Compile.instant c);
  for s = 0 to k - 1 do
    let ci = Result.get_ok (Compile.compile kp) in
    step_all ci (List.init horizon (stim s));
    Alcotest.(check bool)
      (Printf.sprintf "scenario %d = independent run" s)
      true
      (Trace.equal (Compile.trace_of c s) (Compile.trace ci))
  done;
  (* distinct environments must yield distinct traces: the lockstep
     striping is not just replicating scenario 0 *)
  Alcotest.(check bool) "scenarios differ" false
    (Trace.equal (Compile.trace_of c 0) (Compile.trace_of c 1))

(* the same lockstep-vs-independent law at the pipeline level *)
let test_pipeline_scenarios () =
  let a = analyzed () in
  let k = 3 in
  let envs s t = if t = s then [ ("env_pGo", 1) ] else [] in
  match Polychrony.Pipeline.simulate_scenarios ~envs ~scenarios:k a with
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  | Ok traces ->
    Alcotest.(check int) "one trace per scenario" k (Array.length traces);
    for s = 0 to k - 1 do
      match Polychrony.Pipeline.simulate ~compiled:true ~env:(envs s) a with
      | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
      | Ok tr ->
        Alcotest.(check bool)
          (Printf.sprintf "scenario %d = independent simulate" s)
          true (Trace.equal traces.(s) tr)
    done

(* an Error out of step_many leaves scenario 0 selected, like every
   other exit: the dense accessors read and write scenario 0, not the
   scenario whose stimulus failed *)
let test_step_many_error_selects_scenario_0 () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let c = Result.get_ok (Compile.compile_scenarios kp ~scenarios:2) in
  let index x =
    match Compile.signal_index c x with
    | Some i -> i
    | None -> Alcotest.fail ("case study has no signal " ^ x)
  in
  let tick = index "tick" and go = index "env_pGo" in
  let non_input =
    match
      List.find_opt
        (fun i -> not (Compile.is_input c i))
        (List.init (Compile.n_signals c) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "case study has no non-input signal"
  in
  (* scenario 0 ticks and steps; scenario 1's stimulus is refused *)
  (match
     Compile.step_many c ~fill:(fun c s ->
         if s = 0 then begin
           Compile.set_stim c tick ve;
           Compile.set_stim c go (vi 1)
         end
         else Compile.set_stim c non_input ve)
   with
  | Ok () -> Alcotest.fail "a non-input stimulus must fail the step"
  | Error _ -> ());
  Alcotest.(check bool) "out_present reads scenario 0" true
    (Compile.out_present c tick);
  Compile.set_stim c go (vi 7);
  Alcotest.(check bool) "set_stim writes scenario 0" true
    (Compile.out_value c go = Some (vi 7))

(* an environment naming an unknown input fails both compiled drivers
   with one SIM-001 diagnostic naming the instant *)
let test_unknown_input_same_error () =
  let a = analyzed () in
  let env t = if t = 3 then [ ("env_nope", 1) ] else [] in
  let diag = function
    | Ok _ -> Alcotest.fail "an unknown input must fail the simulation"
    | Error [ d ] -> (d.Putil.Diag.code, d.Putil.Diag.message)
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  let single = diag (Polychrony.Pipeline.simulate ~compiled:true ~env a) in
  let lockstep =
    diag
      (Polychrony.Pipeline.simulate_scenarios ~envs:(fun _ -> env)
         ~scenarios:3 a)
  in
  Alcotest.(check (pair string string)) "simulate ~compiled:true"
    ("SIM-001", "instant 3: stimulus for unknown signal env_nope") single;
  Alcotest.(check (pair string string)) "simulate_scenarios" single lockstep

(* Only a plan failure sends the default engine to the interpreter: a
   step error stays the compiled engine's SIM-001, and a scenario count
   below 1 is an argument error, never a COMPILE-001 *)
let test_default_engine_errors () =
  let a = analyzed () in
  let diag = function
    | Ok _ -> Alcotest.fail "expected a failed simulation"
    | Error [ d ] -> (d.Putil.Diag.code, d.Putil.Diag.message)
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  let fallbacks () =
    Putil.Metrics.counter_value Putil.Metrics.global
      "pipeline.simulate_fallbacks"
  in
  let before = fallbacks () in
  let env t = if t = 3 then [ ("env_nope", 1) ] else [] in
  Alcotest.(check (pair string string)) "step error: default = compiled"
    (diag (Polychrony.Pipeline.simulate ~compiled:true ~env a))
    (diag (Polychrony.Pipeline.simulate ~env a));
  Alcotest.(check int) "no fallback on a step error" before (fallbacks ());
  Alcotest.(check (pair string string)) "scenarios:0"
    ("SIM-001", "scenarios must be >= 1, got 0")
    (diag (Polychrony.Pipeline.simulate_scenarios ~scenarios:0 a));
  (* K x signals over the declared limit is refused before the K-sized
     state exists: no Out_of_memory, no Invalid_argument out of
     Array.make, and next to no allocation *)
  let huge = 1_000_000_000 in
  let n = Signal_lang.Kernel.st_count (Signal_lang.Kernel.sigtab a.kernel) in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  let got = diag (Polychrony.Pipeline.simulate_scenarios ~scenarios:huge a) in
  let major = (Gc.quick_stat ()).Gc.major_words -. w0 in
  Alcotest.(check (pair string string)) "scenarios:10^9"
    ( "SIM-001",
      Printf.sprintf
        "%d scenarios of %d signals exceed the limit of %d scenario slots \
         (at most %d scenarios)"
        huge n Compile.max_scenario_slots (Compile.max_scenario_slots / n) )
    got;
  Alcotest.(check bool)
    (Printf.sprintf "scenarios:10^9 allocates no state (%.0f major words)"
       major)
    true (major < 1000.);
  Alcotest.(check bool) "compile_scenarios refuses it too" true
    (Result.is_error (Compile.compile_scenarios a.kernel ~scenarios:huge));
  let most = Compile.max_scenario_slots / n in
  Alcotest.(check bool) "the limit itself is accepted" true
    (Result.is_ok (Compile.check_scenarios a.kernel most)
     && Result.is_error (Compile.check_scenarios a.kernel (most + 1)))

(* random kernels: batched and lockstep stepping agree with the
   one-instant loop (reusing the clock-consistent generator of
   test_compile) *)
let prop_batched_equivalence =
  QCheck2.Test.make
    ~name:"batched and lockstep = one-instant step on random programs"
    ~count:150
    QCheck2.Gen.(pair Test_compile.gen_program Test_compile.gen_stimuli)
    (fun (p, stims) ->
      match N.process p with
      | Error _ -> true (* ill-typed generation is skipped *)
      | Ok kp -> (
        match Compile.compile kp with
        | Error _ -> true (* causality cycles are covered elsewhere *)
        | Ok c_step -> (
          let stimuli =
            Array.of_list
              (List.map (fun (n, b) -> [ ("x", vi n); ("c", vb b) ]) stims)
          in
          let horizon = Array.length stimuli in
          let fill c t =
            List.iter
              (fun (x, v) ->
                match Compile.signal_index c x with
                | Some i when Compile.is_input c i -> Compile.set_stim c i v
                | Some _ | None -> ())
              stimuli.(t)
          in
          let steps_ok =
            Array.for_all
              (fun t ->
                match
                  Compile.run_batched c_step ~n:1 ~fill:(fun c _ -> fill c t)
                with
                | Ok () -> true
                | Error _ -> false)
              (Array.init horizon Fun.id)
          in
          if not steps_ok then true (* runtime error: skip *)
          else
            let c_batch = Compile.fork c_step in
            match
              Compile.run_batched c_batch ~n:horizon ~fill
            with
            | Error _ -> false
            | Ok () ->
              Trace.equal (Compile.trace c_step) (Compile.trace c_batch)
              &&
              let k = 3 in
              (* scenario s runs the stimulus sequence rotated by s *)
              let stim_of s t = (t + s) mod horizon in
              let c_many =
                Result.get_ok (Compile.compile_scenarios kp ~scenarios:k)
              in
              let lockstep_ok = ref true in
              for t = 0 to horizon - 1 do
                match
                  Compile.step_many c_many
                    ~fill:(fun c s -> fill c (stim_of s t))
                with
                | Ok () -> ()
                | Error _ -> lockstep_ok := false
              done;
              !lockstep_ok
              && List.for_all
                   (fun s ->
                     let ci = Result.get_ok (Compile.compile kp) in
                     let indep_ok = ref true in
                     for t = 0 to horizon - 1 do
                       match
                         Compile.run_batched ci ~n:1 ~fill:(fun c _ ->
                             fill c (stim_of s t))
                       with
                       | Ok () -> ()
                       | Error _ -> indep_ok := false
                     done;
                     !indep_ok
                     && Trace.equal (Compile.trace_of c_many s)
                          (Compile.trace ci))
                   (List.init k Fun.id))))

(* the tentpole guarantee: the steady-state batched loop performs no
   per-instant allocation once recording is off *)
let test_steady_state_allocation_flat () =
  let kp = (analyzed ()).Polychrony.Pipeline.kernel in
  let c = Result.get_ok (Compile.compile kp) in
  Compile.set_recording c false;
  let tick =
    match Compile.signal_index c "tick" with
    | Some i -> i
    | None -> Alcotest.fail "case study has no tick input"
  in
  let fill c _ = Compile.set_stim c tick ve in
  let run n =
    match Compile.run_batched c ~n ~fill with
    | Ok () -> ()
    | Error m -> Alcotest.fail m
  in
  run 64 (* reach steady state *);
  let words n =
    let w0 = Gc.minor_words () in
    run n;
    Gc.minor_words () -. w0
  in
  let d_short = words 200 in
  let d_long = words 2000 in
  (* whatever constant overhead the measurement itself carries, a run
     10x longer must not allocate beyond it *)
  Alcotest.(check bool)
    (Printf.sprintf
       "allocation flat (200 instants: %.0f minor words, 2000: %.0f)"
       d_short d_long)
    true
    (d_long -. d_short < 256.)

let case_kernel = lazy (analyzed ()).Polychrony.Pipeline.kernel

let case_index c x =
  match Compile.signal_index c x with
  | Some i -> i
  | None -> Alcotest.fail ("case study has no signal " ^ x)

(* Minor words of [f ()]: deterministic for a given build, so the
   bounds below are exact gates, not timings. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

let check_words what ~bound words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words (bound %.0f)" what words bound)
    true (words <= bound)

(* With recording on, simulation pays for the instants it executes,
   not for signals x scenarios: an instance over a memoized plan
   shares the plan's trace header (no per-trace name interning), a
   scenario that shares an instant touches only its inputs, and a row
   is unboxed: one int per present signal and one per int payload.
   The case study's 480-instant trace reads 151 minor words per
   instant and 159 360 reachable words; with boxed (index, value)
   cells it read 369 and 267 711. *)
let test_allocation_per_instant () =
  let kp = Lazy.force case_kernel in
  ignore (Result.get_ok (Compile.compile kp));
  let c, w = minor_words (fun () -> Result.get_ok (Compile.compile kp)) in
  check_words "compile from a memoized plan" ~bound:2_000. w;
  let k = 16 in
  let cs, w =
    minor_words (fun () ->
        Result.get_ok (Compile.compile_scenarios kp ~scenarios:k))
  in
  check_words "compile_scenarios ~scenarios:16" ~bound:8_000. w;
  let tick = case_index c "tick" and go = case_index c "env_pGo" in
  (* the CLI's stimulus: a tick per base instant, an arrival on the
     environment input at instant [s] of scenario [s] *)
  let fill c s t =
    Compile.set_stim c tick ve;
    if t = s then Compile.set_stim c go (vi 1)
  in
  let n = 480 in
  let r, w =
    minor_words (fun () ->
        Compile.run_batched c ~n ~fill:(fun c t -> fill c 0 t))
  in
  if Result.is_error r then Alcotest.fail "run_batched failed";
  check_words "run_batched, per instant" ~bound:200. (w /. float_of_int n);
  let words = Obj.reachable_words (Obj.repr (Compile.trace c)) in
  Alcotest.(check bool)
    (Printf.sprintf "480-instant trace: %d reachable words (bound 175000)"
       words)
    true (words <= 175_000);
  let (), w =
    minor_words (fun () ->
        for t = 0 to n - 1 do
          match Compile.step_many cs ~fill:(fun c s -> fill c s t) with
          | Ok () -> ()
          | Error m -> Alcotest.fail m
        done)
  in
  check_words "step_many at K = 16, per scenario-instant" ~bound:40.
    (w /. float_of_int (k * n))

(* A stepping call clears only the inputs' slots and an executed
   instant resets the others, so no value of an earlier instant leaks
   into this one. [q := a / d] fails at instant 1 after the class of
   [x := q + 1] is decided but before [x] is computed: [x] is present
   without a value, although it had one at instant 0. *)
let test_no_stale_slots () =
  let p =
    B.proc ~name:"div"
      ~inputs:[ Ast.var "a" Types.Tint; Ast.var "d" Types.Tint ]
      ~outputs:[ Ast.var "x" Types.Tint ]
      ~locals:[ Ast.var "q" Types.Tint ]
      B.[ "q" := v "a" / v "d"; "x" := v "q" + i 1 ]
  in
  let c = Result.get_ok (Compile.compile (N.process_exn p)) in
  let x = case_index c "x" in
  let step a d =
    Compile.run_batched c ~n:1 ~fill:(fun c _ ->
        fill_assoc c [ ("a", vi a); ("d", vi d) ])
  in
  let value () = Option.map Types.value_to_string (Compile.out_value c x) in
  Alcotest.(check (result unit string)) "instant 0" (Ok ()) (step 4 2);
  Alcotest.(check (option string)) "x at instant 0" (Some "3") (value ());
  Alcotest.(check (result unit string)) "instant 1"
    (Error "instant 1: division by zero") (step 1 0);
  Alcotest.(check bool) "x's class is decided" true (Compile.out_present c x);
  Alcotest.(check (option string)) "x has no value" None (value ())

(* ---- lockstep sharing ---- *)

(* Sweeps over the case study whose scenarios merge, diverge and merge
   again: scenario [s]'s first arrival comes [s * gap] ticks late, a
   random subset gets a late second arrival (of another value), and
   sometimes one scenario names an unknown input at one instant. *)
let sweep_horizon = 48

let gen_sweep =
  QCheck2.Gen.(
    int_range 2 16 >>= fun k ->
    int_range 1 3 >>= fun gap ->
    list_repeat k (opt ~ratio:0.4 (int_range 20 (sweep_horizon - 1)))
    >>= fun seconds ->
    frequency
      [ (3, return None);
        (1, map Option.some
              (pair (int_range 0 (k - 1)) (int_range 0 (sweep_horizon - 1))))
      ]
    >|= fun bad -> (k, gap, Array.of_list seconds, bad))

let print_sweep (k, gap, seconds, bad) =
  Printf.sprintf "k=%d gap=%d seconds=[%s] bad=%s" k gap
    (String.concat ";"
       (Array.to_list
          (Array.map
             (function Some t -> string_of_int t | None -> "-")
             seconds)))
    (match bad with
     | Some (s, t) -> Printf.sprintf "(%d,%d)" s t
     | None -> "-")

let sweep_fill (_, gap, seconds, bad) c s t =
  Compile.set_stim c (case_index c "tick") ve;
  if t = s * gap mod sweep_horizon then
    Compile.set_stim c (case_index c "env_pGo") (vi 1)
  else if seconds.(s) = Some t then
    Compile.set_stim c (case_index c "env_pGo") (vi 2);
  if bad = Some (s, t) then Compile.set_stim_named c "env_nope" ve

(* every scenario of a sharing sweep equals an independent
   [run_batched] run, up to the first error, which is the same *)
let prop_sharing_differential =
  QCheck2.Test.make ~name:"lockstep sharing = independent runs" ~count:40
    ~print:print_sweep gen_sweep
    (fun ((k, _, _, _) as sw) ->
      let kp = Lazy.force case_kernel in
      let fill = sweep_fill sw in
      let c = Result.get_ok (Compile.compile_scenarios kp ~scenarios:k) in
      let rec lockstep t =
        if t >= sweep_horizon then None
        else
          match Compile.step_many c ~fill:(fun c s -> fill c s t) with
          | Ok () -> lockstep (t + 1)
          | Error m -> Some (t, m)
      in
      let got = lockstep 0 in
      let independent s n =
        let ci = Result.get_ok (Compile.compile kp) in
        match Compile.run_batched ci ~n ~fill:(fun c t -> fill c s t) with
        | Ok () -> (ci, None)
        | Error m -> (ci, Some ((Compile.instant ci, s), m))
      in
      let runs = Array.init k (fun s -> independent s sweep_horizon) in
      (* the lockstep order is instant-major, scenario-minor *)
      let expected =
        Array.fold_left
          (fun acc (_, e) ->
            match acc, e with
            | None, e | e, None -> e
            | Some (a, _), Some (b, _) -> if b < a then e else acc)
          None runs
      in
      let same_error =
        match got, expected with
        | None, None -> true
        | Some (t, m), Some ((t', _), m') -> t = t' && String.equal m m'
        | _, _ -> false
      in
      same_error
      && List.for_all
           (fun s ->
             let ci =
               match expected with
               | None -> fst runs.(s)
               | Some ((t, s_err), _) ->
                 fst (independent s (if s < s_err then t + 1 else t))
             in
             Trace.equal (Compile.trace_of c s) (Compile.trace ci))
           (List.init k Fun.id))

(* snapshot -> step -> restore -> step on a K > 1 instance, both from
   a merged state into a diverged one and back: every scenario equals
   an independent instance driven through the same calls, and restore
   brings back the snapshot's state key *)
let test_sharing_snapshot_restore () =
  let kp = Lazy.force case_kernel in
  let k = 4 in
  let kb = Compile.keybuf () in
  (* phase [p] of the script: 0 = everyone's arrival at instant 0,
     1 = scenario s's arrival at instant s, 2 = ticks only *)
  let stim phase s t c =
    Compile.set_stim c (case_index c "tick") ve;
    let arrive = match phase with 0 -> t = 0 | 1 -> t = s | _ -> false in
    if arrive then Compile.set_stim c (case_index c "env_pGo") (vi 1)
  in
  let script =
    (* phase, instants; [`Snap] / [`Restore] in between *)
    [ `Run (0, 12); `Snap; `Run (1, 6); `Restore; `Run (2, 10);
      `Run (1, 6); `Snap; `Run (2, 30); `Restore; `Run (2, 10) ]
  in
  let play c ~step =
    let snap = ref None and keys_ok = ref true in
    List.iter
      (function
        | `Run (phase, n) ->
          for t = 0 to n - 1 do
            match step c phase t with
            | Ok () -> ()
            | Error m -> Alcotest.fail m
          done
        | `Snap -> snap := Some (Compile.snapshot c, Compile.state_key c kb)
        | `Restore ->
          let s, key = Option.get !snap in
          Compile.restore c s;
          if not (String.equal (Compile.state_key c kb) key) then
            keys_ok := false)
      script;
    !keys_ok
  in
  let c = Result.get_ok (Compile.compile_scenarios kp ~scenarios:k) in
  Alcotest.(check bool) "restore brings back the state key" true
    (play c ~step:(fun c phase t ->
         Compile.step_many c ~fill:(fun c s -> stim phase s t c)));
  for s = 0 to k - 1 do
    let ci = Result.get_ok (Compile.compile kp) in
    ignore
      (play ci ~step:(fun c phase t ->
           Compile.run_batched c ~n:1 ~fill:(fun c _ -> stim phase s t c)));
    Alcotest.(check bool)
      (Printf.sprintf "scenario %d = independent instance" s)
      true
      (Trace.equal (Compile.trace_of c s) (Compile.trace ci))
  done

(* a call that steps only some scenarios of a merged instance leaves
   the others behind, so sharing must not outlive it: a [step_many]
   failing at scenario 1 (scenario 0 has stepped, 1 and 2 have not),
   and a [run_batched], which steps scenario 0 alone *)
let test_sharing_partial_steps () =
  let kp = Lazy.force case_kernel in
  let tick c = Compile.set_stim c (case_index c "tick") ve in
  let check what partial ahead =
    let c = Result.get_ok (Compile.compile_scenarios kp ~scenarios:3) in
    let many () =
      match Compile.step_many c ~fill:(fun c _ -> tick c) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m
    in
    many ();
    partial c;
    for _ = 1 to 20 do many () done;
    List.iter
      (fun s ->
        let n = 21 + if s = 0 then ahead else 0 in
        let ci = Result.get_ok (Compile.compile kp) in
        (match Compile.run_batched ci ~n ~fill:(fun c _ -> tick c) with
         | Ok () -> ()
         | Error m -> Alcotest.fail m);
        Alcotest.(check bool)
          (Printf.sprintf "%s: scenario %d = %d independent instants" what s n)
          true
          (Trace.equal (Compile.trace_of c s) (Compile.trace ci)))
      [ 0; 1; 2 ]
  in
  check "failed step_many"
    (fun c ->
      match
        Compile.step_many c ~fill:(fun c s ->
            tick c;
            if s = 1 then Compile.set_stim_named c "env_nope" ve)
      with
      | Ok () -> Alcotest.fail "an unknown input must fail the step"
      | Error _ -> ())
    1;
  check "run_batched"
    (fun c ->
      match Compile.run_batched c ~n:2 ~fill:(fun c _ -> tick c) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    2

let shared_instants () =
  Putil.Metrics.counter_value Putil.Metrics.global "compile.shared_instants"

let all_instants () =
  Putil.Metrics.counter_value Putil.Metrics.global "compile.instants"

(* the case study's default 16-scenario sweep (2 hyper-periods, 48
   instants): every scenario-instant is counted, 650 of the 768 are
   served by sharing; a single scenario never shares *)
let test_shared_instants_pinned () =
  let a = analyzed () in
  let sweep scenarios =
    let s0 = shared_instants () and i0 = all_instants () in
    (match Polychrony.Pipeline.simulate_scenarios ~scenarios a with
     | Ok _ -> ()
     | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds));
    (shared_instants () - s0, all_instants () - i0)
  in
  Alcotest.(check (pair int int)) "16 scenarios: shared, all" (650, 768)
    (sweep 16);
  Alcotest.(check (pair int int)) "1 scenario: shared, all" (0, 48)
    (sweep 1)

(* Trace rows over declarations of every type, with values of any
   constructor under any type (a [Vbool] under an [event] signal, a
   [Vevent] under a [bool] one, reals such as NaN and -0.0, strings):
   the compat [push] path and both simulators' row paths record them,
   and every reader returns the constructor and value recorded.
   [Trace.equal] agrees with [Types.equal_value] cell by cell. *)
let gen_value =
  QCheck2.Gen.(
    oneof
      [ return ve;
        map vb bool;
        map vi (oneof [ int; oneofl [ 0; -1; max_int; min_int ] ]);
        map
          (fun r -> Types.Vreal r)
          (oneof [ float; oneofl [ Float.nan; -0.0; 0.0; Float.infinity ] ]);
        map (fun x -> Types.Vstring x) (string_size ~gen:printable (0 -- 3))
      ])

(* a cell of [b] from the cell of [a]: mostly the same, sometimes a
   value [equal_value] still equates, sometimes anything *)
let gen_cell_like =
  let variant = function
    | Types.Vevent -> vb true
    | Types.Vbool true -> ve
    | Types.Vreal r when r = 0. -> Types.Vreal (-.r)
    | v -> v
  in
  fun cell ->
    QCheck2.Gen.(
      frequency
        [ (6, return cell);
          (2, return (Option.map variant cell));
          (1, option gen_value) ])

let gen_rows =
  QCheck2.Gen.(
    list_size (1 -- 6)
      (oneofl Types.[ Tevent; Tbool; Tint; Treal; Tstring ])
    >>= fun types ->
    list_size (0 -- 6) (array_repeat (List.length types) (option gen_value))
    >>= fun rows_a ->
    (* [b] has [a]'s shape, or drops its last instant *)
    let row_like row = flatten_a (Array.map gen_cell_like row) in
    pair (flatten_l (List.map row_like rows_a)) bool >|= fun (rows_b, drop) ->
    let rows_b =
      if drop && rows_b <> [] then List.rev (List.tl (List.rev rows_b))
      else rows_b
    in
    (types, rows_a, rows_b))

let print_rows (types, rows_a, rows_b) =
  let value = function
    | None -> "."
    | Some (Types.Vreal r) -> Printf.sprintf "%h" r
    | Some v -> Format.asprintf "%a" Types.pp_value v
  in
  let rows rs =
    String.concat " | "
      (List.map
         (fun r -> String.concat "," (Array.to_list (Array.map value r)))
         rs)
  in
  Printf.sprintf "types=%s\na=%s\nb=%s"
    (String.concat "," (List.map Types.styp_to_string types))
    (rows rows_a) (rows rows_b)

let sig_name i = Printf.sprintf "s%d" i

(* the compiled step's dispatch: typed entries for events, booleans
   and ints, [record] for the rest *)
let record_typed r i = function
  | Types.Vevent -> Trace.record_event r i
  | Types.Vbool b -> Trace.record_bool r i b
  | Types.Vint n -> Trace.record_int r i n
  | v -> Trace.record r i v

(* the same rows through [push], the typed entries (after a cleared
   false start, as a failed instant leaves it) and [record] (the
   interpreter's) *)
let traces_of types rows =
  let h = Trace.header (List.mapi (fun i t -> Ast.var (sig_name i) t) types) in
  let pushed = Trace.of_header h
  and typed = Trace.of_header h
  and generic = Trace.of_header h in
  let r = Trace.recorder h in
  List.iter
    (fun row ->
      Trace.push pushed
        (List.concat
           (List.mapi
              (fun i o ->
                match o with Some v -> [ (sig_name i, v) ] | None -> [])
              (Array.to_list row)));
      Trace.record_event r 0;
      Trace.clear r;
      Array.iteri (fun i o -> Option.iter (record_typed r i) o) row;
      Trace.push_row typed (Trace.take r);
      Array.iteri (fun i o -> Option.iter (Trace.record r i) o) row;
      Trace.push_row generic (Trace.take r))
    rows;
  [ pushed; typed; generic ]

(* same constructor and value; reals by bit pattern *)
let same_value v w =
  match v, w with
  | Types.Vreal a, Types.Vreal b ->
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | Types.Vreal _, _ | _, Types.Vreal _ -> false
  | _ -> v = w

let same_cell o o' =
  match o, o' with
  | None, None -> true
  | Some v, Some w -> same_value v w
  | _ -> false

let reads_back types rows tr =
  let rows = Array.of_list rows in
  Trace.length tr = Array.length rows
  && List.for_all
       (fun i ->
         let x = sig_name i in
         let column = Array.map (fun row -> row.(i)) rows in
         let present =
           List.filter (fun t -> column.(t) <> None)
             (List.init (Array.length rows) Fun.id)
         in
         Array.for_all Fun.id
           (Array.mapi
              (fun t cell ->
                same_cell (Trace.get_idx tr t i) cell
                && same_cell (Trace.get tr t x) cell)
              column)
         && Trace.tick_instants tr x = present
         && Trace.present_count tr x = List.length present
         && List.equal same_value (Trace.values_of tr x)
              (List.map (fun t -> Option.get column.(t)) present))
       (List.init (List.length types) Fun.id)

let equal_oracle rows_a rows_b =
  List.length rows_a = List.length rows_b
  && List.for_all2
       (Array.for_all2 (fun o o' ->
            match o, o' with
            | None, None -> true
            | Some v, Some w -> Types.equal_value v w
            | _ -> false))
       rows_a rows_b

let prop_trace_rows_round_trip =
  QCheck2.Test.make ~name:"trace rows decode what was recorded" ~count:300
    ~print:print_rows gen_rows
    (fun (types, rows_a, rows_b) ->
      let ta = traces_of types rows_a and tb = traces_of types rows_b in
      let expected = equal_oracle rows_a rows_b in
      List.for_all (reads_back types rows_a) ta
      && List.for_all (reads_back types rows_b) tb
      && List.for_all
           (fun a -> List.for_all (fun b -> Trace.equal a b = expected) tb)
           ta
      && List.for_all
           (fun a ->
             List.for_all
               (fun a' -> Trace.equal a a' = equal_oracle rows_a rows_a)
               ta)
           ta)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_batched_equivalence; prop_sharing_differential;
      prop_trace_rows_round_trip ]

let suite =
  [ ("batch",
     [ Alcotest.test_case "run_batched on case study" `Quick
         test_run_batched_case_study;
       Alcotest.test_case "step_many on case study" `Quick
         test_step_many_case_study;
       Alcotest.test_case "pipeline scenarios" `Quick
         test_pipeline_scenarios;
       Alcotest.test_case "step_many error selects scenario 0" `Quick
         test_step_many_error_selects_scenario_0;
       Alcotest.test_case "unknown input: one SIM-001 message" `Quick
         test_unknown_input_same_error;
       Alcotest.test_case "default engine: step and argument errors" `Quick
         test_default_engine_errors;
       Alcotest.test_case "steady-state allocation flat" `Quick
         test_steady_state_allocation_flat;
       Alcotest.test_case "allocation per executed instant" `Quick
         test_allocation_per_instant;
       Alcotest.test_case "no stale slots" `Quick test_no_stale_slots;
       Alcotest.test_case "sharing: snapshot, restore" `Quick
         test_sharing_snapshot_restore;
       Alcotest.test_case "sharing: partial steps reset it" `Quick
         test_sharing_partial_steps;
       Alcotest.test_case "sharing: shared instants pinned" `Quick
         test_shared_instants_pinned ]
     @ qsuite) ]
