(* Benchmark & artifact harness.

   The paper (DATE'13) is a tool paper: its evaluation artifacts are
   Figures 1-6, the Sec. V scheduling of the 4/6/8/8 ms thread set, and
   the scalability claims of Sec. IV-E. This harness regenerates every
   artifact (sections FIG1..FIG6, SCHED, DETERM, DEADLOCK, PROFILING)
   and measures the scalability claims with Bechamel
   (clock-calculus/N, translate/N, simulate, affine ops, parser, plus
   the ablations listed in DESIGN.md).

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- quick   (artifacts only) *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module K = Signal_lang.Kernel
module P = Polychrony.Pipeline
module CS = Polychrony.Case_study
module Ssched = Sched.Static_sched
module T = Sched.Task

let section name = Format.printf "@.======== %s ========@." name

let analyzed registry =
  match P.analyze ~registry CS.aadl_source with
  | Ok a -> a
  | Error m -> failwith (Putil.Diag.list_to_string m)

(* ------------------------------------------------------------------ *)
(* FIG 1: the prProdCons process in AADL (instance tree)               *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "FIG 1: ProducerConsumer instance model";
  Format.printf "%a@." Aadl.Instance.pp_tree (CS.instance ())

(* ------------------------------------------------------------------ *)
(* FIG 2: thread execution-time model — values arriving after          *)
(* Input_Time are processed at the next Input_Time                     *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "FIG 2: input freezing across dispatch frames";
  let p =
    B.proc ~name:"fig2"
      ~inputs:[ Ast.var "arr" Types.Tint; Ast.var "input_time" Types.Tevent ]
      ~outputs:[ Ast.var "frozen" Types.Tint; Ast.var "cnt" Types.Tint ]
      B.[ inst ~params:[ Types.Vint 4; Types.Vstring "dropoldest" ] ~label:"port" "in_event_port"
            [ v "arr"; v "input_time" ] [ "frozen"; "cnt" ] ]
  in
  let kp = N.process_exn p in
  (* value 1 arrives before the first Input_Time; values 2 and 3 arrive
     after it (paper Fig. 2) and are only visible at the next one *)
  let stimuli =
    [ [ ("arr", Types.Vint 1) ];
      [ ("input_time", Types.Vevent) ];
      [ ("arr", Types.Vint 2) ];
      [ ("arr", Types.Vint 3) ];
      [];
      [ ("input_time", Types.Vevent) ];
      [];
      [ ("input_time", Types.Vevent) ] ]
  in
  match Polysim.Engine.run kp ~stimuli with
  | Error m -> failwith m
  | Ok tr ->
    Polysim.Trace.chronogram Format.std_formatter tr;
    Format.printf
      "values 2,3 arrive after the first Input_Time: frozen only at the \
       second (count=2)@."

(* ------------------------------------------------------------------ *)
(* FIG 3 / FIG 4: generated SIGNAL models                              *)
(* ------------------------------------------------------------------ *)

let fig3_fig4 () =
  let a = analyzed CS.registry_nominal in
  let prog = a.P.translation.Trans.System_trans.program in
  section "FIG 3: system-level SIGNAL model (top process, instances)";
  (* print only the instance statements of the top process: the Fig. 3
     structure (processor scheduler + thread + shared data instances) *)
  let top = a.P.translation.Trans.System_trans.top in
  List.iter
    (fun st ->
      match Ast.desc st with
      | Ast.Sinstance i ->
        Format.printf "  %s: %s(...)@." i.Ast.inst_label i.Ast.inst_proc
      | Ast.Sdef _ | Ast.Spartial _ | Ast.Sclk_eq _ | Ast.Sclk_le _
      | Ast.Sclk_ex _ -> ())
    top.Ast.body;
  section "FIG 4: thProducer thread model in SIGNAL";
  (match Ast.find_process prog "th_ProdConsSys_prProdCons_thProducer" with
   | Some p -> Format.printf "%a@." Signal_lang.Pp.pp_process p
   | None -> failwith "producer model missing");
  (* the complete generated module, as an inspectable artifact (under
     the temp dir so bench runs leave no strays in the work tree) *)
  let sig_path =
    Filename.concat (Filename.get_temp_dir_name ()) "prodcons.sig"
  in
  let oc = open_out sig_path in
  output_string oc (Signal_lang.Pp.program_to_string prog);
  close_out oc;
  Format.printf "@.full SIGNAL module written to %s@." sig_path

(* ------------------------------------------------------------------ *)
(* FIG 5: the in event port process                                    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "FIG 5: in event port model (in_fifo + frozen_fifo)";
  Format.printf "%a@." Signal_lang.Pp.pp_process
    Signal_lang.Stdproc.in_event_port

(* ------------------------------------------------------------------ *)
(* FIG 6: shared data as a fifo_reset with partial definitions          *)
(* ------------------------------------------------------------------ *)

let contains s needle =
  let nh = String.length s and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
  go 0

let fig6 () =
  section "FIG 6: shared data Queue translation";
  let a = analyzed CS.registry_nominal in
  let top = a.P.translation.Trans.System_trans.top in
  List.iter
    (fun stmt ->
      let s = Signal_lang.Pp.stmt_to_string stmt in
      if contains s "Queue" then Format.printf "  %s@." s)
    top.Ast.body;
  (* and its runtime behaviour *)
  match P.simulate ~hyperperiods:2 a with
  | Error m -> failwith (Putil.Diag.list_to_string m)
  | Ok tr ->
    Polysim.Trace.chronogram
      ~signals:
        [ "prProdCons_thProducer_reqQueue_w"; "prProdCons_Queue_push";
          "prProdCons_Queue_data"; "prProdCons_Queue_size" ]
      Format.std_formatter tr

(* ------------------------------------------------------------------ *)
(* SCHED: Sec. V, 4/6/8/8 ms threads                                   *)
(* ------------------------------------------------------------------ *)

let sched_section () =
  section "SCHED: thread-level scheduler synthesis (Sec. IV-D / V)";
  let tasks =
    List.map
      (fun (name, period) -> T.make ~name ~period_us:period ~wcet_us:1000 ())
      CS.thread_periods_us
  in
  Format.printf "hyper-period: %d us (lcm of 4,6,8,8 ms)@."
    (T.hyperperiod_us tasks);
  List.iter
    (fun policy ->
      match Ssched.synthesize ~policy tasks with
      | Ok s ->
        Format.printf "@.%a@.%a@.%a@." Ssched.pp_schedule s Ssched.pp_gantt s
          Sched.Export.pp_export s;
        Format.printf "thProdTimer/thConsTimer dispatch synchronizable: %b@."
          (Sched.Export.synchronizable s "thProdTimer" "thConsTimer" Ssched.Dispatch)
      | Error f ->
        Format.printf "%s: infeasible (%s)@."
          (Ssched.policy_to_string policy)
          f.Ssched.f_message)
    [ Ssched.Edf; Ssched.Rm ]

(* ------------------------------------------------------------------ *)
(* DETERM: Sec. V-C determinism identification                         *)
(* ------------------------------------------------------------------ *)

let determ_section () =
  section "DETERM: automaton determinism (Sec. V-C)";
  let mk_model ~prioritized =
    let guard2 =
      if prioritized then B.(v "d" && not_ (v "c")) else B.(v "d")
    in
    B.proc
      ~name:(if prioritized then "with_priorities" else "no_priorities")
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "c" Types.Tbool;
                Ast.var "d" Types.Tbool ]
      ~outputs:[ Ast.var "state" Types.Tint ]
      B.[ clk (v "c") ^= clk (v "d");
          "state" =:: when_ (v "x") (v "c");
          "state" =:: when_ (v "x" + i 1) guard2 ]
  in
  List.iter
    (fun prioritized ->
      let kp = N.process_exn (mk_model ~prioritized) in
      let calc = Clocks.Calculus.analyze kp in
      let r = Analysis.Determinism.analyze calc kp in
      Format.printf "%s: %a@."
        (if prioritized then "transitions with priorities"
         else "transitions without priorities")
        Analysis.Determinism.pp_report r)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* DEADLOCK                                                            *)
(* ------------------------------------------------------------------ *)

let deadlock_section () =
  section "DEADLOCK: causality analysis";
  let cyclic =
    B.proc ~name:"cyclic"
      ~inputs:[ Ast.var "x" Types.Tint ]
      ~outputs:[ Ast.var "y" Types.Tint ]
      ~locals:[ Ast.var "w" Types.Tint ]
      B.[ "y" := v "w" + v "x"; "w" := v "y" + i 1 ]
  in
  let kp = N.process_exn cyclic in
  Format.printf "crafted cycle: %a@." Analysis.Deadlock.pp_report
    (Analysis.Deadlock.analyze kp);
  let a = analyzed CS.registry_nominal in
  Format.printf "translated case study: %a@." Analysis.Deadlock.pp_report
    a.P.deadlock

(* ------------------------------------------------------------------ *)
(* PROFILING (ref [16])                                                *)
(* ------------------------------------------------------------------ *)

let profiling_section () =
  section "PROFILING: cost-model timing evaluation (ref [16])";
  let a = analyzed CS.registry_nominal in
  match P.simulate ~hyperperiods:4 a with
  | Error m -> failwith (Putil.Diag.list_to_string m)
  | Ok tr ->
    let counts x = Polysim.Trace.present_count tr x in
    let r = Analysis.Profiling.with_counts ~counts a.P.kernel in
    Format.printf "%a@." Analysis.Profiling.pp_report r;
    Format.printf "estimated cost per hyper-period: %d units@."
      (r.Analysis.Profiling.total_weighted / 4)

(* ------------------------------------------------------------------ *)
(* Workload generators for the scalability benches                     *)
(* ------------------------------------------------------------------ *)

(* a when-sampling chain of depth n: one synchronization class per
   level, exercising the clock calculus (claim C1) *)
let chain_process n =
  let locals =
    List.init n (fun i -> Ast.var (Printf.sprintf "l%d" i) Types.Tint)
  in
  let body =
    B.("l0" := v "x")
    :: List.init (n - 1) (fun i ->
           let dst = Printf.sprintf "l%d" (i + 1) in
           let src = Printf.sprintf "l%d" i in
           B.(dst := when_ (v src) (v "c")))
    @
    let last = Printf.sprintf "l%d" (n - 1) in
    [ B.("y" := v last) ]
  in
  B.proc
    ~name:(Printf.sprintf "chain%d" n)
    ~locals
    ~inputs:[ Ast.var "x" Types.Tint; Ast.var "c" Types.Tbool ]
    ~outputs:[ Ast.var "y" Types.Tint ]
    body

(* a scaled ProducerConsumer: n independent producer/consumer pairs,
   each with its own queue, on one processor (claim C2) *)
let scaled_prodcons n =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "package Scaled\npublic\n";
  pf "  data Cell properties Queue_Size => 4; end Cell;\n";
  pf "  data implementation Cell.impl end Cell.impl;\n";
  for k = 0 to n - 1 do
    pf "  thread prod%d features\n" k;
    pf "      q: requires data access Cell {Access_Right => write_only;};\n";
    pf "    properties Dispatch_Protocol => Periodic; Period => 4 ms;\n";
    pf "      Compute_Execution_Time => 1 us;\n";
    pf "  end prod%d;\n" k;
    pf "  thread implementation prod%d.impl end prod%d.impl;\n" k k;
    pf "  thread cons%d features\n" k;
    pf "      q: requires data access Cell {Access_Right => read_only;};\n";
    pf "      o: out event data port;\n";
    pf "    properties Dispatch_Protocol => Periodic; Period => 6 ms;\n";
    pf "      Compute_Execution_Time => 1 us;\n";
    pf "  end cons%d;\n" k;
    pf "  thread implementation cons%d.impl end cons%d.impl;\n" k k
  done;
  pf "  process host features\n";
  for k = 0 to n - 1 do
    pf "    out%d: out event data port;\n" k
  done;
  pf "  end host;\n";
  pf "  process implementation host.impl\n    subcomponents\n";
  for k = 0 to n - 1 do
    pf "      p%d: thread prod%d.impl;\n" k k;
    pf "      c%d: thread cons%d.impl;\n" k k;
    pf "      q%d: data Cell.impl;\n" k
  done;
  pf "    connections\n";
  for k = 0 to n - 1 do
    pf "      ka%d: data access q%d -> p%d.q;\n" k k k;
    pf "      kb%d: data access q%d -> c%d.q;\n" k k k;
    pf "      kc%d: port c%d.o -> out%d;\n" k k k
  done;
  pf "  end host.impl;\n";
  pf "  processor cpu end cpu;\n";
  pf "  processor implementation cpu.impl end cpu.impl;\n";
  pf "  system sink features\n";
  for k = 0 to n - 1 do
    pf "    d%d: in event data port;\n" k
  done;
  pf "  end sink;\n";
  pf "  system implementation sink.impl end sink.impl;\n";
  pf "  system rig end rig;\n";
  pf "  system implementation rig.impl\n    subcomponents\n";
  pf "      h: process host.impl;\n";
  pf "      cpu0: processor cpu.impl;\n";
  pf "      s: system sink.impl;\n";
  pf "    connections\n";
  for k = 0 to n - 1 do
    pf "      sk%d: port h.out%d -> s.d%d;\n" k k k
  done;
  pf "    properties\n";
  pf "      Actual_Processor_Binding => reference (cpu0) applies to h;\n";
  pf "  end rig.impl;\n";
  pf "end Scaled;\n";
  Buffer.contents buf

let translate_scaled src =
  let pkg = Result.get_ok (Aadl.Parser.parse_package src) in
  let inst = Result.get_ok (Aadl.Instance.instantiate pkg ~root:"rig.impl") in
  Result.get_ok (Trans.System_trans.translate inst)

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* all (test, ns/run) rows measured in this process, for --json *)
let all_rows : (string * float) list ref = ref []

let run_benchs name tests =
  section name;
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> (test, est) :: acc
        | Some _ | None -> acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  all_rows := !all_rows @ rows;
  List.iter
    (fun (test, ns) ->
      if ns >= 1e9 then Format.printf "  %-52s %10.3f  s/run@." test (ns /. 1e9)
      else if ns >= 1e6 then
        Format.printf "  %-52s %10.3f ms/run@." test (ns /. 1e6)
      else if ns >= 1e3 then
        Format.printf "  %-52s %10.3f us/run@." test (ns /. 1e3)
      else Format.printf "  %-52s %10.1f ns/run@." test ns)
    rows

(* Medians, in ns per call, of [samples] interleaved timings of [f]
   and [g], each sample timing [iters] calls of its side after one
   warm-up sample per side. Alternating the sides cancels the clock
   drift and cache warm-up that two separate estimates pick up, and a
   full collection before each sample keeps one side's garbage from
   being collected on the other side's clock, so a gate on these
   medians is decided by the code, not by the moment. *)
let interleaved_medians ~samples (iters_f, f) (iters_g, g) =
  let sample iters h =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      h ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  ignore (sample iters_f f);
  ignore (sample iters_g g);
  let fs = Array.make samples 0. and gs = Array.make samples 0. in
  for i = 0 to samples - 1 do
    fs.(i) <- sample iters_f f;
    gs.(i) <- sample iters_g g
  done;
  let median arr =
    Array.sort compare arr;
    arr.(samples / 2)
  in
  (median fs, median gs)

(* C1: clock calculus over N-signal chains *)
let bench_clock_calculus () =
  let sizes = [ 100; 500; 2000; 4000 ] in
  let tests =
    List.map
      (fun n ->
        let kp = N.process_exn (chain_process n) in
        Test.make
          ~name:(Printf.sprintf "clock-calculus/%d" n)
          (Staged.stage (fun () -> ignore (Clocks.Calculus.analyze kp))))
      sizes
  in
  run_benchs "C1: clock calculus scaling (claim: several thousand clocks)"
    tests

(* C2: translation of scaled models *)
let bench_translate () =
  let sizes = [ 1; 4; 16; 64 ] in
  let tests =
    List.map
      (fun n ->
        let src = scaled_prodcons n in
        Test.make
          ~name:(Printf.sprintf "translate/%d-pairs" n)
          (Staged.stage (fun () -> ignore (translate_scaled src))))
      sizes
  in
  run_benchs "C2: ASME2SSME translation scaling" tests

(* parser throughput on the same scaled sources *)
let bench_parser () =
  let tests =
    List.map
      (fun n ->
        let src = scaled_prodcons n in
        Test.make
          ~name:
            (Printf.sprintf "parse/%d-pairs (%d bytes)" n (String.length src))
          (Staged.stage (fun () ->
               ignore (Result.get_ok (Aadl.Parser.parse_package src)))))
      [ 4; 16; 64 ]
  in
  run_benchs "parser throughput" tests

(* C5: simulation throughput on the translated case study —
   interpreter vs clock-directed compiled step (ref [15]) *)
let bench_simulate () =
  let a = analyzed CS.registry_nominal in
  let kp = a.P.kernel in
  let stim_at t =
    ("tick", Types.Vevent)
    :: (if t = 0 then [ ("env_pGo", Types.Vint 1) ] else [])
  in
  let interpret () =
    let eng = Polysim.Engine.create kp in
    for t = 0 to 23 do
      match Polysim.Engine.step eng ~stimulus:(stim_at t) with
      | Ok _ -> ()
      | Error m -> failwith m
    done
  in
  (* resolve the dense stimulus indices once: they are plan-derived,
     so any instance of the memoized plan shares them *)
  let c0 = Result.get_ok (Polysim.Compile.compile kp) in
  let tick = Option.get (Polysim.Compile.signal_index c0 "tick") in
  let go = Option.get (Polysim.Compile.signal_index c0 "env_pGo") in
  let run_batched () =
    match Polysim.Compile.compile kp with
    | Error m -> failwith m
    | Ok c -> (
      match
        Polysim.Compile.run_batched c ~n:24 ~fill:(fun c t ->
            Polysim.Compile.set_stim c tick Types.Vevent;
            if t = 0 then Polysim.Compile.set_stim c go (Types.Vint 1))
      with
      | Ok () -> ()
      | Error m -> failwith m)
  in
  let interpreted =
    Test.make ~name:"simulate/interpreter(24-instants)"
      (Staged.stage interpret)
  in
  let compiled =
    Test.make ~name:"simulate/compiled(24-instants)"
      (Staged.stage (fun () ->
           match Polysim.Compile.compile kp with
           | Error m -> failwith m
           | Ok c ->
             let tick = Option.get (Polysim.Compile.signal_index c "tick") in
             let go = Option.get (Polysim.Compile.signal_index c "env_pGo") in
             for t = 0 to 23 do
               match
                 Polysim.Compile.run_batched c ~n:1 ~fill:(fun c _ ->
                     Polysim.Compile.set_stim c tick Types.Vevent;
                     if t = 0 then Polysim.Compile.set_stim c go (Types.Vint 1))
               with
               | Ok () -> ()
               | Error m -> failwith m
             done))
  in
  let batched =
    Test.make ~name:"simulate/compiled-batched(24-instants)"
      (Staged.stage run_batched)
  in
  let compile_only =
    Test.make ~name:"simulate/compile-time"
      (Staged.stage (fun () ->
           match Polysim.Compile.compile kp with
           | Ok _ -> ()
           | Error m -> failwith m))
  in
  let compile_cold =
    Test.make ~name:"simulate/compile-cold"
      (Staged.stage (fun () ->
           match Polysim.Compile.compile_uncached kp with
           | Ok _ -> ()
           | Error m -> failwith m))
  in
  let codegen =
    Test.make ~name:"simulate/c-codegen(text)"
      (Staged.stage (fun () ->
           match Polysim.Compile.compile kp with
           | Error m -> failwith m
           | Ok c -> (
             match Polysim.Compile.to_c c with
             | Ok src -> ignore (String.length src)
             | Error m -> failwith m)))
  in
  run_benchs "C5: polychronous simulation throughput (ref [15] ablation)"
    [ interpreted; compiled; batched; compile_only; compile_cold; codegen ];
  (* the headline acceptance criterion: the compiled batched loop must
     beat the fixpoint interpreter by an order of magnitude on the
     hyper-period workload (same hard-floor convention as the
     edit-recheck bench). Two separate OLS rows put the ratio at the
     mercy of one slow or fast stretch, so the gate reads the ratio of
     interleaved medians instead. *)
  let samples = 21 in
  let interp_ns, batched_ns =
    interleaved_medians ~samples (2, interpret) (20, run_batched)
  in
  all_rows :=
    !all_rows
    @ [ ("simulate-floor/interpreter(median)", interp_ns);
        ("simulate-floor/compiled-batched(median)", batched_ns) ];
  Format.printf
    "  compiled-batched speedup: %.1fx (medians of %d interleaved samples; \
     acceptance floor: 10x)@."
    (interp_ns /. batched_ns) samples;
  if interp_ns < 10.0 *. batched_ns then
    failwith "simulate bench: compiled-batched under the 10x floor"

(* C6: lockstep multi-scenario stepping — one compiled plan advancing
   K striped state copies vs K independent batched runs. Scenarios
   whose state and stimulus coincide share the instant, so a sweep
   costs what its distinct (state, stimulus) pairs cost. The staggered
   sweep (scenario s's arrival s ticks late) converges once each
   arrival is queued; the diverging sweep (an arrival with probability
   1/5 per scenario-instant, drawn from a fixed seed) splits scenarios
   again and again, so it shares less and prices the bookkeeping of
   sharing. *)
let bench_scenarios () =
  let a = analyzed CS.registry_nominal in
  let kp = a.P.kernel in
  let horizon = 24 in
  let c0 = Result.get_ok (Polysim.Compile.compile kp) in
  let tick = Option.get (Polysim.Compile.signal_index c0 "tick") in
  let go = Option.get (Polysim.Compile.signal_index c0 "env_pGo") in
  let staggered t s = t = s mod horizon in
  let diverging =
    let rng = Random.State.make [| 6 |] in
    let arrive =
      Array.init 16 (fun _ ->
          Array.init horizon (fun _ -> Random.State.int rng 5 = 0))
    in
    fun t s -> arrive.(s).(t)
  in
  let fill_at arrives t c s =
    Polysim.Compile.set_stim c tick Types.Vevent;
    if arrives t s then Polysim.Compile.set_stim c go (Types.Vint 1)
  in
  let sweep arrives k =
    match Polysim.Compile.compile_scenarios kp ~scenarios:k with
    | Error m -> failwith m
    | Ok c ->
      for t = 0 to horizon - 1 do
        match Polysim.Compile.step_many c ~fill:(fill_at arrives t) with
        | Ok () -> ()
        | Error m -> failwith m
      done
  in
  let independent arrives k () =
    for s = 0 to k - 1 do
      match Polysim.Compile.compile kp with
      | Error m -> failwith m
      | Ok c -> (
        match
          Polysim.Compile.run_batched c ~n:horizon ~fill:(fun c t ->
              fill_at arrives t c s)
        with
        | Ok () -> ()
        | Error m -> failwith m)
    done
  in
  let row kind k f =
    Test.make ~name:(Printf.sprintf "scenarios/%s-%d(24-instants)" kind k)
      (Staged.stage f)
  in
  run_benchs "C6: lockstep multi-scenario stepping"
    [ row "lockstep" 1 (fun () -> sweep staggered 1);
      row "lockstep" 8 (fun () -> sweep staggered 8);
      row "lockstep" 64 (fun () -> sweep staggered 64);
      row "independent" 64 (independent staggered 64);
      row "lockstep-diverging" 16 (fun () -> sweep diverging 16);
      row "independent-diverging" 16 (independent diverging 16) ];
  let ns name =
    List.assoc_opt ("C6: lockstep multi-scenario stepping/" ^ name) !all_rows
  in
  let counter = Putil.Metrics.counter_value Putil.Metrics.global in
  let shared_pct arrives k =
    let s0 = counter "compile.shared_instants"
    and i0 = counter "compile.instants" in
    sweep arrives k;
    100. *. float_of_int (counter "compile.shared_instants" - s0)
    /. float_of_int (counter "compile.instants" - i0)
  in
  List.iter
    (fun (what, arrives, k) ->
      match
        ( ns (Printf.sprintf "scenarios/lockstep%s-%d(24-instants)" what k),
          ns (Printf.sprintf "scenarios/independent%s-%d(24-instants)" what k) )
      with
      | Some lock, Some indep ->
        Format.printf
          "  lockstep%s-%d: %.1f us amortized per scenario (independent: \
           %.1f us), %.0f%% of scenario-instants shared@."
          what k
          (lock /. float_of_int k /. 1e3)
          (indep /. float_of_int k /. 1e3)
          (shared_pct arrives k)
      | _ -> ())
    [ ("", staggered, 64); ("-diverging", diverging, 16) ]

(* C4: affine clock calculus micro-ops *)
let bench_affine () =
  let open Clocks.Affine in
  let r1 = relation ~n:3 ~phi:5 ~d:7 and r2 = relation ~n:2 ~phi:1 ~d:9 in
  let c1 = periodic ~period:12 ~offset:5 in
  let c2 = periodic ~period:18 ~offset:11 in
  let w1 = Clocks.Pword.of_periodic c1 and w2 = Clocks.Pword.of_periodic c2 in
  run_benchs "C4: affine clock calculus operations"
    [ Test.make ~name:"affine/compose"
        (Staged.stage (fun () -> ignore (compose r1 r2)));
      Test.make ~name:"affine/intersect"
        (Staged.stage (fun () -> ignore (intersect c1 c2)));
      Test.make ~name:"pword/land"
        (Staged.stage (fun () -> ignore (Clocks.Pword.land_ w1 w2)));
      Test.make ~name:"pword/equal"
        (Staged.stage (fun () -> ignore (Clocks.Pword.equal w1 w2))) ]

(* ablations from DESIGN.md *)
let bench_ablations () =
  (* hierarchy: structural inclusion matrix vs Φ-strengthened *)
  let a = analyzed CS.registry_nominal in
  let calc = Lazy.force a.P.calc in
  let mgr = Clocks.Calculus.manager calc in
  let reprs = Clocks.Calculus.class_reprs calc in
  let clocks =
    Array.of_list
      (List.map (fun (c, _) -> Clocks.Calculus.clock_of_class_id calc c) reprs)
  in
  let n = Array.length clocks in
  let phi = Clocks.Calculus.context calc in
  let structural () =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        ignore (Clocks.Bdd.implies mgr clocks.(i) clocks.(j))
      done
    done
  in
  let strengthened () =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        ignore
          (Clocks.Bdd.disjoint mgr phi
             (Clocks.Bdd.diff mgr clocks.(i) clocks.(j)))
      done
    done
  in
  (* scheduler policies on a 10-task set *)
  let tasks =
    List.init 10 (fun i ->
        T.make
          ~name:(Printf.sprintf "t%d" i)
          ~period_us:((2 + (i mod 4)) * 2000)
          ~wcet_us:400 ())
  in
  (* fifo primitive vs kernel-encoded memory *)
  let fifo_model =
    B.proc ~name:"bf"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "d" Types.Tint; Ast.var "s" Types.Tint ]
      B.[ inst ~params:[ Types.Vint 8; Types.Vstring "dropoldest" ] ~label:"q" "fifo" [ v "x"; v "e" ]
            [ "d"; "s" ] ]
  in
  let fm_model =
    B.proc ~name:"bm"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "d" Types.Tint ]
      ~locals:[ Ast.var "eb" Types.Tbool ]
      B.[ "eb" := when_ (b true) (clk (v "e"));
          inst ~label:"m" "fm" [ v "x"; v "eb" ] [ "d" ] ]
  in
  let kp_fifo = N.process_exn fifo_model in
  let kp_fm = N.process_exn fm_model in
  let drive kp =
    let eng = Polysim.Engine.create kp in
    for t = 0 to 63 do
      let stim =
        if t mod 2 = 0 then [ ("x", Types.Vint t) ]
        else [ ("e", Types.Vevent) ]
      in
      match Polysim.Engine.step eng ~stimulus:stim with
      | Ok _ -> ()
      | Error m -> failwith m
    done
  in
  run_benchs "ablations (DESIGN.md)"
    [ Test.make ~name:"ablation/hierarchy-structural" (Staged.stage structural);
      Test.make ~name:"ablation/hierarchy-phi-strengthened"
        (Staged.stage strengthened);
      Test.make ~name:"ablation/sched-edf"
        (Staged.stage (fun () -> ignore (Ssched.synthesize ~policy:Ssched.Edf tasks)));
      Test.make ~name:"ablation/sched-rm"
        (Staged.stage (fun () -> ignore (Ssched.synthesize ~policy:Ssched.Rm tasks)));
      Test.make ~name:"ablation/sched-fifo"
        (Staged.stage (fun () -> ignore (Ssched.synthesize ~policy:Ssched.Fifo tasks)));
      Test.make ~name:"ablation/fifo-primitive(64-instants)"
        (Staged.stage (fun () -> drive kp_fifo));
      Test.make ~name:"ablation/fm-kernel(64-instants)"
        (Staged.stage (fun () -> drive kp_fm)) ]

(* C8: domain-parallel bounded exploration. The workload is n
   independent event counters: after d instants each counter ranges
   over 0..d, so the explorer visits (d+1)^n - ish distinct states —
   n=4, depth=11 gives 14641, comfortably past the 10k mark. Each row
   is one full check timed wall-clock (a check takes seconds, far past
   Bechamel's sampling regime); verdicts, counterexamples and state
   counts are asserted identical across job counts and against the
   sequential DFS. *)
let multi_counter_process n =
  B.proc
    ~name:(Printf.sprintf "mcount%d" n)
    ~inputs:
      (List.init n (fun i -> Ast.var (Printf.sprintf "e%d" i) Types.Tevent))
    ~outputs:
      (List.init n (fun i -> Ast.var (Printf.sprintf "n%d" i) Types.Tint))
    (List.init n (fun i ->
         B.inst
           ~label:(Printf.sprintf "c%d" i)
           "counter"
           [ B.v (Printf.sprintf "e%d" i) ]
           [ Printf.sprintf "n%d" i ]))

let bench_explore () =
  section "C8: domain-parallel bounded exploration";
  let n = 4 and depth = 11 in
  let kp = N.process_exn (multi_counter_process n) in
  let inputs =
    List.init n (fun i ->
        (Printf.sprintf "e%d" i, [ None; Some Types.Vevent ]))
  in
  let safe _ = true in
  (* violated variant: counter 0 reaches 3 — exercises counterexample
     determinism across job counts *)
  let unsafe present = List.assoc_opt "n0" present <> Some (Types.Vint 3) in
  (* warm the plan memo so rows measure exploration, not compilation *)
  (match Polysim.Explore.check ~depth:1 ~jobs:1 ~inputs ~safe kp with
   | Ok _ -> ()
   | Error m -> failwith (Putil.Diag.to_string m));
  let reference = ref None in
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      let r = Polysim.Explore.check ~depth ~jobs ~inputs ~safe kp in
      let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      match r with
      | Error m -> failwith (Putil.Diag.to_string m)
      | Ok (v, states) ->
        let cex =
          match Polysim.Explore.check ~depth ~jobs ~inputs ~safe:unsafe kp with
          | Ok (Polysim.Explore.Violated trail, _) -> trail
          | Ok (Polysim.Explore.Holds, _) ->
            failwith "explore bench: violation not found"
          | Error m -> failwith (Putil.Diag.to_string m)
        in
        (match !reference with
         | None -> reference := Some (v, states, cex)
         | Some (v0, s0, cex0) ->
           if v0 <> v || s0 <> states then
             failwith
               (Printf.sprintf
                  "explore/%d-jobs diverged from 1-jobs: %d vs %d states"
                  jobs states s0);
           if cex0 <> cex then
             failwith
               (Printf.sprintf
                  "explore/%d-jobs: counterexample differs from 1-jobs" jobs));
        let name = Printf.sprintf "explore/%d-jobs" jobs in
        all_rows := !all_rows @ [ (name, dt_ns) ];
        Format.printf "  %-52s %10.3f ms/run  (%d states, depth %d)@." name
          (dt_ns /. 1e6) states depth)
    [ 1; 2; 4 ];
  (* the parallel search against the sequential reference semantics *)
  match Polysim.Explore.check_dfs ~depth ~inputs ~safe:unsafe kp, !reference with
  | Ok (Polysim.Explore.Violated _, _), Some _ ->
    Format.printf "  verdicts identical across 1/2/4 jobs and DFS@."
  | Ok _, _ -> failwith "explore bench: DFS verdict differs"
  | Error m, _ -> failwith (Putil.Diag.to_string m)

let bench_edit_recheck () =
  section "C9: digest-driven incremental edit-recheck";
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m))
  in
  let src = CS.aadl_source in
  let edited =
    match replace_once ~sub:"Period => 4 ms" ~by:"Period => 5 ms" src with
    | Some s -> s
    | None -> failwith "edit-recheck bench: period pattern not found"
  in
  let registry = CS.registry_nominal in
  (* External scheduler mode: per-task control events are inputs driven
     from the schedule tables, so a period edit leaves the generated
     program (hence its digest) invariant *)
  let mode = Trans.System_trans.External in
  let analyze ?session s =
    match P.analyze ?session ~registry ~mode s with
    | Ok a -> a
    | Error ds -> failwith (Putil.Diag.list_to_string ds)
  in
  (* cold: fresh session and cold clock-calculus memo every run *)
  let cold () =
    Clocks.Calculus.reset_cache ();
    let session = P.new_session () in
    ignore (analyze ~session src)
  in
  (* incremental: one warm session; alternate the period edit so every
     re-analysis sees source that really changed since the last run *)
  let session = P.new_session () in
  ignore (analyze ~session src);
  let edits = ref 0 in
  let incremental () =
    incr edits;
    ignore (analyze ~session (if !edits land 1 = 1 then edited else src))
  in
  let samples = 15 in
  let cold_ns, incr_ns =
    interleaved_medians ~samples (2, cold) (10, incremental)
  in
  all_rows :=
    !all_rows
    @ [ ("edit-recheck/cold-full", cold_ns);
        ("edit-recheck/incremental", incr_ns) ];
  Format.printf "  %-52s %10.3f ms/run@." "edit-recheck/cold-full"
    (cold_ns /. 1e6);
  Format.printf "  %-52s %10.3f ms/run@." "edit-recheck/incremental"
    (incr_ns /. 1e6);
  Format.printf
    "  speedup: %.1fx (medians of %d interleaved samples; acceptance \
     floor: 5x)@."
    (cold_ns /. incr_ns) samples;
  if cold_ns < 5.0 *. incr_ns then
    failwith "edit-recheck bench: incremental path under the 5x floor"

(* C9b: a behaviour edit that really changes ONE process (the producer
   arms its timer once instead of per job) must rerun exactly that
   process's typecheck/normalize work and replay every untouched
   sibling from the per-process memo. The counters are the proof: the
   bench asserts them per run, and reports the wall-clock ratio
   against a fully cold re-analysis for context. *)
let bench_edit_recheck_proc () =
  section "C9b: per-process incremental recheck (one-process edit)";
  let mode = Trans.System_trans.External in
  let analyze ~session ~registry =
    match P.analyze ~session ~registry ~mode CS.aadl_source with
    | Ok a -> a
    | Error ds -> failwith (Putil.Diag.list_to_string ds)
  in
  let counter name = Putil.Metrics.counter_value Putil.Metrics.global name in
  let iters = 20 in
  (* cold: fresh session and cold clock-calculus memo every run *)
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    Clocks.Calculus.reset_cache ();
    let session = P.new_session () in
    ignore (analyze ~session ~registry:CS.registry_nominal)
  done;
  let cold_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  (* incremental: one warm session; alternate the producer behaviour
     edit so every re-analysis changes exactly one process *)
  let session = P.new_session () in
  ignore (analyze ~session ~registry:CS.registry_nominal);
  ignore (analyze ~session ~registry:CS.registry_producer_variant);
  let ran0 = counter "incr.typecheck.proc_ran" in
  let skip0 = counter "incr.typecheck.proc_skipped" in
  let t0 = Unix.gettimeofday () in
  for i = 1 to iters do
    let registry =
      if i land 1 = 1 then CS.registry_nominal
      else CS.registry_producer_variant
    in
    ignore (analyze ~session ~registry)
  done;
  let incr_ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
  let ran = counter "incr.typecheck.proc_ran" - ran0 in
  let skipped = counter "incr.typecheck.proc_skipped" - skip0 in
  if ran <> iters then
    failwith
      (Printf.sprintf
         "edit-recheck-proc: expected 1 process retypechecked per run, got \
          %d over %d runs"
         ran iters);
  if skipped <= 0 then
    failwith "edit-recheck-proc: no process replayed from the memo";
  all_rows :=
    !all_rows
    @ [ ("edit-recheck-proc/cold-full", cold_ns);
        ("edit-recheck-proc/one-process", incr_ns) ];
  Format.printf "  %-52s %10.3f ms/run@." "edit-recheck-proc/cold-full"
    (cold_ns /. 1e6);
  Format.printf "  %-52s %10.3f ms/run@." "edit-recheck-proc/one-process"
    (incr_ns /. 1e6);
  Format.printf "  speedup: %.1fx  (%d proc reruns, %d replays over %d runs)@."
    (cold_ns /. incr_ns) ran skipped iters

(* C9c: steady-state warm start through the persistent store. Both
   arms pay a fresh session and a cold clock-calculus memo each run —
   the only difference is whether a shared on-disk --cache-dir store
   backs the session, so the ratio isolates what the store alone
   buys a brand-new process analyzing unchanged source. *)
let bench_warm_start () =
  section "C9c: warm start from the persistent cache store";
  let mode = Trans.System_trans.External in
  let registry = CS.registry_nominal in
  let analyze ?session () =
    match P.analyze ?session ~registry ~mode CS.aadl_source with
    | Ok a -> a
    | Error ds -> failwith (Putil.Diag.list_to_string ds)
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "poly_bench_store_%d" (Unix.getpid ()))
  in
  (if not (Sys.file_exists dir) then Unix.mkdir dir 0o755);
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let open_store () =
        match Putil.Cache_store.open_store dir with
        | Ok s -> s
        | Error m -> failwith ("warm-start bench: " ^ m)
      in
      (* populate the store once; every timed run below reopens it *)
      Clocks.Calculus.reset_cache ();
      ignore (analyze ~session:(P.new_session ~store:(open_store ()) ()) ());
      let run ~with_store () =
        Clocks.Calculus.reset_cache ();
        let session =
          if with_store then P.new_session ~store:(open_store ()) ()
          else P.new_session ()
        in
        ignore (analyze ~session ())
      in
      let samples = 15 in
      let cold_ns, warm_ns =
        interleaved_medians ~samples
          (4, run ~with_store:false) (4, run ~with_store:true)
      in
      all_rows :=
        !all_rows
        @ [ ("warm-start/no-store", cold_ns);
            ("warm-start/with-store", warm_ns) ];
      Format.printf "  %-52s %10.3f ms/run@." "warm-start/no-store"
        (cold_ns /. 1e6);
      Format.printf "  %-52s %10.3f ms/run@." "warm-start/with-store"
        (warm_ns /. 1e6);
      Format.printf
        "  speedup: %.1fx (medians of %d interleaved samples; acceptance \
         floor: 5x)@."
        (cold_ns /. warm_ns) samples;
      if cold_ns < 5.0 *. warm_ns then
        failwith "warm-start bench: store-backed session under the 5x floor")

(* C10: symbolic vs explicit bounded verification over the counter
   scaling family ({!Polysim.Models.counters}): k independent modulo-3
   counters give 3^k reachable states and 2^k stimulus combinations
   per instant, so explicit enumeration saturates around k=6 while BDD
   image computation stays polynomial per step under the interleaved
   per-class variable order. Small k runs both engines and asserts the
   verdicts and exact state counts agree; large k runs symbolic only
   and reports states/sec plus the peak live BDD node count (the
   [explore.sym.peak_nodes] gauge, which the --baseline metrics diff
   tracks for blowup across commits). The k=20 row enforces the
   acceptance floor: >10^6 states verified in under 10 s. *)
let bench_verify () =
  section "C10: symbolic vs explicit bounded verification";
  let module M = Polysim.Models in
  let module E = Polysim.Explore in
  let check ~engine ~depth k =
    let kp = M.counters k and inputs = M.counters_inputs k in
    let t0 = Unix.gettimeofday () in
    let r = P.verify_kernel ~depth ~jobs:2 ~engine ~never:"alarm" ~inputs kp in
    let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    match r with
    | Error m -> failwith (Putil.Diag.to_string m)
    | Ok (verdict, states, used) -> (verdict, states, used, dt_ns)
  in
  let row name dt_ns extra =
    all_rows := !all_rows @ [ (name, dt_ns) ];
    Format.printf "  %-52s %10.3f ms/run  (%s)@." name (dt_ns /. 1e6) extra
  in
  let states_per_sec states dt_ns = float_of_int states /. (dt_ns /. 1e9) in
  (* small k: both engines complete; they must agree exactly *)
  List.iter
    (fun k ->
      let ve, se, _, ens = check ~engine:`Explicit ~depth:8 k in
      let vs, ss, _, sns = check ~engine:`Symbolic ~depth:8 k in
      if ve <> E.Holds || vs <> E.Holds then
        failwith "verify bench: alarm property expected to hold";
      if se <> ss then
        failwith
          (Printf.sprintf
             "verify bench: engines disagree at k=%d: %d vs %d states" k se ss);
      row
        (Printf.sprintf "verify/explicit-k%d" k)
        ens
        (Printf.sprintf "%d states, %.3g states/sec" se
           (states_per_sec se ens));
      row
        (Printf.sprintf "verify/symbolic-k%d" k)
        sns
        (Printf.sprintf "%d states, %.3g states/sec" ss
           (states_per_sec ss sns)))
    [ 2; 4 ];
  (* large k: symbolic only — 3^13 ~ 1.6M and 3^20 ~ 3.5G states *)
  List.iter
    (fun k ->
      let v, states, used, dt_ns = check ~engine:`Symbolic ~depth:8 k in
      if v <> E.Holds then
        failwith "verify bench: alarm property expected to hold";
      if used <> `Symbolic then
        failwith "verify bench: symbolic engine expected";
      let peak =
        Putil.Metrics.counter_value Putil.Metrics.global
          "explore.sym.peak_nodes"
      in
      row
        (Printf.sprintf "verify/symbolic-k%d" k)
        dt_ns
        (Printf.sprintf "%d states, %.3g states/sec, peak %d BDD nodes"
           states
           (states_per_sec states dt_ns)
           peak);
      if k = 20 && dt_ns > 10. *. 1e9 then
        failwith "verify bench: symbolic k=20 over the 10 s acceptance floor";
      (* the interleaved per-class variable order keeps the relation
         linear in k (~10k live nodes at k=20); an ordering regression
         shows up as node blowup long before wall-clock does *)
      if k = 20 && peak > 200_000 then
        failwith
          "verify bench: symbolic k=20 peak nodes past the 200k ceiling")
    [ 13; 20 ]

(* C11: ambient observation scopes must be free in practice — the
   whole point of Putil.Obs is that sessions can always run scoped.
   Two bechamel rows time the identical batched-simulate workload with
   and without an active scope; the acceptance gate then re-measures
   both interleaved (alternating samples cancel clock drift and cache
   warm-up that separate OLS estimates don't) and compares medians. *)
let bench_obs_overhead () =
  let a = analyzed CS.registry_nominal in
  let kp = a.P.kernel in
  let c0 = Result.get_ok (Polysim.Compile.compile kp) in
  let tick = Option.get (Polysim.Compile.signal_index c0 "tick") in
  let go = Option.get (Polysim.Compile.signal_index c0 "env_pGo") in
  let run () =
    match Polysim.Compile.compile kp with
    | Error m -> failwith m
    | Ok c -> (
      match
        Polysim.Compile.run_batched c ~n:24 ~fill:(fun c t ->
            Polysim.Compile.set_stim c tick Types.Vevent;
            if t = 0 then Polysim.Compile.set_stim c go (Types.Vint 1))
      with
      | Ok () -> ()
      | Error m -> failwith m)
  in
  let scope = Putil.Obs.scope "bench-obs" in
  let plain = Test.make ~name:"obs/batched-no-scope" (Staged.stage run) in
  let scoped =
    Test.make ~name:"obs/batched-in-scope"
      (Staged.stage (fun () -> Putil.Obs.in_scope scope run))
  in
  run_benchs "C11: ambient-scope overhead (batched simulate)"
    [ plain; scoped ];
  (* interleaved-median acceptance gate: scoped within 3% of plain *)
  let p, s =
    interleaved_medians ~samples:31 (200, run)
      (200, fun () -> Putil.Obs.in_scope scope run)
  in
  all_rows :=
    !all_rows
    @ [ ("obs-overhead/no-scope(median)", p);
        ("obs-overhead/in-scope(median)", s) ];
  Format.printf "  %-52s %10.3f us/run@." "obs-overhead/no-scope(median)"
    (p /. 1e3);
  Format.printf "  %-52s %10.3f us/run@." "obs-overhead/in-scope(median)"
    (s /. 1e3);
  Format.printf "  scoped overhead: %+.2f%% (acceptance ceiling: 3%%)@."
    ((s -. p) /. p *. 100.);
  if s > 1.03 *. p then
    failwith "obs-overhead bench: ambient scope costs more than 3%"

let latency_section () =
  section "LATENCY: end-to-end flow latency over the static schedule";
  let a = analyzed CS.registry_nominal in
  let schedules = a.P.translation.Trans.System_trans.schedules in
  List.iter
    (fun (src, dst) ->
      match
        Trans.Latency.analyze a.P.instance ~schedules ~src ~dst
      with
      | Ok r -> Format.printf "%a@." Trans.Latency.pp_report r
      | Error m -> Format.printf "%s -> %s: %s@." src dst m)
    [ ("ProdConsSys.env.pGo", "ProdConsSys.display.pProdAlarm");
      ("ProdConsSys.env.pGo", "ProdConsSys.display.pConsAlarm") ]

(* --json PATH: after the run, write a BENCH_<section>.json-style
   record: {schema, section, rows: [{name, ns_per_run}], metrics} where
   [metrics] is the global Putil.Metrics snapshot accumulated by the
   instrumented libraries during the bench itself. *)
let write_json ~section:sec path =
  let module J = Putil.Metrics.Json in
  let record =
    J.Obj
      [ ("schema", J.String "polychrony-bench/v1");
        ("section", J.String (if sec = "" then "all" else sec));
        ("timestamp_unix", J.Float (Unix.gettimeofday ()));
        ( "rows",
          J.Arr
            (List.map
               (fun (name, ns) ->
                 J.Obj [ ("name", J.String name); ("ns_per_run", J.Float ns) ])
               !all_rows) );
        ("metrics", Putil.Metrics.to_json Putil.Metrics.global) ]
  in
  let oc = open_out path in
  output_string oc (J.to_string record);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.bench record written to %s@." path

(* --baseline FILE: diff this run's rows and metrics against a
   committed polychrony-bench/v1 record. Reporting only — it never
   fails the run, so CI can surface drift without gating merges on a
   noisy timing signal. *)
let baseline_diff ~threshold path =
  let module J = Putil.Metrics.Json in
  let warn m = Format.printf "@.baseline diff skipped: %s@." m in
  let contents =
    try
      let ic = open_in_bin path in
      Some
        (Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic (in_channel_length ic)))
    with Sys_error m ->
      warn m;
      None
  in
  match contents with
  | None -> ()
  | Some s -> (
    match J.of_string s with
    | Error m -> warn ("parse error: " ^ m)
    | Ok record
      when J.member "schema" record <> Some (J.String "polychrony-bench/v1")
      -> warn "not a polychrony-bench/v1 record"
    | Ok record ->
      let base_rows =
        match J.member "rows" record with
        | Some (J.Arr rows) ->
          List.filter_map
            (fun r ->
              match
                (J.member "name" r, J.to_float (J.member "ns_per_run" r))
              with
              | Some (J.String nm), Some ns -> Some (nm, ns)
              | _ -> None)
            rows
        | _ -> []
      in
      section
        (Printf.sprintf "BASELINE DIFF vs %s (threshold +%.0f%%)" path
           threshold);
      let regressions = ref 0 in
      List.iter
        (fun (name, cur) ->
          match List.assoc_opt name base_rows with
          | None -> Format.printf "  %-52s %10s  (new row)@." name "-"
          | Some base when base > 0. ->
            let ratio = cur /. base in
            let flag =
              if ratio > 1. +. (threshold /. 100.) then begin
                incr regressions;
                "  REGRESSION"
              end
              else ""
            in
            Format.printf "  %-52s %+9.1f%%  (%.3f ms -> %.3f ms)%s@." name
              ((ratio -. 1.) *. 100.)
              (base /. 1e6) (cur /. 1e6) flag
          | Some _ -> ())
        !all_rows;
      (* numeric metrics that moved more than the threshold; timers and
         other structured instruments are skipped *)
      (match (J.member "metrics" record, Putil.Metrics.to_json Putil.Metrics.global) with
       | Some (J.Obj base), J.Obj cur ->
         (* counters and gauges carry {"type", "value"}; timers have no
            single value and are skipped *)
         let num v = J.to_float (J.member "value" v) in
         let moved =
           List.filter_map
             (fun (k, v) ->
               match
                 (num v, Option.bind (List.assoc_opt k base) num)
               with
               | Some c, Some b
                 when b <> c
                      && Float.abs (c -. b)
                         > threshold /. 100. *. Float.max 1. (Float.abs b) ->
                 Some (k, b, c)
               | _ -> None)
             cur
         in
         if moved <> [] then begin
           Format.printf "@.  metrics moved more than %.0f%%:@." threshold;
           List.iter
             (fun (k, b, c) ->
               Format.printf "    %-40s %14.0f -> %14.0f@." k b c)
             moved
         end
       | _ -> ());
      (* the compiled-vs-interpreter ratio is the headline claim, so
         surface its drift explicitly: two rows can each move under the
         threshold while their ratio quietly erodes *)
      (let speedup rows =
         let prefix = "C5: polychronous simulation throughput (ref [15] ablation)/" in
         match
           ( List.assoc_opt (prefix ^ "simulate/interpreter(24-instants)") rows,
             List.assoc_opt (prefix ^ "simulate/compiled-batched(24-instants)")
               rows )
         with
         | Some i, Some b when b > 0. -> Some (i /. b)
         | _ -> None
       in
       match (speedup base_rows, speedup !all_rows) with
       | Some rb, Some rc ->
         Format.printf
           "@.  compiled-batched speedup vs interpreter: baseline %.1fx -> \
            current %.1fx@."
           rb rc
       | _ -> ());
      (* symbolic-verification headline: peak live BDD node count. A
         blowup here means the transition-relation variable order
         degraded, even when wall-clock rows stay under threshold on a
         faster machine. *)
      (let peak_of metrics =
         Option.bind (J.member "explore.sym.peak_nodes" metrics) (fun v ->
             J.to_float (J.member "value" v))
       in
       match
         ( Option.bind (J.member "metrics" record) peak_of,
           peak_of (Putil.Metrics.to_json Putil.Metrics.global) )
       with
       | Some b, Some c when b > 0. && c > 0. ->
         Format.printf
           "@.  symbolic peak BDD nodes: baseline %.0f -> current %.0f%s@." b c
           (if c > (1. +. (threshold /. 100.)) *. b then "  BLOWUP" else "")
       | _ -> ());
      Format.printf "@.  %d row regression(s) above +%.0f%%@." !regressions
        threshold)

(* One Chrome trace per bench section, written as TRACE_<section>.json
   in the --trace-dir directory: the observability layer applied to
   the benchmarks themselves. *)
let traced trace_dir name f =
  match trace_dir with
  | None -> f ()
  | Some dir ->
    let path = Filename.concat dir ("TRACE_" ^ name ^ ".json") in
    P.with_tracing ~trace_file:path f;
    Format.printf "  trace written to %s@." path

(* No argument: everything. [quick]: artifacts only. Any other
   argument selects one bench section by name (e.g. [simulate] for a
   CI smoke run of just that timing section); an unknown name is a
   usage error. *)
let () =
  let missing flag =
    prerr_endline ("error: " ^ flag ^ " requires an argument");
    exit 2
  in
  let rec parse_args (sec, json, baseline, threshold, tdir) = function
    | [] -> (sec, json, baseline, threshold, tdir)
    | "--json" :: path :: rest ->
      parse_args (sec, Some path, baseline, threshold, tdir) rest
    | [ "--json" ] -> missing "--json"
    | "--baseline" :: path :: rest ->
      parse_args (sec, json, Some path, threshold, tdir) rest
    | [ "--baseline" ] -> missing "--baseline"
    | "--threshold" :: pct :: rest -> (
      match float_of_string_opt pct with
      | Some t -> parse_args (sec, json, baseline, t, tdir) rest
      | None ->
        prerr_endline "error: --threshold requires a number (percent)";
        exit 2)
    | [ "--threshold" ] -> missing "--threshold"
    | "--trace-dir" :: dir :: rest ->
      parse_args (sec, json, baseline, threshold, Some dir) rest
    | [ "--trace-dir" ] -> missing "--trace-dir"
    | a :: rest -> parse_args (a, json, baseline, threshold, tdir) rest
  in
  let arg, json, baseline, threshold, trace_dir =
    parse_args ("", None, None, 25., None) (List.tl (Array.to_list Sys.argv))
  in
  let benches =
    [ ("clock-calculus", bench_clock_calculus);
      ("translate", bench_translate);
      ("parser", bench_parser);
      ("simulate", bench_simulate);
      ("scenarios", bench_scenarios);
      ("affine", bench_affine);
      ("explore", bench_explore);
      ("edit-recheck", bench_edit_recheck);
      ("edit-recheck-proc", bench_edit_recheck_proc);
      ("warm-start", bench_warm_start);
      ("verify", bench_verify);
      ("obs-overhead", bench_obs_overhead);
      ("ablations", bench_ablations) ]
  in
  let sections = "quick" :: List.map fst benches in
  if arg <> "" && not (List.mem arg sections) then begin
    prerr_endline
      (Printf.sprintf "error: unknown section %S (sections: %s)" arg
         (String.concat ", " sections));
    exit 2
  end;
  (match List.assoc_opt arg benches with
   | Some bench -> traced trace_dir arg bench
   | None ->
     fig1 ();
     fig2 ();
     fig3_fig4 ();
     fig5 ();
     fig6 ();
     sched_section ();
     determ_section ();
     deadlock_section ();
     profiling_section ();
     latency_section ();
     if arg <> "quick" then
       List.iter (fun (name, bench) -> traced trace_dir name bench) benches);
  (match json with
   | Some path -> write_json ~section:arg path
   | None -> ());
  (match baseline with
   | Some path -> baseline_diff ~threshold path
   | None -> ());
  Format.printf "@.done.@."
