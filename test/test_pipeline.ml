(* End-to-end pipeline on the ProducerConsumer case study: the paper's
   Sec. V validated by execution. *)

module P = Polychrony.Pipeline
module CS = Polychrony.Case_study
module Trace = Polysim.Trace
module Types = Signal_lang.Types

let analyzed_nominal =
  lazy
    (match P.analyze ~registry:CS.registry_nominal CS.aadl_source with
     | Ok a -> a
     | Error m -> failwith (Putil.Diag.list_to_string m))

let analyzed_timeout =
  lazy
    (match P.analyze ~registry:CS.registry_timeout CS.aadl_source with
     | Ok a -> a
     | Error m -> failwith (Putil.Diag.list_to_string m))

let simulate ?env ?hyperperiods a =
  match P.simulate ?env ?hyperperiods a with
  | Ok tr -> tr
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let ints tr x =
  List.map
    (function Types.Vint n -> n | v ->
      Alcotest.fail (Types.value_to_string v))
    (Trace.values_of tr x)

let test_analyze_clean () =
  let a = Lazy.force analyzed_nominal in
  Alcotest.(check (list string)) "no typecheck errors" []
    (List.map Signal_lang.Typecheck.error_to_string a.P.typecheck_errors);
  Alcotest.(check bool) "deterministic" true a.P.determinism.Analysis.Determinism.deterministic;
  Alcotest.(check bool) "deadlock free" true a.P.deadlock.Analysis.Deadlock.deadlock_free;
  Alcotest.(check bool) "clock system consistent" true
    (Clocks.Calculus.consistent (Lazy.force a.P.calc))

let test_clock_scale () =
  (* the translated system exercises the clock calculus on hundreds of
     signals — the paper's scalability dimension in miniature *)
  let a = Lazy.force analyzed_nominal in
  Alcotest.(check bool) "hundreds of signals" true
    (List.length (Signal_lang.Kernel.signals a.P.kernel) > 400);
  Alcotest.(check bool) "dozens of classes" true
    (Clocks.Calculus.class_count (Lazy.force a.P.calc) > 50)

let test_default_root_detection () =
  (* analyze without ~root finds ProdConsSys.impl *)
  match P.analyze ~registry:CS.registry_nominal CS.aadl_source with
  | Ok a ->
    Alcotest.(check string) "root" "ProdConsSys"
      a.P.instance.Aadl.Instance.root.Aadl.Instance.i_name
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let test_base_ticks () =
  let a = Lazy.force analyzed_nominal in
  Alcotest.(check int) "24 base ticks per hyper-period" 24
    (P.base_ticks_per_hyperperiod a)

(* Fig. 2 frozen-input model: producer values written to the queue are
   consumed in order, never out of thin air *)
let test_producer_consumer_flow () =
  let a = Lazy.force analyzed_nominal in
  let tr = simulate ~hyperperiods:3 a in
  let written = ints tr "prProdCons_thProducer_reqQueue_w" in
  let consumed = ints tr "display_pData" in
  Alcotest.(check int) "producer runs 18 jobs" 18 (List.length written);
  Alcotest.(check bool) "consumption is a prefix-ordered subsequence" true
    (let rec subseq xs ys =
       match xs, ys with
       | [], _ -> true
       | _, [] -> false
       | x :: xs', y :: ys' ->
         if x = y then subseq xs' ys' else subseq xs ys'
     in
     subseq consumed written);
  Alcotest.(check bool) "consumer consumed most jobs" true
    (List.length consumed >= 10)

let test_nominal_no_alarm () =
  let a = Lazy.force analyzed_nominal in
  let tr = simulate ~hyperperiods:3 a in
  Alcotest.(check int) "no deadline alarm" 0 (Trace.present_count tr "Alarm");
  Alcotest.(check int) "no producer timeout" 0
    (Trace.present_count tr "display_pProdAlarm");
  Alcotest.(check int) "no consumer timeout" 0
    (Trace.present_count tr "display_pConsAlarm")

let test_timeout_scenario () =
  let a = Lazy.force analyzed_timeout in
  let tr = simulate ~hyperperiods:3 a in
  (* timers of duration 3 dispatch every 8 ticks: armed at the first
     dispatch that sees the start event, expired 3 dispatches later *)
  Alcotest.(check bool) "producer timeout reaches the display" true
    (Trace.present_count tr "display_pProdAlarm" >= 1);
  Alcotest.(check bool) "consumer timeout reaches the display" true
    (Trace.present_count tr "display_pConsAlarm" >= 1);
  (* the producer timeout fires at 32 ms + output latency *)
  match Trace.tick_instants tr "display_pProdAlarm" with
  | first :: _ ->
    Alcotest.(check bool) "after 32 ms" true (first >= 32);
    Alcotest.(check bool) "within 40 ms" true (first <= 40)
  | [] -> Alcotest.fail "no timeout recorded"

let test_simulation_deterministic () =
  let a = Lazy.force analyzed_nominal in
  let t1 = simulate ~hyperperiods:2 a in
  let t2 = simulate ~hyperperiods:2 a in
  Alcotest.(check (list int)) "same consumption"
    (ints t1 "display_pData") (ints t2 "display_pData")

let test_dispatch_clock_matches_schedule () =
  let a = Lazy.force analyzed_nominal in
  let tr = simulate ~hyperperiods:2 a in
  let dispatches = Trace.tick_instants tr "prProdCons_thProducer_dispatch" in
  Alcotest.(check (list int)) "4 ms cadence"
    [ 0; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40; 44 ]
    dispatches;
  let consumer = Trace.tick_instants tr "prProdCons_thConsumer_dispatch" in
  Alcotest.(check (list int)) "6 ms cadence"
    [ 0; 6; 12; 18; 24; 30; 36; 42 ]
    consumer

let test_vcd_output () =
  let a = Lazy.force analyzed_nominal in
  let tr = simulate ~hyperperiods:1 a in
  let vcd = P.vcd_of_trace a tr in
  let contains needle =
    let nh = String.length vcd and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub vcd i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "timescale" true (contains "$timescale");
  Alcotest.(check bool) "declares display data wire" true
    (contains "display_pData");
  Alcotest.(check bool) "has time zero" true (contains "#0")

let test_summary_renders () =
  let a = Lazy.force analyzed_nominal in
  let s = Format.asprintf "%a" P.pp_summary a in
  Alcotest.(check bool) "non-empty summary" true (String.length s > 200)

let test_rm_policy_end_to_end () =
  match
    P.analyze ~registry:CS.registry_nominal ~policy:Sched.Static_sched.Rm
      CS.aadl_source
  with
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  | Ok a ->
    let tr = simulate ~hyperperiods:2 a in
    Alcotest.(check int) "no alarm under RM" 0
      (Trace.present_count tr "Alarm")

let test_queue_size_bounded () =
  (* producer at 4 ms, consumer at 6 ms: the queue grows by one every
     12 ms and saturates at its capacity of 8, dropping the oldest *)
  let a = Lazy.force analyzed_nominal in
  let tr = simulate ~hyperperiods:8 a in
  let sizes = ints tr "prProdCons_Queue_size" in
  Alcotest.(check bool) "bounded by capacity" true
    (List.for_all (fun s -> s >= 0 && s <= 8) sizes)

(* ---- the default engine against the interpreter oracle ---- *)

let analyze_ok ?registry ?mode src =
  match P.analyze ?registry ?mode src with
  | Ok a -> a
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let same_as_interpreter ?env ?hyperperiods what a =
  let run compiled =
    match P.simulate ?compiled ?env ?hyperperiods a with
    | Ok tr -> tr
    | Error m -> Alcotest.failf "%s: %s" what (Putil.Diag.list_to_string m)
  in
  Alcotest.(check bool) (what ^ ": default = interpreter") true
    (Trace.equal (run None) (run (Some false)))

let test_default_equals_interpreter () =
  let module ST = Trans.System_trans in
  same_as_interpreter "case study, Embedded"
    (analyze_ok ~registry:CS.registry_nominal ~mode:ST.Embedded
       CS.aadl_source);
  same_as_interpreter "case study, External"
    (analyze_ok ~registry:CS.registry_nominal ~mode:ST.External
       CS.aadl_source);
  same_as_interpreter "producer variant"
    (analyze_ok ~registry:CS.registry_producer_variant CS.aadl_source);
  same_as_interpreter "examples/producer_consumer.aadl"
    (analyze_ok ~registry:CS.registry_nominal
       (Test_data.read "../examples/producer_consumer.aadl"));
  (* fault in frame 1, reset in frame 5: both mode transitions fire *)
  same_as_interpreter ~hyperperiods:10 "moded system"
    ~env:(fun t ->
      if t = 5 then [ ("environment_fault", 1) ]
      else if t = 21 then [ ("environment_reset", 1) ]
      else [])
    (Lazy.force Test_modes.analyzed)

(* The smallest model found that analyzes but has no compiled plan:
   one thread whose behaviour feeds a local back into itself, sampled
   [when false]. The cycle never fires (the deadlock analysis calls it
   false), so the interpreter runs it, but the plan builder orders
   values without consulting clocks and rejects it. *)
let dead_cycle_src =
  {|package DeadCycle
public
  thread worker
    properties
      Dispatch_Protocol => Periodic;
      Period => 4 ms;
      Deadline => 4 ms;
      Compute_Execution_Time => 1 ms;
  end worker;
  thread implementation worker.impl end worker.impl;
  process app end app;
  process implementation app.impl
    subcomponents
      w: thread worker.impl;
  end app.impl;
  system rig end rig;
  system implementation rig.impl
    subcomponents
      main: process app.impl;
  end rig.impl;
end DeadCycle;
|}

let dead_cycle_registry =
  Trans.Behavior.make ~id:"test_pipeline:dead_cycle"
    [ ("worker",
       fun ctx ->
         let x = ctx.Trans.Behavior.fresh_local Types.Tint in
         Signal_lang.Builder.[ x := when_ (v x + i 1) (b false) ]) ]

let test_compile_fallback () =
  let a = analyze_ok ~registry:dead_cycle_registry dead_cycle_src in
  (match P.simulate ~compiled:true a with
   | Error [ d ] ->
     Alcotest.(check string) "compiled only: COMPILE-001" "COMPILE-001"
       d.Putil.Diag.code
   | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
   | Ok _ -> Alcotest.fail "the plan builder accepted the dead cycle");
  let fallbacks () =
    Putil.Metrics.counter_value Putil.Metrics.global
      "pipeline.simulate_fallbacks"
  in
  let before = fallbacks () in
  Putil.Tracing.flight_reset ();
  let got = simulate a in
  Alcotest.(check int) "one fallback counted" (before + 1) (fallbacks ());
  Alcotest.(check bool) "the fallback is an event of the log" true
    (List.exists
       (fun (_, _, evs) ->
         List.exists
           (function
             | Putil.Tracing.Inst { name = "pipeline.simulate_fallback"; _ } ->
               true
             | _ -> false)
           evs)
       (Putil.Tracing.flight_events ()));
  match P.simulate ~compiled:false a with
  | Ok want ->
    Alcotest.(check bool) "default returns the interpreter's trace" true
      (Trace.equal got want)
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

(* a cold analysis marshals each kernel it analyzes once: the whole
   kernel in normalize, each model kernel and the glue kernel in the
   analyses stage; the calculus, the summary and the compiler are
   handed those digests *)
let test_kernel_digested_once () =
  let digests () =
    Putil.Metrics.counter_value Putil.Metrics.global "kernel.digests"
  in
  let before = digests () in
  let a =
    match
      P.analyze ~session:(P.new_session ()) ~registry:CS.registry_nominal
        CS.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  ignore (Format.asprintf "%a" P.pp_summary a);
  (match Polysim.Compile.compile ~digest:a.P.kernel_digest a.P.kernel with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "the case study has model kernels" true
    (a.P.proc_analyses <> []);
  Alcotest.(check int) "whole kernel, model kernels and glue, once each"
    (List.length a.P.proc_analyses + 2)
    (digests () - before)

let suite =
  [ ("pipeline.analysis",
     [ Alcotest.test_case "clean analysis" `Quick test_analyze_clean;
       Alcotest.test_case "clock scale" `Quick test_clock_scale;
       Alcotest.test_case "default root" `Quick test_default_root_detection;
       Alcotest.test_case "base ticks" `Quick test_base_ticks;
       Alcotest.test_case "summary" `Quick test_summary_renders;
       Alcotest.test_case "each kernel digested once" `Quick
         test_kernel_digested_once ]);
    ("pipeline.simulation",
     [ Alcotest.test_case "producer/consumer flow" `Quick
         test_producer_consumer_flow;
       Alcotest.test_case "nominal: no alarms" `Quick test_nominal_no_alarm;
       Alcotest.test_case "timeout scenario (Sec. II)" `Quick
         test_timeout_scenario;
       Alcotest.test_case "deterministic" `Quick test_simulation_deterministic;
       Alcotest.test_case "dispatch cadence (Fig. 2)" `Quick
         test_dispatch_clock_matches_schedule;
       Alcotest.test_case "VCD output (ref [18])" `Quick test_vcd_output;
       Alcotest.test_case "RM end-to-end" `Quick test_rm_policy_end_to_end;
       Alcotest.test_case "queue bounded" `Quick test_queue_size_bounded;
       Alcotest.test_case "default engine = interpreter" `Quick
         test_default_equals_interpreter;
       Alcotest.test_case "plan failure falls back on the interpreter"
         `Quick test_compile_fallback ]) ]
