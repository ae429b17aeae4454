(* The modes extension (paper Sec. VII perspective): AADL mode
   automata translated as SIGNAL automata — parsing, legality,
   translation, determinism of transition guards, and execution. *)

module Syn = Aadl.Syntax
module P = Polychrony.Pipeline
module Trace = Polysim.Trace
module B = Signal_lang.Builder

(* a sensor thread that degrades on a fault event and recovers on a
   reset event; its output value depends on the mode *)
let moded_src =
  {|package Moded
public
  thread sensor
    features
      pFault: in event port;
      pReset: in event port;
      sample: out event data port;
    modes
      Nominal: initial mode;
      Degraded: mode;
      t_fail: Nominal -[ pFault ]-> Degraded;
      t_heal: Degraded -[ pReset ]-> Nominal;
    properties
      Dispatch_Protocol => Periodic;
      Period => 4 ms;
      Compute_Execution_Time => 1 ms;
  end sensor;

  thread implementation sensor.impl
  end sensor.impl;

  process app
    features
      pFault: in event port;
      pReset: in event port;
      out_data: out event data port;
  end app;

  process implementation app.impl
    subcomponents
      s: thread sensor.impl;
    connections
      k0: port pFault -> s.pFault;
      k1: port pReset -> s.pReset;
      k2: port s.sample -> out_data;
  end app.impl;

  processor cpu end cpu;
  processor implementation cpu.impl end cpu.impl;

  system env_sys
    features
      fault: out event port;
      reset: out event port;
  end env_sys;
  system implementation env_sys.impl end env_sys.impl;

  system sink_sys
    features
      data: in event data port;
  end sink_sys;
  system implementation sink_sys.impl end sink_sys.impl;

  system rig end rig;
  system implementation rig.impl
    subcomponents
      environment: system env_sys.impl;
      sink: system sink_sys.impl;
      main: process app.impl;
      cpu0: processor cpu.impl;
    connections
      s0: port environment.fault -> main.pFault;
      s1: port environment.reset -> main.pReset;
      s2: port main.out_data -> sink.data;
    properties
      Actual_Processor_Binding => reference (cpu0) applies to main;
  end rig.impl;
end Moded;
|}

(* behaviour: emit 100+count in Nominal mode, 0 in Degraded *)
let moded_registry : Trans.Behavior.registry =
  Trans.Behavior.make ~id:"test_modes:sensor"
  [ ("sensor",
     fun ctx ->
       let cnt_stmts, n = Trans.Behavior.job_counter ctx in
       let nominal = ctx.Trans.Behavior.in_mode "Nominal" in
       cnt_stmts
       @ B.[ ctx.Trans.Behavior.out_item "sample"
             := if_ nominal (n + i 100) (i 0) ]) ]

let analyzed =
  lazy
    (match P.analyze ~registry:moded_registry moded_src with
     | Ok a -> a
     | Error m -> failwith (Putil.Diag.list_to_string m))

let test_parse_modes () =
  let pkg =
    match Aadl.Parser.parse_package moded_src with
    | Ok pkg -> pkg
    | Error m -> Alcotest.fail m
  in
  match Syn.find_type pkg "sensor" with
  | None -> Alcotest.fail "sensor missing"
  | Some ct ->
    Alcotest.(check int) "two modes" 2 (List.length ct.Syn.ct_modes);
    Alcotest.(check int) "two transitions" 2 (List.length ct.Syn.ct_transitions);
    (match ct.Syn.ct_modes with
     | [ m1; m2 ] ->
       Alcotest.(check bool) "Nominal initial" true m1.Syn.m_initial;
       Alcotest.(check bool) "Degraded not initial" false m2.Syn.m_initial
     | _ -> Alcotest.fail "mode list");
    match ct.Syn.ct_transitions with
    | [ t1; _ ] ->
      Alcotest.(check string) "src" "Nominal" t1.Syn.mt_src;
      Alcotest.(check string) "trigger" "pFault" t1.Syn.mt_trigger;
      Alcotest.(check string) "dst" "Degraded" t1.Syn.mt_dst
    | _ -> Alcotest.fail "transition list"

let test_modes_roundtrip () =
  let pkg =
    match Aadl.Parser.parse_package moded_src with
    | Ok pkg -> pkg
    | Error m -> Alcotest.fail m
  in
  let printed = Aadl.Printer.package_to_string pkg in
  match Aadl.Parser.parse_package printed with
  | Ok pkg2 ->
    Alcotest.(check bool) "roundtrip" true
      (Syn.strip_locs pkg = Syn.strip_locs pkg2)
  | Error m -> Alcotest.fail (m ^ "\n" ^ printed)

let test_mode_checks () =
  let bad cases =
    List.iter
      (fun (label, src) ->
        match Aadl.Parser.parse_package src with
        | Error _ -> Alcotest.fail (label ^ ": must parse")
        | Ok pkg ->
          Alcotest.(check bool) label true
            (Aadl.Check.errors (Aadl.Check.check_package pkg) <> []))
      cases
  in
  bad
    [ ("no initial mode",
       {|package P public thread t features e: in event port;
         modes M1: mode; M2: mode; end t; end P;|});
      ("two initial modes",
       {|package P public thread t features e: in event port;
         modes M1: initial mode; M2: initial mode; end t; end P;|});
      ("unknown trigger",
       {|package P public thread t features e: in event port;
         modes M1: initial mode; M2: mode;
         tr: M1 -[ nope ]-> M2; end t; end P;|});
      ("unknown mode in transition",
       {|package P public thread t features e: in event port;
         modes M1: initial mode;
         tr: M1 -[ e ]-> M9; end t; end P;|});
      ("data port trigger",
       {|package P public thread t features d: in data port;
         modes M1: initial mode; M2: mode;
         tr: M1 -[ d ]-> M2; end t; end P;|}) ]

let test_translation_shape () =
  let a = Lazy.force analyzed in
  let prog = a.P.translation.Trans.System_trans.program in
  match Signal_lang.Ast.find_process prog "th_rig_main_s" with
  | None -> Alcotest.fail "sensor model missing"
  | Some p ->
    Alcotest.(check bool) "Mode output declared" true
      (List.exists
         (fun vd -> vd.Signal_lang.Ast.var_name = "Mode")
         p.Signal_lang.Ast.outputs);
    (* transitions become partial definitions of Mode *)
    let partials =
      List.length
        (List.filter
           (fun st ->
             match Signal_lang.Ast.desc st with
             | Signal_lang.Ast.Spartial ("Mode", _) -> true
             | _ -> false)
           p.Signal_lang.Ast.body)
    in
    Alcotest.(check int) "two transitions + fallback" 3 partials

let test_mode_determinism () =
  (* transition guards from distinct modes are provably exclusive
     thanks to the pre_mode = k literals: deterministic *)
  let a = Lazy.force analyzed in
  Alcotest.(check bool) "moded system deterministic" true
    a.P.determinism.Analysis.Determinism.deterministic

let test_conflicting_transitions_flagged () =
  (* two transitions out of the same mode with different triggers can
     fire together: the determinism analysis must flag them *)
  let src =
    {|package Conflict public
      thread t
        features
          e1: in event port;
          e2: in event port;
        modes
          M0: initial mode; M1: mode; M2: mode;
          ta: M0 -[ e1 ]-> M1;
          tb: M0 -[ e2 ]-> M2;
        properties Dispatch_Protocol => Periodic; Period => 4 ms;
          Compute_Execution_Time => 1 ms;
      end t;
      thread implementation t.impl end t.impl;
      process q end q;
      process implementation q.impl
        subcomponents w: thread t.impl;
        connections k0: port pe1 -> w.e1; k1: port pe2 -> w.e2;
      end q.impl;
      system s end s;
      system implementation s.impl
        subcomponents h: process q.impl; c: processor pc.impl;
        properties Actual_Processor_Binding => reference (c) applies to h;
      end s.impl;
      processor pc end pc;
      processor implementation pc.impl end pc.impl;
      end Conflict;|}
  in
  (* note: q has no features pe1/pe2 declared; add them *)
  let src =
    Str.global_replace (Str.regexp_string "process q end q;")
      "process q features pe1: in event port; pe2: in event port; end q;"
      src
  in
  match P.analyze src with
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  | Ok a ->
    Alcotest.(check bool) "conflict flagged non-deterministic" false
      a.P.determinism.Analysis.Determinism.deterministic

let test_mode_execution () =
  let a = Lazy.force analyzed in
  (* fault arrives in frame 1 (tick 5), reset in frame 5 (tick 21):
     the sensor degrades from its next dispatch and recovers later *)
  let env t =
    if t = 5 then [ ("environment_fault", 1) ]
    else if t = 21 then [ ("environment_reset", 1) ]
    else []
  in
  match P.simulate ~env ~hyperperiods:10 a with
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  | Ok tr ->
    let modes =
      List.map
        (function Signal_lang.Types.Vint n -> n | _ -> -1)
        (Trace.values_of tr "main_s_mode")
    in
    Alcotest.(check bool) "starts Nominal (0)" true (List.hd modes = 0);
    Alcotest.(check bool) "degrades to 1" true (List.mem 1 modes);
    (* recovery: after the reset the mode returns to 0 *)
    let rec after_degraded = function
      | 1 :: rest -> List.mem 0 rest
      | _ :: rest -> after_degraded rest
      | [] -> false
    in
    Alcotest.(check bool) "recovers to Nominal" true (after_degraded modes);
    (* behaviour follows the mode: 0 emitted while degraded *)
    let samples =
      List.map
        (function Signal_lang.Types.Vint n -> n | _ -> -1)
        (Trace.values_of tr "sink_data")
    in
    Alcotest.(check bool) "nominal samples >= 100" true
      (List.exists (fun s -> s >= 100) samples);
    Alcotest.(check bool) "degraded samples = 0" true
      (List.mem 0 samples)

let test_mode_compiled_equivalence () =
  let a = Lazy.force analyzed in
  let env t = if t = 5 then [ ("environment_fault", 1) ] else [] in
  match
    P.simulate ~compiled:false ~env ~hyperperiods:4 a,
    P.simulate ~compiled:true ~env ~hyperperiods:4 a
  with
  | Ok t1, Ok t2 ->
    Alcotest.(check bool) "interpreter = compiler on moded system" true
      (List.for_all
         (fun x ->
           List.for_all
             (fun i -> Trace.get t1 i x = Trace.get t2 i x)
             (List.init (Trace.length t1) Fun.id))
         (Trace.observable t1))
  | Error m, _ | _, Error m -> Alcotest.fail (Putil.Diag.list_to_string m)

let suite =
  [ ("modes",
     [ Alcotest.test_case "parse" `Quick test_parse_modes;
       Alcotest.test_case "printer roundtrip" `Quick test_modes_roundtrip;
       Alcotest.test_case "legality checks" `Quick test_mode_checks;
       Alcotest.test_case "translation shape" `Quick test_translation_shape;
       Alcotest.test_case "determinism provable" `Quick test_mode_determinism;
       Alcotest.test_case "conflicting transitions flagged" `Quick
         test_conflicting_transitions_flagged;
       Alcotest.test_case "execution" `Quick test_mode_execution;
       Alcotest.test_case "compiled equivalence" `Quick
         test_mode_compiled_equivalence ]) ]
