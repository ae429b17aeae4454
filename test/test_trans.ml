(* ASME2SSME translation: thread model shape (Fig. 4/5), scheduler
   process, system assembly, traceability. *)

module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module Syn = Aadl.Syntax
module Inst = Aadl.Instance
module TT = Trans.Thread_trans
module ST = Trans.System_trans
module S = Sched.Static_sched

let case = Polychrony.Case_study.instance

let producer () =
  match Inst.find (case ()) "ProdConsSys.prProdCons.thProducer" with
  | Some th -> th
  | None -> Alcotest.fail "producer instance missing"

let translate_case ?policy () =
  match
    ST.translate ~registry:Polychrony.Case_study.registry_nominal ?policy
      (case ())
  with
  | Ok out -> out
  | Error m -> Alcotest.fail m

let has_input p name =
  List.exists (fun vd -> vd.Ast.var_name = name) p.Ast.inputs

let has_output p name =
  List.exists (fun vd -> vd.Ast.var_name = name) p.Ast.outputs

let test_thread_interface () =
  let p, _ = TT.translate ~registry:Trans.Behavior.empty (producer ()) in
  (* ctl1 bundle *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " input") true (has_input p n))
    [ "Dispatch"; "Start"; "Deadline" ];
  (* time1 bundle: per-port events *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " input") true (has_input p n))
    [ "pProdStart"; "pProdStart_time"; "pProdTimeOut"; "pProdTimeOut_time";
      "pProdStartTimer_time"; "pProdStopTimer_time" ];
  (* ctl2 + alarm + data access *)
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " output") true (has_output p n))
    [ "Complete"; "Alarm"; "pProdStartTimer"; "pProdStopTimer"; "reqQueue_w" ]

let test_thread_ports_are_processes () =
  (* Fig. 5: the in event port becomes an in_event_port instance with
     the declared queue size *)
  let p, _ = TT.translate ~registry:Trans.Behavior.empty (producer ()) in
  let found =
    List.exists
      (fun st ->
        match Ast.desc st with
        | Ast.Sinstance i ->
          i.Ast.inst_proc = "in_event_port"
          && i.Ast.inst_label = "pProdStart_port"
          && i.Ast.inst_params
             = [ Types.Vint 2; Types.Vstring "dropoldest" ]
        | _ -> false)
      p.Ast.body
  in
  Alcotest.(check bool) "in_event_port{2} instantiated" true found;
  let out_found =
    List.exists
      (fun st ->
        match Ast.desc st with
        | Ast.Sinstance i -> i.Ast.inst_proc = "out_event_port"
        | _ -> false)
      p.Ast.body
  in
  Alcotest.(check bool) "out_event_port instantiated" true out_found

let test_thread_well_typed () =
  let p, _ = TT.translate ~registry:Polychrony.Case_study.registry_nominal
      (producer ()) in
  Alcotest.(check (list string)) "thread model typechecks" []
    (List.map Signal_lang.Typecheck.error_to_string
       (Signal_lang.Typecheck.check_process p))

let test_thread_queue_size_default () =
  Alcotest.(check int) "default queue size 1" 1
    (TT.port_queue_size
       (Syn.Port { fname = "x"; dir = Syn.Din; kind = Syn.Event_port;
                   dtype = None; fprops = []; floc = Syn.no_loc }))

let test_system_translation_shape () =
  let out = translate_case () in
  let prog = out.ST.program in
  (* 4 thread models + 1 scheduler + top *)
  Alcotest.(check int) "process models" 6 (List.length prog.Ast.processes);
  Alcotest.(check (list string)) "tick inputs" [ "tick" ] out.ST.tick_inputs;
  Alcotest.(check bool) "env input lifted" true
    (List.mem "env_pGo" out.ST.env_inputs);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " lifted") true (List.mem n out.ST.env_outputs))
    [ "display_pProdAlarm"; "display_pConsAlarm"; "display_pData" ]

let test_system_schedule_embedded () =
  let out = translate_case () in
  match out.ST.schedules with
  | [ (cpu, s) ] ->
    Alcotest.(check string) "bound cpu" "ProdConsSys.Processor1" cpu;
    Alcotest.(check int) "hyper-period 24 ms" 24000 s.S.hyperperiod_us
  | _ -> Alcotest.fail "expected exactly one processor schedule"

let test_system_program_well_typed () =
  let out = translate_case () in
  Alcotest.(check (list string)) "whole program typechecks" []
    (List.map Signal_lang.Typecheck.error_to_string
       (Signal_lang.Typecheck.check_program out.ST.program))

let test_system_normalizes () =
  let out = translate_case () in
  match
    Signal_lang.Normalize.process ~program:out.ST.program out.ST.top
  with
  | Ok kp ->
    Alcotest.(check bool) "has primitive instances" true
      (kp.Signal_lang.Kernel.kinstances <> []);
    Alcotest.(check bool) "shared queue kept as fifo_reset" true
      (List.exists
         (fun ki ->
           ki.Signal_lang.Kernel.ki_prim = Signal_lang.Stdproc.Pfifo_reset)
         kp.Signal_lang.Kernel.kinstances)
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

let test_traceability () =
  let out = translate_case () in
  let tr = out.ST.trace in
  (match Trans.Traceability.signal_of tr "ProdConsSys.prProdCons.thProducer" with
   | Some s -> Alcotest.(check string) "thread model name"
                 "th_ProdConsSys_prProdCons_thProducer" s
   | None -> Alcotest.fail "producer missing from traceability");
  Alcotest.(check bool) "queue traced" true
    (Trans.Traceability.signal_of tr "ProdConsSys.prProdCons.Queue" <> None);
  Alcotest.(check bool) "reverse lookup" true
    (Trans.Traceability.aadl_of tr "th_ProdConsSys_prProdCons_thProducer"
     = Some "ProdConsSys.prProdCons.thProducer")

let test_scheduler_process_shape () =
  let out = translate_case () in
  match
    List.find_opt
      (fun p -> p.Ast.proc_name = "sched_Processor1")
      out.ST.program.Ast.processes
  with
  | None -> Alcotest.fail "scheduler model missing"
  | Some p ->
    Alcotest.(check int) "one input (tick)" 1 (List.length p.Ast.inputs);
    (* 4 tasks x 4 events *)
    Alcotest.(check int) "sixteen event outputs" 16 (List.length p.Ast.outputs);
    Alcotest.(check (list string)) "scheduler typechecks" []
      (List.map Signal_lang.Typecheck.error_to_string
         (Signal_lang.Typecheck.check_process p))

let test_policy_affects_schedule () =
  let edf = translate_case ~policy:S.Edf () in
  let rm = translate_case ~policy:S.Rm () in
  let starts out name =
    match out.ST.schedules with
    | [ (_, s) ] -> S.event_times s name S.Start
    | _ -> Alcotest.fail "one schedule expected"
  in
  (* both valid but potentially different start patterns; at minimum
     they schedule the same job count *)
  let count out =
    match out.ST.schedules with
    | [ (_, s) ] -> List.length s.S.jobs
    | _ -> 0
  in
  Alcotest.(check int) "same job count" (count edf) (count rm);
  ignore (starts edf "ProdConsSys.prProdCons.thProducer");
  ignore (starts rm "ProdConsSys.prProdCons.thProducer")

let test_missing_period_fails () =
  let src =
    {|package P public
      thread t end t;
      thread implementation t.impl end t.impl;
      process q end q;
      process implementation q.impl
        subcomponents w: thread t.impl;
      end q.impl;
      system s end s;
      system implementation s.impl
        subcomponents
          h: process q.impl;
          cpu: processor c1.impl;
        properties
          Actual_Processor_Binding => reference (cpu) applies to h;
      end s.impl;
      processor c1 end c1;
      processor implementation c1.impl end c1.impl;
      end P;|}
  in
  let pkg =
    match Aadl.Parser.parse_package src with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let inst =
    match Aadl.Instance.instantiate pkg ~root:"s.impl" with
    | Ok t -> t
    | Error m -> Alcotest.fail m
  in
  match ST.translate inst with
  | Ok _ -> Alcotest.fail "thread without Period must fail"
  | Error m ->
    Alcotest.(check bool) "mentions Period" true
      (String.length m > 0)

let test_task_extraction () =
  match ST.task_of_thread (producer ()) with
  | Ok task ->
    Alcotest.(check int) "period" 4000 task.Sched.Task.period_us;
    Alcotest.(check int) "deadline" 4000 task.Sched.Task.deadline_us;
    Alcotest.(check int) "wcet" 1000 task.Sched.Task.wcet_us
  | Error m -> Alcotest.fail m

let suite =
  [ ("trans.thread",
     [ Alcotest.test_case "interface (Fig. 4)" `Quick test_thread_interface;
       Alcotest.test_case "ports are processes (Fig. 5)" `Quick
         test_thread_ports_are_processes;
       Alcotest.test_case "well-typed" `Quick test_thread_well_typed;
       Alcotest.test_case "queue size default" `Quick
         test_thread_queue_size_default;
       Alcotest.test_case "task extraction" `Quick test_task_extraction ]);
    ("trans.system",
     [ Alcotest.test_case "program shape (Fig. 3)" `Quick
         test_system_translation_shape;
       Alcotest.test_case "schedule embedded" `Quick
         test_system_schedule_embedded;
       Alcotest.test_case "program typechecks" `Quick
         test_system_program_well_typed;
       Alcotest.test_case "normalizes (Fig. 6 fifo)" `Quick
         test_system_normalizes;
       Alcotest.test_case "traceability" `Quick test_traceability;
       Alcotest.test_case "scheduler process" `Quick
         test_scheduler_process_shape;
       Alcotest.test_case "policy choice" `Quick test_policy_affects_schedule;
       Alcotest.test_case "missing period" `Quick test_missing_period_fails ]) ]
