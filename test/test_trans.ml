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

(* ------------------------------------------------------------------ *)
(* The timing-free structure                                          *)
(* ------------------------------------------------------------------ *)

module CS = Polychrony.Case_study

let counter name = Putil.Metrics.counter_value Putil.Metrics.global name

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then Alcotest.failf "%S not in the model" sub
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let instance_of ?(root = CS.root) src =
  match Aadl.Parser.parse_packages_diag src with
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  | Ok [] -> Alcotest.fail "no package"
  | Ok (pkg :: context) -> (
    match Inst.instantiate_diag ~context pkg ~root with
    | Ok t -> t
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds))

(* everything a translation hands on, as text *)
let render (out, diags) =
  let body =
    match out with
    | None -> "no output"
    | Some o ->
      let lines f l = String.concat "\n" (List.map f l) in
      String.concat "\n"
        [ Format.asprintf "%a" Signal_lang.Pp.pp_program o.ST.program;
          lines Digest.to_hex o.ST.process_digests;
          lines
            (fun (cpu, s) -> Format.asprintf "%s:@.%a" cpu S.pp_schedule s)
            o.ST.schedules;
          lines
            (fun (cpu, tasks) ->
              cpu ^ ": "
              ^ String.concat " "
                  (List.map (fun t -> t.Sched.Task.t_name) tasks))
            o.ST.tasks;
          lines
            (fun (n, cs) ->
              Printf.sprintf "%s %s %d [%s]" n cs.ST.cs_cpu cs.ST.cs_horizon
                (String.concat ";" (List.map string_of_int cs.ST.cs_ticks)))
            o.ST.ctl_inputs;
          lines (fun (a, sg) -> a ^ " -> " ^ sg)
            (Trans.Traceability.entries o.ST.trace);
          String.concat " " o.ST.tick_inputs;
          String.concat " " o.ST.env_inputs;
          String.concat " " o.ST.env_outputs ]
  in
  body ^ "\n" ^ String.concat "\n" (List.map Putil.Diag.to_string diags)

let has_code code (_, diags) =
  List.exists (fun d -> String.equal d.Putil.Diag.code code) diags

let placement (out, _) =
  match out with
  | Some o ->
    List.map
      (fun (cpu, tasks) -> (cpu, List.map (fun t -> t.Sched.Task.t_name) tasks))
      o.ST.tasks
  | None -> []

(* Two unbound processors: worst-fit decreasing places [a] (40%) alone
   and [b] (30%) with [c] (20%); growing [c]'s WCET to 50% makes it the
   first task placed, which moves every thread. *)
let two_cpu_model =
  {|package TwoCpu public
    thread worker
      properties Dispatch_Protocol => Periodic; Period => 10 ms;
    end worker;
    thread implementation worker.impl end worker.impl;
    process host end host;
    process implementation host.impl
      subcomponents
        a: thread worker.impl {Compute_Execution_Time => 4 ms;};
        b: thread worker.impl {Compute_Execution_Time => 3 ms;};
        c: thread worker.impl {Compute_Execution_Time => 2 ms;};
    end host.impl;
    processor core end core;
    processor implementation core.impl end core.impl;
    system rig end rig;
    system implementation rig.impl
      subcomponents
        h: process host.impl;
        cpu0: processor core.impl;
        cpu1: processor core.impl;
    end rig.impl;
    end TwoCpu;|}

type outcome = Replay | Rebuild

(* The structure memo is sound: for each edit, the translation that
   may reuse a cached structure equals one built with nothing cached
   (the same behaviours under a fresh registry id), and exactly the
   edits that keep the structure's inputs replay it. *)
let test_structure_oracle () =
  let fresh = ref 0 in
  let oracle_registry registry =
    incr fresh;
    Trans.Behavior.with_id ~id:(Printf.sprintf "oracle-fresh-%d" !fresh) registry
  in
  let check_model ~name ~root ~registry src edits =
    let memo_registry =
      Trans.Behavior.with_id ~id:("oracle-memo:" ^ name) registry
    in
    let base = instance_of ~root src in
    List.iter
      (fun mode ->
        let translate registry inst = ST.translate_diag ~registry ~mode inst in
        List.iter
          (fun (label, edited_src, expect, check) ->
            let label =
              Printf.sprintf "%s %s, %s" name
                (match mode with ST.Embedded -> "embedded" | ST.External -> "external")
                label
            in
            let edited = instance_of ~root edited_src in
            let before = translate memo_registry base in
            let m0 = counter "trans.structure.cache_misses" in
            let got = translate memo_registry edited in
            let built = counter "trans.structure.cache_misses" - m0 in
            let want = translate (oracle_registry registry) edited in
            Alcotest.(check string) (label ^ ": equals a build from nothing")
              (render want) (render got);
            Alcotest.(check int) (label ^ ": structures built")
              (match expect with Replay -> 0 | Rebuild -> 1)
              built;
            check label before got)
          edits)
      [ ST.Embedded; ST.External ]
  in
  let feasible label _ got =
    Alcotest.(check bool) (label ^ ": no error") false
      (Putil.Diag.has_errors (snd got))
  in
  let stubbed label _ got =
    Alcotest.(check bool) (label ^ ": a processor is stubbed") true
      (has_code "SCHED-INFEAS-001" got)
  in
  let moved label before got =
    Alcotest.(check bool) (label ^ ": placement moved") true
      (placement before <> placement got);
    feasible label before got
  in
  let any _ _ _ = () in
  let models =
    [ ("case study", CS.aadl_source, "1 ms", "2 ms");
      ("producer_consumer.aadl",
       Test_data.read "../examples/producer_consumer.aadl", "1 ms", "2 ms");
      ("3 replicas", Test_data.read "../examples/prodcons_replicas3.aadl",
       "300 us", "600 us");
      ("4 on 4", Test_data.read "../examples/prodcons_4on4.aadl", "300 us",
       "600 us") ]
  in
  List.iter
    (fun (name, src, wcet, wcet_ok) ->
      let edit sub by = replace_once ~sub ~by src in
      let wcet_edit v =
        edit
          ("Compute_Execution_Time => " ^ wcet ^ ";")
          ("Compute_Execution_Time => " ^ v ^ ";")
      in
      check_model ~name ~root:CS.root ~registry:CS.registry_nominal src
        [ ("period", edit "Period => 4 ms;" "Period => 8 ms;", Replay, feasible);
          ("deadline", edit "Deadline => 6 ms;" "Deadline => 5 ms;", Replay,
           feasible);
          ("wcet", wcet_edit wcet_ok, Replay, feasible);
          ("infeasible wcet", wcet_edit "4 ms", Rebuild, stubbed);
          ("queue size", edit "Queue_Size => 2;" "Queue_Size => 3;", Rebuild,
           feasible);
          ("timer duration", edit "Timer_Duration => 3;" "Timer_Duration => 4;",
           Rebuild, feasible);
          ("connection",
           edit "-> thProdTimer.pStopTimer;" "->> thProdTimer.pStopTimer;",
           Rebuild, any) ])
    models;
  check_model ~name:"two processors" ~root:"rig.impl"
    ~registry:Trans.Behavior.empty two_cpu_model
    [ ("wcet within placement",
       replace_once ~sub:"Compute_Execution_Time => 2 ms;"
         ~by:"Compute_Execution_Time => 1 ms;" two_cpu_model,
       Replay, feasible);
      ("wcet moving placement",
       replace_once ~sub:"Compute_Execution_Time => 2 ms;"
         ~by:"Compute_Execution_Time => 5 ms;" two_cpu_model,
       Rebuild, moved) ]

(* Behaviours never see the scheduler-owned properties, so a thread
   model cannot depend on a timing edit; other properties still
   reach them. *)
let test_behavior_props_timing_free () =
  let seen = ref [] in
  let probe (ctx : Trans.Behavior.ctx) =
    seen := ctx.Trans.Behavior.props :: !seen;
    Trans.Behavior.default ctx
  in
  let registry = Trans.Behavior.make ~id:"props-probe" [ ("thTimer", probe) ] in
  (match ST.translate ~registry (case ()) with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check int) "both timers probed" 2 (List.length !seen);
  List.iter
    (fun props ->
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " hidden") true
            (Aadl.Props.find p props = None))
        Aadl.Props.scheduler_owned;
      Alcotest.(check bool) "Timer_Duration reads 3" true
        (Aadl.Props.find "Timer_Duration" props
         = Some (Syn.Pint (3, None))))
    !seen

(* Each (path, signal) pair is traced once, however many connections
   read an environment port. *)
let test_traceability_no_repeats () =
  List.iter
    (fun (name, src) ->
      let inst = instance_of src in
      List.iter
        (fun mode ->
          match ST.translate_diag ~registry:CS.registry_nominal ~mode inst with
          | None, ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
          | Some o, _ ->
            let entries = Trans.Traceability.entries o.ST.trace in
            Alcotest.(check int) (name ^ ": no repeated entry")
              (List.length entries)
              (List.length (List.sort_uniq compare entries)))
        [ ST.Embedded; ST.External ])
    [ ("case study", CS.aadl_source);
      ("3 replicas", Test_data.read "../examples/prodcons_replicas3.aadl") ]

(* External [ctl_inputs] take their ticks from [Static_sched.ticks],
   which groups each schedule's jobs by task in one pass; on every
   scheduled processor they equal the per-event construction over
   [Static_sched.event_times], task by task in schedule order. *)
let test_ctl_inputs_one_pass () =
  let per_event s tname ev =
    List.sort_uniq compare
      (List.map (fun t -> t / s.S.base_us) (S.event_times s tname ev))
  in
  let check name registry src =
    match
      Polychrony.Pipeline.analyze ~registry ~mode:ST.External src
    with
    | Error _ -> ()  (* no translation to compare *)
    | Ok a ->
      let o = a.Polychrony.Pipeline.translation in
      let expected =
        List.concat_map
          (fun (cpu, s) ->
            List.concat_map
              (fun tname ->
                List.map
                  (fun ev ->
                    { ST.cs_cpu = cpu; cs_ticks = per_event s tname ev;
                      cs_horizon = s.S.hyperperiod_us / s.S.base_us })
                  [ S.Dispatch; S.Start; S.Complete; S.Deadline ])
              (Trans.Sched_trans.task_names s))
          o.ST.schedules
      in
      let scheduled =
        List.filter
          (fun (_, spec) -> List.mem_assoc spec.ST.cs_cpu o.ST.schedules)
          o.ST.ctl_inputs
      in
      Alcotest.(check bool) (name ^ ": ctl inputs exist") true
        (o.ST.ctl_inputs <> []);
      Alcotest.(check bool) (name ^ ": equal the per-event construction") true
        (List.map snd scheduled = expected);
      List.iter
        (fun (_, s) ->
          Alcotest.(check (list int)) (name ^ ": no such task") []
            (S.ticks s "no_such_task" S.Start))
        o.ST.schedules
  in
  check "case study" CS.registry_nominal CS.aadl_source;
  List.iter
    (fun f ->
      check f CS.registry_nominal (Test_data.read ("../examples/" ^ f)))
    [ "producer_consumer.aadl"; "prodcons_replicas3.aadl";
      "prodcons_4on4.aadl" ];
  List.iter
    (fun f ->
      check f Trans.Behavior.empty (Test_data.read ("corpus/" ^ f)))
    [ "bad_syntax.aadl"; "duplicate_port.aadl"; "infeasible_schedule.aadl";
      "multi_defect.aadl"; "type_conflict.aadl";
      "unresolved_classifier.aadl" ]

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
       Alcotest.test_case "missing period" `Quick test_missing_period_fails;
       Alcotest.test_case "ctl inputs in one pass" `Quick
         test_ctl_inputs_one_pass ]);
    ("trans.structure",
     [ Alcotest.test_case "memo equals a build from nothing" `Quick
         test_structure_oracle;
       Alcotest.test_case "behaviours see no timing property" `Quick
         test_behavior_props_timing_free;
       Alcotest.test_case "traceability entries not repeated" `Quick
         test_traceability_no_repeats ]) ]
