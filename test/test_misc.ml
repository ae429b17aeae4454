(* Coverage for smaller corners: hierarchy shapes, export printers,
   non-endochronous free choices, pipeline env hooks, VCD options. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module C = Clocks.Calculus
module H = Clocks.Hierarchy
module S = Sched.Static_sched
module T = Sched.Task

(* ---------------------------- hierarchy ---------------------------- *)

let test_hierarchy_three_levels () =
  let p =
    B.proc ~name:"levels"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "c" Types.Tbool;
                Ast.var "d" Types.Tbool ]
      ~outputs:[ Ast.var "z" Types.Tint ]
      ~locals:[ Ast.var "y" Types.Tint ]
      B.[ clk (v "x") ^= clk (v "c");
          clk (v "x") ^= clk (v "d");
          "y" := when_ (v "x") (v "c");
          "z" := when_ (v "y") (v "d") ]
  in
  let calc = C.analyze (N.process_exn p) in
  let h = H.build calc in
  Alcotest.(check int) "depth two" 2 (H.depth h);
  (match H.master h with
   | Some m -> Alcotest.(check bool) "master is the x class" true
                 (C.same_class calc m "x")
   | None -> Alcotest.fail "single root expected");
  (* z's parent chain reaches the root *)
  let zc = C.class_id_of calc "z" in
  let rec root c =
    match (H.node h c).H.parent with
    | Some p -> root p
    | None -> c
  in
  Alcotest.(check bool) "z under the master" true
    (root zc = C.class_id_of calc "x");
  (* rendering works *)
  Alcotest.(check bool) "tree renders" true
    (String.length (Format.asprintf "%a" H.pp h) > 0)

let test_hierarchy_node_children () =
  let p =
    B.proc ~name:"forked"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "c" Types.Tbool ]
      ~outputs:[ Ast.var "a" Types.Tint; Ast.var "b" Types.Tint ]
      B.[ clk (v "x") ^= clk (v "c");
          "a" := when_ (v "x") (v "c");
          "b" := when_ (v "x") (not_ (v "c")) ]
  in
  let calc = C.analyze (N.process_exn p) in
  let h = H.build calc in
  let xc = C.class_id_of calc "x" in
  Alcotest.(check int) "two children under x" 2
    (List.length (H.node h xc).H.children)

(* --------------------------- free choices -------------------------- *)

let test_free_choices_positive () =
  (* an output with a free clock: the engine must default it and count *)
  let p =
    B.proc ~name:"open_clock"
      ~inputs:[ Ast.var "x" Types.Tint ]
      ~outputs:[ Ast.var "y" Types.Tint ]
      ~locals:[ Ast.var "m" Types.Tint ]
      (* m's clock is only bounded below by ^x: not endochronous *)
      B.[ "m" := default (v "x") (delay (v "m")); "y" := v "m" ]
  in
  let kp = N.process_exn p in
  let st = Polysim.Engine.create kp in
  (match Polysim.Engine.step st ~stimulus:[ ("x", Types.Vint 1) ] with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  (match Polysim.Engine.step st ~stimulus:[] with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  (* at the empty instant m's presence is a free choice *)
  Alcotest.(check bool) "free choices counted" true
    (Polysim.Engine.free_choices st > 0)

(* --------------------------- export pp ----------------------------- *)

let test_export_pp () =
  let tasks =
    [ T.make ~name:"a" ~period_us:4000 ~wcet_us:1000 ();
      T.make ~name:"b" ~period_us:8000 ~wcet_us:1000 () ]
  in
  match S.synthesize tasks with
  | Error f -> Alcotest.fail f.S.f_message
  | Ok s ->
    let txt = Format.asprintf "%a" Sched.Export.pp_export s in
    List.iter
      (fun needle ->
        let nh = String.length txt and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub txt i nn = needle || go (i + 1))
        in
        Alcotest.(check bool) (needle ^ " in export") true (nn = 0 || go 0))
      [ "dispatch"; "deadline"; "affine" ]

(* ------------------------ pipeline env hook ------------------------ *)

let test_pipeline_custom_env () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  (* with NO environment arrival at all, the producer still runs (its
     behaviour needs no input) and no alarm is raised *)
  match
    Polychrony.Pipeline.simulate ~env:(fun _ -> []) ~hyperperiods:2 a
  with
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  | Ok tr ->
    Alcotest.(check int) "producer still dispatches 12 jobs" 12
      (Polysim.Trace.present_count tr "prProdCons_thProducer_dispatch");
    Alcotest.(check int) "no alarm" 0 (Polysim.Trace.present_count tr "Alarm")

(* ----------------------------- vcd opts ---------------------------- *)

let test_vcd_signal_selection () =
  let tr =
    Polysim.Trace.create [ Ast.var "a" Types.Tint; Ast.var "b" Types.Tint ]
  in
  Polysim.Trace.push tr [ ("a", Types.Vint 1); ("b", Types.Vint 2) ];
  let dump = Polysim.Vcd.to_string ~signals:[ "a" ] ~timescale:"1 us" tr in
  let contains needle =
    let nh = String.length dump and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub dump i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "a declared" true (contains " a ");
  Alcotest.(check bool) "b not declared" false (contains " b ");
  Alcotest.(check bool) "timescale honoured" true (contains "1 us")

(* --------------------- traceability printer ------------------------ *)

let test_traceability_pp () =
  let t = Trans.Traceability.create () in
  Trans.Traceability.add_component t ~aadl:"sys.th" ~signal:"th_sys_th";
  let s = Format.asprintf "%a" Trans.Traceability.pp t in
  Alcotest.(check bool) "lists the pair" true
    (String.length s > 10);
  Alcotest.(check (list (pair string string))) "entries"
    [ ("sys.th", "th_sys_th") ]
    (Trans.Traceability.entries t)

let suite =
  [ ("misc",
     [ Alcotest.test_case "hierarchy three levels" `Quick
         test_hierarchy_three_levels;
       Alcotest.test_case "hierarchy children" `Quick
         test_hierarchy_node_children;
       Alcotest.test_case "free choices counted" `Quick
         test_free_choices_positive;
       Alcotest.test_case "export printer" `Quick test_export_pp;
       Alcotest.test_case "pipeline custom env" `Quick
         test_pipeline_custom_env;
       Alcotest.test_case "vcd signal selection" `Quick
         test_vcd_signal_selection;
       Alcotest.test_case "traceability printer" `Quick
         test_traceability_pp ]) ]
