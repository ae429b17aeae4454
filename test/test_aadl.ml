(* AADL lexer, parser, printer round-trip, properties, instance model
   and legality checks. *)

module Syn = Aadl.Syntax
module Lexer = Aadl.Lexer
module Parser = Aadl.Parser
module Props = Aadl.Props
module Printer = Aadl.Printer
module Inst = Aadl.Instance
module Check = Aadl.Check

let parse src =
  match Parser.parse_package src with
  | Ok pkg -> pkg
  | Error m -> Alcotest.fail m

let tiny_package =
  {|
package Tiny
public
  thread worker
    features
      inp: in event port;
      outp: out event port;
    properties
      Dispatch_Protocol => Periodic;
      Period => 10 ms;
      Deadline => 10 ms;
      Compute_Execution_Time => 2 ms;
  end worker;

  thread implementation worker.impl
  end worker.impl;

  process host
  end host;

  process implementation host.impl
    subcomponents
      w1: thread worker.impl;
      w2: thread worker.impl;
    connections
      k0: port w1.outp -> w2.inp;
  end host.impl;

  system top
  end top;

  system implementation top.impl
    subcomponents
      h: process host.impl;
      cpu: processor p1.impl;
    properties
      Actual_Processor_Binding => reference (cpu) applies to h;
  end top.impl;

  processor p1
  end p1;

  processor implementation p1.impl
  end p1.impl;
end Tiny;
|}

(* ------------------------------ lexer ----------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "port a.b ->> c_d; x => 4 ms (1 .. 2)" in
  let kinds = List.map (fun p -> p.Lexer.tok) toks in
  Alcotest.(check bool) "has darrow" true (List.mem Lexer.DARROW kinds);
  Alcotest.(check bool) "has assoc" true (List.mem Lexer.ASSOC kinds);
  Alcotest.(check bool) "has dotdot" true (List.mem Lexer.DOTDOT kinds);
  Alcotest.(check bool) "ends with eof" true
    (match List.rev kinds with Lexer.EOF :: _ -> true | _ -> false)

let test_lexer_comments () =
  let toks = Lexer.tokenize "a -- comment -> ignored\nb" in
  let idents =
    List.filter_map
      (fun p -> match p.Lexer.tok with Lexer.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "comment skipped" [ "a"; "b" ] idents

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.line;
    Alcotest.(check int) "b line" 2 b.Lexer.line;
    Alcotest.(check int) "b col" 3 b.Lexer.col
  | _ -> Alcotest.fail "expected three tokens"

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try ignore (Lexer.tokenize "a # b"); false
     with Lexer.Lex_error _ -> true);
  Alcotest.(check bool) "unterminated string" true
    (try ignore (Lexer.tokenize "\"abc"); false
     with Lexer.Lex_error _ -> true)

(* ------------------------------ parser ---------------------------- *)

let test_parse_tiny () =
  let pkg = parse tiny_package in
  Alcotest.(check string) "name" "Tiny" pkg.Syn.pkg_name;
  Alcotest.(check int) "declarations" 8 (List.length pkg.Syn.pkg_decls);
  match Syn.find_type pkg "worker" with
  | Some ct ->
    Alcotest.(check int) "features" 2 (List.length ct.Syn.ct_features);
    Alcotest.(check bool) "category" true (ct.Syn.ct_category = Syn.Thread)
  | None -> Alcotest.fail "worker not found"

let test_parse_case_study () =
  let pkg = parse Polychrony.Case_study.aadl_source in
  Alcotest.(check string) "name" "ProducerConsumer" pkg.Syn.pkg_name;
  (match Syn.find_impl pkg "prProdCons.impl" with
   | Some ci ->
     Alcotest.(check int) "five subcomponents" 5
       (List.length ci.Syn.ci_subcomponents);
     Alcotest.(check int) "thirteen connections" 13
       (List.length ci.Syn.ci_connections)
   | None -> Alcotest.fail "prProdCons.impl not found");
  match Syn.find_type pkg "thProducer" with
  | Some ct ->
    Alcotest.(check (option int)) "period 4ms" (Some 4000)
      (Props.period_us ct.Syn.ct_properties)
  | None -> Alcotest.fail "thProducer not found"

let test_parse_errors () =
  let bad = [ "package P public end Q;";         (* mismatched end *)
              "package P public thread t end u; end P;";
              "package P public thread t features x end t; end P;";
              "package P" ] in
  List.iter
    (fun src ->
      match Parser.parse_package src with
      | Ok _ -> Alcotest.fail ("accepted: " ^ src)
      | Error _ -> ())
    bad

let test_parse_case_insensitive () =
  let pkg = parse
      "PACKAGE p PUBLIC THREAD t PROPERTIES Period => 5 Ms; END t; END p;"
  in
  match Syn.find_type pkg "t" with
  | Some ct ->
    Alcotest.(check (option int)) "period" (Some 5000)
      (Props.period_us ct.Syn.ct_properties)
  | None -> Alcotest.fail "t not found"

let test_parse_delayed_connection () =
  let pkg = parse
      {|package P public
        process implementation q.impl
          connections
            k: port a.o ->> b.i;
        end q.impl;
        process q end q;
        end P;|}
  in
  match Syn.find_impl pkg "q.impl" with
  | Some ci -> (
    match ci.Syn.ci_connections with
    | [ c ] -> Alcotest.(check bool) "delayed" false c.Syn.immediate
    | _ -> Alcotest.fail "one connection expected")
  | None -> Alcotest.fail "q.impl not found"

let test_property_values () =
  let check_v src f =
    match Parser.parse_property_value src with
    | Ok v -> f v
    | Error m -> Alcotest.fail m
  in
  check_v "42" (fun v -> assert (v = Syn.Pint (42, None)));
  check_v "4 ms" (fun v -> assert (v = Syn.Pint (4, Some "ms")));
  check_v "3.5 us" (fun v -> assert (v = Syn.Preal (3.5, Some "us")));
  check_v "true" (fun v -> assert (v = Syn.Pbool true));
  check_v "\"hello\"" (fun v -> assert (v = Syn.Pstring "hello"));
  check_v "Periodic" (fun v -> assert (v = Syn.Pname "Periodic"));
  check_v "reference (cpu)" (fun v -> assert (v = Syn.Preference "cpu"));
  check_v "classifier (a.impl)" (fun v -> assert (v = Syn.Pclassifier "a.impl"));
  check_v "(1, 2, 3)" (fun v ->
      assert (v = Syn.Plist [ Syn.Pint (1, None); Syn.Pint (2, None);
                              Syn.Pint (3, None) ]));
  check_v "1 ms .. 2 ms" (fun v ->
      assert (v = Syn.Prange (Syn.Pint (1, Some "ms"), Syn.Pint (2, Some "ms"))));
  check_v "[Time => Start; Offset => 0 ms .. 0 ms;]" (fun v ->
      assert (v = Syn.Pname "Start"))

(* ----------------------------- printer ---------------------------- *)

let test_roundtrip_tiny () =
  let pkg = parse tiny_package in
  let printed = Printer.package_to_string pkg in
  let pkg2 = parse printed in
  Alcotest.(check bool) "same package after roundtrip" true
    (Syn.strip_locs pkg = Syn.strip_locs pkg2)

let test_roundtrip_case_study () =
  let pkg = parse Polychrony.Case_study.aadl_source in
  let printed = Printer.package_to_string pkg in
  let pkg2 = parse printed in
  Alcotest.(check bool) "case study roundtrips" true
    (Syn.strip_locs pkg = Syn.strip_locs pkg2)

(* ---------------------------- properties -------------------------- *)

let test_duration_units () =
  let us v u = Props.duration_us (Syn.Pint (v, Some u)) in
  Alcotest.(check (option int)) "ms" (Some 4000) (us 4 "ms");
  Alcotest.(check (option int)) "us" (Some 7) (us 7 "us");
  Alcotest.(check (option int)) "s" (Some 2_000_000) (us 2 "s");
  Alcotest.(check (option int)) "ns rounds down" (Some 0) (us 500 "ns");
  Alcotest.(check (option int)) "min" (Some 60_000_000) (us 1 "min");
  Alcotest.(check (option int)) "unknown unit" None (us 1 "parsec");
  Alcotest.(check (option int)) "default ms" (Some 3000)
    (Props.duration_us (Syn.Pint (3, None)));
  Alcotest.(check (option int)) "range upper bound" (Some 2000)
    (Props.duration_us
       (Syn.Prange (Syn.Pint (1, Some "ms"), Syn.Pint (2, Some "ms"))))

let test_props_override () =
  let assocs =
    [ { Syn.pname = "Period"; pvalue = Syn.Pint (4, Some "ms"); applies_to = []; pa_loc = Syn.no_loc };
      { Syn.pname = "Timing_Properties::Period";
        pvalue = Syn.Pint (8, Some "ms"); applies_to = []; pa_loc = Syn.no_loc } ]
  in
  Alcotest.(check (option int)) "last wins, qualified matches" (Some 8000)
    (Props.period_us assocs)

let test_props_applies_to_skipped () =
  let assocs =
    [ { Syn.pname = "Period"; pvalue = Syn.Pint (4, Some "ms");
        applies_to = [ "x" ]; pa_loc = Syn.no_loc } ]
  in
  Alcotest.(check (option int)) "applies-to skipped by find" None
    (Props.period_us assocs)

let test_dispatch_protocol () =
  let mk n = [ { Syn.pname = "Dispatch_Protocol"; pvalue = Syn.Pname n;
                 applies_to = []; pa_loc = Syn.no_loc } ] in
  Alcotest.(check bool) "periodic" true
    (Props.dispatch_protocol (mk "Periodic") = Some Props.Periodic);
  Alcotest.(check bool) "sporadic" true
    (Props.dispatch_protocol (mk "sporadic") = Some Props.Sporadic);
  Alcotest.(check bool) "unknown" true
    (Props.dispatch_protocol (mk "Quantum") = None)

let test_processor_bindings () =
  let assocs =
    [ { Syn.pname = "Actual_Processor_Binding";
        pvalue = Syn.Preference "cpu";
        applies_to = [ "h1"; "h2" ]; pa_loc = Syn.no_loc } ]
  in
  Alcotest.(check (list (pair string string))) "bindings"
    [ ("h1", "cpu"); ("h2", "cpu") ]
    (Props.processor_bindings assocs)

(* [name_eq] compares in place; it must agree with the definition it
   replaced, which lowered copies of both base names *)
let test_name_eq () =
  let reference a b =
    String.lowercase_ascii (Props.base_name a)
    = String.lowercase_ascii (Props.base_name b)
  in
  let names =
    [ ""; ":"; "::"; "a"; "A"; "ab"; "Period"; "PERIOD"; "period";
      "Periods"; "Perio"; "Timing_Properties::Period";
      "timing_properties::PERIOD"; "Other::period"; "Period:";
      "Timing_Properties::"; "Timing_Properties::Period:"; "x::";
      "Deadline"; "Timing_Properties::Deadline"; "a:b:c"; "c"; "B:C";
      "Period\xc3\xa9"; "period\xc3\xa9" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "name_eq %S %S" a b)
            (reference a b) (Props.name_eq a b))
        names)
    names;
  Alcotest.(check bool) "qualified matches bare" true
    (Props.name_eq "Timing_Properties::period" "PERIOD");
  Alcotest.(check bool) "trailing colon keeps the whole name" false
    (Props.name_eq "Period:" "Period")

(* The same agreement on random names: bare, [::]-qualified, with a
   trailing [:] and empty, over an alphabet small enough that equal
   base names and shared last characters are common. *)
let prop_name_eq =
  let open QCheck2.Gen in
  let word =
    string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; '_'; ':' ]) (int_range 0 4)
  in
  let name =
    oneof
      [ word;
        map2 (fun q w -> q ^ "::" ^ w) word word;
        map (fun w -> w ^ ":") word;
        pure "" ]
  in
  QCheck2.Test.make ~name:"name_eq agrees with lowered base names" ~count:2000
    ~print:(fun (a, b) -> Printf.sprintf "%S %S" a b)
    (pair name name)
    (fun (a, b) ->
      Props.name_eq a b
      = String.equal
          (String.lowercase_ascii (Props.base_name a))
          (String.lowercase_ascii (Props.base_name b)))

(* ----------------------------- instance --------------------------- *)

let case_instance () = Polychrony.Case_study.instance ()

let test_instance_tree () =
  let t = case_instance () in
  Alcotest.(check int) "four threads" 4 (List.length (Inst.threads t));
  Alcotest.(check bool) "queue data present" true
    (Inst.find t "ProdConsSys.prProdCons.Queue" <> None);
  match Inst.find t "ProdConsSys.prProdCons.thProducer" with
  | Some th ->
    Alcotest.(check (option int)) "period from classifier" (Some 4000)
      (Aadl.Props.period_us th.Inst.i_props)
  | None -> Alcotest.fail "producer instance missing"

let test_instance_bindings () =
  let t = case_instance () in
  Alcotest.(check (list (pair string string))) "binding resolved"
    [ ("ProdConsSys.prProdCons", "ProdConsSys.Processor1") ]
    t.Inst.bindings

let test_semantic_connections () =
  let t = case_instance () in
  let sem = Inst.semantic_connections t in
  let has src dst =
    List.exists
      (fun c -> String.equal c.Inst.ci_src src && String.equal c.Inst.ci_dst dst)
      sem
  in
  (* env.pGo chases through the process port to the thread port *)
  Alcotest.(check bool) "env to producer" true
    (has "ProdConsSys.env.pGo" "ProdConsSys.prProdCons.thProducer.pProdStart");
  (* timer timeout reaches the display through the process boundary *)
  Alcotest.(check bool) "timeout to display" true
    (has "ProdConsSys.prProdCons.thProdTimer.pTimeOut"
       "ProdConsSys.display.pProdAlarm");
  (* and also the producer directly *)
  Alcotest.(check bool) "timeout to producer" true
    (has "ProdConsSys.prProdCons.thProdTimer.pTimeOut"
       "ProdConsSys.prProdCons.thProducer.pProdTimeOut")

let test_feature_of_path () =
  let t = case_instance () in
  match Inst.feature_of_path t "ProdConsSys.prProdCons.thProducer.pProdStart" with
  | Some (inst, f) ->
    Alcotest.(check string) "component" "thProducer" inst.Inst.i_name;
    Alcotest.(check string) "feature" "pProdStart" (Syn.feature_name f)
  | None -> Alcotest.fail "feature not resolved"

let test_instance_unknown_root () =
  match Inst.instantiate (parse tiny_package) ~root:"nope.impl" with
  | Ok _ -> Alcotest.fail "unknown root must fail"
  | Error _ -> ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let test_pp_tree_mentions_components () =
  let t = case_instance () in
  let s = Format.asprintf "%a" Inst.pp_tree t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in tree") true (contains s needle))
    [ "thProducer"; "thConsumer"; "Queue"; "Processor1"; "binding" ]

(* ------------------------------ checks ---------------------------- *)

let test_check_clean () =
  let issues = Check.check_package (parse Polychrony.Case_study.aadl_source) in
  Alcotest.(check (list string)) "no errors" []
    (List.map (Format.asprintf "%a" Check.pp_issue) (Check.errors issues))

let test_check_missing_period () =
  let pkg = parse
      {|package P public
        thread t properties Dispatch_Protocol => Periodic; end t;
        end P;|}
  in
  let errs = Check.errors (Check.check_package pkg) in
  Alcotest.(check bool) "periodic without period flagged" true
    (errs <> [])

let test_check_bad_subcomponent_category () =
  let pkg = parse
      {|package P public
        process q end q;
        process implementation q.impl
          subcomponents
            sub: process q.impl;
        end q.impl;
        end P;|}
  in
  Alcotest.(check bool) "process in process flagged" true
    (Check.errors (Check.check_package pkg) <> [])

let test_check_unknown_connection_endpoint () =
  let pkg = parse
      {|package P public
        thread t features o: out event port; end t;
        thread implementation t.impl end t.impl;
        process q end q;
        process implementation q.impl
          subcomponents w: thread t.impl;
          connections k: port w.o -> w.nothere;
        end q.impl;
        end P;|}
  in
  Alcotest.(check bool) "endpoint flagged" true
    (Check.errors (Check.check_package pkg) <> [])

let test_check_connection_direction () =
  let pkg = parse
      {|package P public
        thread t features i: in event port; o: out event port; end t;
        thread implementation t.impl end t.impl;
        process q end q;
        process implementation q.impl
          subcomponents w1: thread t.impl; w2: thread t.impl;
          connections k: port w1.i -> w2.i;
        end q.impl;
        end P;|}
  in
  Alcotest.(check bool) "from in port flagged" true
    (Check.errors (Check.check_package pkg) <> [])

let test_check_duplicate_feature () =
  let pkg = parse
      {|package P public
        thread t features x: in event port; x: out event port; end t;
        end P;|}
  in
  Alcotest.(check bool) "duplicate feature flagged" true
    (Check.errors (Check.check_package pkg) <> [])

let suite =
  [ ("aadl.lexer",
     [ Alcotest.test_case "tokens" `Quick test_lexer_tokens;
       Alcotest.test_case "comments" `Quick test_lexer_comments;
       Alcotest.test_case "positions" `Quick test_lexer_positions;
       Alcotest.test_case "errors" `Quick test_lexer_errors ]);
    ("aadl.parser",
     [ Alcotest.test_case "tiny package" `Quick test_parse_tiny;
       Alcotest.test_case "case study" `Quick test_parse_case_study;
       Alcotest.test_case "syntax errors" `Quick test_parse_errors;
       Alcotest.test_case "case-insensitive keywords" `Quick
         test_parse_case_insensitive;
       Alcotest.test_case "delayed connection" `Quick
         test_parse_delayed_connection;
       Alcotest.test_case "property values" `Quick test_property_values ]);
    ("aadl.printer",
     [ Alcotest.test_case "roundtrip tiny" `Quick test_roundtrip_tiny;
       Alcotest.test_case "roundtrip case study" `Quick
         test_roundtrip_case_study ]);
    ("aadl.props",
     [ Alcotest.test_case "duration units" `Quick test_duration_units;
       Alcotest.test_case "override semantics" `Quick test_props_override;
       Alcotest.test_case "applies-to skipped" `Quick
         test_props_applies_to_skipped;
       Alcotest.test_case "dispatch protocol" `Quick test_dispatch_protocol;
       Alcotest.test_case "processor bindings" `Quick test_processor_bindings;
       Alcotest.test_case "name_eq matches lowered base names" `Quick
         test_name_eq;
       QCheck_alcotest.to_alcotest prop_name_eq ]);
    ("aadl.instance",
     [ Alcotest.test_case "tree" `Quick test_instance_tree;
       Alcotest.test_case "bindings" `Quick test_instance_bindings;
       Alcotest.test_case "semantic connections" `Quick
         test_semantic_connections;
       Alcotest.test_case "feature_of_path" `Quick test_feature_of_path;
       Alcotest.test_case "unknown root" `Quick test_instance_unknown_root;
       Alcotest.test_case "tree rendering (Fig. 1)" `Quick
         test_pp_tree_mentions_components ]);
    ("aadl.check",
     [ Alcotest.test_case "case study clean" `Quick test_check_clean;
       Alcotest.test_case "missing period" `Quick test_check_missing_period;
       Alcotest.test_case "bad subcomponent" `Quick
         test_check_bad_subcomponent_category;
       Alcotest.test_case "unknown endpoint" `Quick
         test_check_unknown_connection_endpoint;
       Alcotest.test_case "connection direction" `Quick
         test_check_connection_direction;
       Alcotest.test_case "duplicate feature" `Quick
         test_check_duplicate_feature ]) ]
