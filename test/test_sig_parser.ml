(* SIGNAL concrete-syntax parser: Pp ∘ parse ∘ Pp must be a fixpoint
   (print-parse-print stability), on library processes, the generated
   case-study program and random expressions. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module Pp = Signal_lang.Pp
module SP = Signal_lang.Sig_parser
module Stdproc = Signal_lang.Stdproc

let parse_expr_ok s =
  match SP.parse_expr s with
  | Ok e -> e
  | Error m -> Alcotest.fail (s ^ ": " ^ m)

let test_expr_cases () =
  let cases =
    [ "a + b * 2";
      "(a + b) * 2";
      "x $ 1 init 5";
      "x when b";
      "when b";
      "x default y default z";
      "^x";
      "not a and b";
      "if c then x else y";
      "x $ 1 init 5 + 1";
      "- x";
      "a - -3";
      "a /= b";
      "a <= b or a >= c";
      "x modulo 3";
      "\"hello\"";
      "3.5" ]
  in
  List.iter
    (fun s ->
      let e = parse_expr_ok s in
      let printed = Pp.expr_to_string e in
      let e2 = parse_expr_ok printed in
      Alcotest.(check string) ("fixpoint: " ^ s) printed (Pp.expr_to_string e2))
    cases

let test_expr_structure () =
  (* precedence checks *)
  Alcotest.(check bool) "mul binds tighter" true
    (Ast.equal_expr (parse_expr_ok "a + b * 2") B.(v "a" + (v "b" * i 2)));
  Alcotest.(check bool) "when sugar" true
    (Ast.equal_expr (parse_expr_ok "when b") B.(on (v "b")));
  Alcotest.(check bool) "default right assoc" true
    (Ast.equal_expr
       (parse_expr_ok "a default b default c")
       B.(default (v "a") (default (v "b") (v "c"))));
  Alcotest.(check bool) "delay init" true
    (Ast.equal_expr
       (parse_expr_ok "x $ 1 init -2")
       B.(delay ~init:(Types.Vint (-2)) (v "x")));
  (* ... and tell different trees apart *)
  Alcotest.(check bool) "parentheses group" false
    (Ast.equal_expr (parse_expr_ok "(a + b) * 2") B.(v "a" + (v "b" * i 2)));
  Alcotest.(check bool) "delay init differs" false
    (Ast.equal_expr
       (parse_expr_ok "x $ 1 init 2")
       B.(delay ~init:(Types.Vint (-2)) (v "x")))

let test_parse_errors () =
  List.iter
    (fun s ->
      match SP.parse_expr s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error _ -> ())
    [ "x +"; "when"; "x $ 2 init 0"; "(a"; "x default" ]

let roundtrip_process p =
  let printed = Pp.process_to_string p in
  match SP.parse_process printed with
  | Error m -> Alcotest.fail (p.Ast.proc_name ^ ": " ^ m ^ "\n" ^ printed)
  | Ok p2 ->
    let printed2 = Pp.process_to_string p2 in
    Alcotest.(check string) ("fixpoint " ^ p.Ast.proc_name) printed printed2

let test_stdprocs_roundtrip () = List.iter roundtrip_process Stdproc.all

let test_case_study_roundtrip () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let prog = a.Polychrony.Pipeline.translation.Trans.System_trans.program in
  let printed = Pp.program_to_string prog in
  match SP.parse_program printed with
  | Error m -> Alcotest.fail m
  | Ok prog2 ->
    Alcotest.(check int) "same process count"
      (List.length prog.Ast.processes)
      (List.length prog2.Ast.processes);
    let printed2 = Pp.program_to_string prog2 in
    Alcotest.(check bool) "program fixpoint" true (printed = printed2)

let test_reparsed_program_normalizes () =
  (* the reparsed generated program still normalizes and simulates *)
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let prog = a.Polychrony.Pipeline.translation.Trans.System_trans.program in
  let printed = Pp.program_to_string prog in
  match SP.parse_program printed with
  | Error m -> Alcotest.fail m
  | Ok prog2 -> (
    let top =
      match
        Ast.find_process prog2
          a.Polychrony.Pipeline.translation.Trans.System_trans.top
            .Ast.proc_name
      with
      | Some p -> p
      | None -> Alcotest.fail "top process lost in roundtrip"
    in
    match Signal_lang.Normalize.process ~program:prog2 top with
    | Ok kp ->
      let stimuli =
        List.init 24 (fun t ->
            ("tick", Types.Vevent)
            :: (if t = 0 then [ ("env_pGo", Types.Vint 1) ] else []))
      in
      (match Polysim.Engine.run kp ~stimuli with
       | Ok tr ->
         Alcotest.(check bool) "reparsed program runs" true
           (Polysim.Trace.length tr = 24)
       | Error m -> Alcotest.fail m)
    | Error m -> Alcotest.fail (Putil.Diag.to_string m))

(* random expression fixpoint *)
let gen_expr =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 1 then
           oneof
             [ map (fun x -> B.v x) (oneofl [ "a"; "b"; "c" ]);
               map B.i (int_range (-9) 9);
               map B.b bool ]
         else
           let sub = self (n / 2) in
           oneof
             [ map2 (fun e1 e2 -> B.(e1 + e2)) sub sub;
               map2 (fun e1 e2 -> B.(e1 * e2)) sub sub;
               map2 (fun e1 e2 -> B.(e1 - e2)) sub sub;
               map2 (fun e1 e2 -> B.(e1 && e2)) sub sub;
               map2 (fun e1 e2 -> B.(e1 < e2)) sub sub;
               map2 (fun e1 e2 -> B.(e1 = e2)) sub sub;
               map B.not_ sub;
               map (fun e -> B.delay ~init:(Types.Vint 0) e) sub;
               map2 B.when_ sub sub;
               map (fun e -> B.on e) sub;
               map2 B.default sub sub;
               map B.clk sub;
               map3 B.if_ sub sub sub ])

let prop_expr_roundtrip =
  QCheck2.Test.make ~name:"print/parse/print expression fixpoint" ~count:500
    gen_expr (fun e ->
      (* one parse canonicalizes (e.g. '- 2' vs '-2'); from then on
         print/parse must be a strict fixpoint *)
      let printed0 = Pp.expr_to_string e in
      match SP.parse_expr printed0 with
      | Error m ->
        Format.eprintf "@.PARSE FAIL %s on: %s@." m printed0;
        false
      | Ok e1 -> (
        let printed1 = Pp.expr_to_string e1 in
        match SP.parse_expr printed1 with
        | Error m ->
          Format.eprintf "@.PARSE FAIL (2nd) %s on: %s@." m printed1;
          false
        | Ok e2 ->
          let printed2 = Pp.expr_to_string e2 in
          if printed2 <> printed1 then
            Format.eprintf "@.REPRINT DIFF:@.  %s@.  %s@." printed1 printed2;
          printed2 = printed1))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_expr_roundtrip ]

let suite =
  [ ("sig_parser",
     [ Alcotest.test_case "expression cases" `Quick test_expr_cases;
       Alcotest.test_case "expression structure" `Quick test_expr_structure;
       Alcotest.test_case "parse errors" `Quick test_parse_errors;
       Alcotest.test_case "library processes roundtrip" `Quick
         test_stdprocs_roundtrip;
       Alcotest.test_case "generated program roundtrip" `Quick
         test_case_study_roundtrip;
       Alcotest.test_case "reparsed program simulates" `Quick
         test_reparsed_program_normalizes ]
     @ qsuite) ]
