(* Symbolic reachability: the BDD engine must agree with explicit
   enumeration on every model it accepts, and its counterexamples must
   replay on the explicit simulator. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Compile = Polysim.Compile
module E = Polysim.Explore
module S = Polysim.Symbolic
module M = Polysim.Models

let ve = Types.Vevent
let vi n = Types.Vint n
let vb b = Types.Vbool b

(* integer counter modulo [m], advanced by [tk]; its register [pc]
   has exactly [m] values *)
let mod_counter_m m =
  N.process_exn
    (B.proc ~name:"mod_counter"
       ~inputs:[ Ast.var "tk" Types.Tevent ]
       ~outputs:[ Ast.var "out" Types.Tint ]
       ~locals:[ Ast.var "c" Types.Tint; Ast.var "pc" Types.Tint ]
       B.[
         "pc" := delay ~init:(vi 0) (v "c");
         "c" := (v "pc" + i 1) mod i m;
         v "c" ^= v "tk";
         "out" := v "c";
       ])

let mod_counter = lazy (mod_counter_m 3)

(* the widest register the domain inference accepts: dom_cap values *)
let mod64_counter = lazy (mod_counter_m 64)

let mod_counter_inputs = [ ("tk", [ None; Some ve ]) ]

(* a bounded FIFO, to cover the queue state encoding *)
let queue_model =
  lazy
    (N.process_exn
       (B.proc ~name:"queue"
          ~inputs:[ Ast.var "x" Types.Tint; Ast.var "pop" Types.Tevent ]
          ~outputs:[ Ast.var "d" Types.Tint; Ast.var "s" Types.Tint ]
          B.[
            inst
              ~params:[ vi 2; Types.Vstring "dropoldest" ]
              ~label:"q" "fifo"
              [ v "x"; v "pop" ]
              [ "d"; "s" ];
          ]))

let queue_inputs = [ ("x", [ None; Some (vi 1) ]); ("pop", [ None; Some ve ]) ]

(* the parity corpus: (label, kernel, inputs, prop) *)
let corpus =
  lazy
    (let counter_props k =
       [ M.counters_prop;
         S.Never_value ("lo0", vb true);
         S.Never_value ("lo0", vb false);
         S.Never_value ("hi0", vb true) ]
       @ (if k >= 2 then [ S.Never_present "lo1" ] else [])
     in
     List.concat_map
       (fun k ->
         List.map
           (fun p -> (Printf.sprintf "counters%d" k, M.counters k,
                      M.counters_inputs k, p))
           (counter_props k))
       [ 1; 2; 3 ]
     @ List.map
         (fun p -> ("mod_counter", Lazy.force mod_counter,
                    mod_counter_inputs, p))
         [ S.Never_value ("out", vi 0);
           S.Never_value ("out", vi 1);
           S.Never_value ("out", vi 5);
           S.Never_present "out" ]
     @ List.map
         (fun p -> ("mod64_counter", Lazy.force mod64_counter,
                    mod_counter_inputs, p))
         [ S.Never_value ("out", vi 3);
           S.Never_value ("out", vi 63);
           S.Never_present "out" ]
     @ List.map
         (fun p -> ("queue", Lazy.force queue_model, queue_inputs, p))
         [ S.Never_value ("s", vi 2);
           S.Never_present "d";
           S.Never_value ("d", vi 9) ])

(* one parity comparison; returns an error description or None *)
let compare_engines ?(strict_states = true) label kp inputs prop depth =
  let sym = E.check_symbolic ~depth ~inputs ~prop kp in
  let exp =
    E.check ~depth ~jobs:1 ~inputs ~safe:(S.safe_of_prop prop) kp
  in
  match (sym, exp) with
  | Ok (E.Holds, s1), Ok (E.Holds, s2) ->
    if strict_states && s1 <> s2 then
      Some
        (Printf.sprintf "%s depth %d: symbolic %d states, explicit %d"
           label depth s1 s2)
    else None
  | Ok (E.Violated _, _), Ok (E.Violated _, _) -> None
  | Error d, _ when d.Putil.Diag.code = S.code_unsupported ->
    Some (Printf.sprintf "%s: unexpectedly outside the fragment" label)
  | Error d1, Error d2 ->
    if d1.Putil.Diag.code = d2.Putil.Diag.code then None
    else
      Some
        (Printf.sprintf "%s depth %d: codes differ (%s vs %s)" label depth
           d1.Putil.Diag.code d2.Putil.Diag.code)
  | _ ->
    let show = function
      | Ok (E.Holds, s) -> Printf.sprintf "Holds/%d" s
      | Ok (E.Violated t, _) -> Printf.sprintf "Violated/%d" (List.length t)
      | Error d -> Printf.sprintf "Error[%s]" d.Putil.Diag.code
    in
    Some
      (Printf.sprintf "%s depth %d: symbolic %s, explicit %s" label depth
         (show sym) (show exp))

(* exhaustive sweep of the corpus at every small depth *)
let test_parity_sweep () =
  List.iter
    (fun (label, kp, inputs, prop) ->
      List.iter
        (fun depth ->
          match compare_engines label kp inputs prop depth with
          | None -> ()
          | Some m -> Alcotest.fail m)
        [ 1; 2; 3; 4 ])
    (Lazy.force corpus)

(* the same parity, sampled as a qcheck property (random case/depth) *)
let prop_parity =
  QCheck2.Test.make ~name:"symbolic/explicit verdict parity" ~count:40
    QCheck2.Gen.(
      let n = List.length (Lazy.force corpus) in
      pair (int_range 0 (n - 1)) (int_range 1 5))
    (fun (ci, depth) ->
      let label, kp, inputs, prop = List.nth (Lazy.force corpus) ci in
      match compare_engines label kp inputs prop depth with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* the counter family holds with exactly 3^k states, both engines *)
let test_counters_exact_states () =
  let kp = M.counters 3 in
  let inputs = M.counters_inputs 3 in
  (match E.check_symbolic ~depth:8 ~inputs ~prop:M.counters_prop kp with
  | Ok (E.Holds, s) -> Alcotest.(check int) "symbolic 3^3 states" 27 s
  | Ok (E.Violated _, _) -> Alcotest.fail "alarm is unreachable"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d));
  match
    E.check ~depth:8 ~jobs:1 ~inputs
      ~safe:(S.safe_of_prop M.counters_prop) kp
  with
  | Ok (E.Holds, s) -> Alcotest.(check int) "explicit 3^3 states" 27 s
  | Ok (E.Violated _, _) -> Alcotest.fail "alarm is unreachable (explicit)"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

(* a symbolic counterexample is replayed before being reported, so a
   Violated verdict carries an explicitly-validated stimulus sequence *)
let test_counters_violation_replays () =
  let kp = M.counters 2 in
  let inputs = M.counters_inputs 2 in
  match
    E.check_symbolic ~depth:2 ~inputs
      ~prop:(S.Never_value ("lo0", vb true)) kp
  with
  | Ok (E.Violated trail, _) ->
    Alcotest.(check int) "violated at the first instant" 1
      (List.length trail);
    Alcotest.(check bool) "the violating stimulus fires e0" true
      (List.mem_assoc "e0" (List.hd trail))
  | Ok (E.Holds, _) -> Alcotest.fail "lo0=true is reachable at depth 1"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

(* runtime errors surface with the same code as the explicit engine *)
let test_runtime_error_parity () =
  let kp =
    N.process_exn
      (B.proc ~name:"divz"
         ~inputs:[ Ast.var "y" Types.Tint ]
         ~outputs:[ Ast.var "q" Types.Tint ]
         B.[ "q" := i 6 / v "y" ])
  in
  let inputs = [ ("y", [ Some (vi 0); Some (vi 3) ]) ] in
  let prop = S.Never_value ("q", vi 99) in
  let code = function
    | Error d -> d.Putil.Diag.code
    | Ok _ -> "no error"
  in
  let sym = E.check_symbolic ~depth:2 ~inputs ~prop kp in
  let exp = E.check ~depth:2 ~jobs:1 ~inputs ~safe:(S.safe_of_prop prop) kp in
  Alcotest.(check string) "explicit raises EXPLORE-SIM-001"
    "EXPLORE-SIM-001" (code exp);
  Alcotest.(check string) "symbolic replays to the same code"
    "EXPLORE-SIM-001" (code sym)

(* an input synchronous with a sampled signal: its stimulus is checked
   against the clock the calculus derived, by both engines; a stimulus
   space that only agrees with the clock holds *)
let test_derived_input_parity () =
  let kp =
    N.process_exn
      (B.proc ~name:"derived_input" ~locals:[ Ast.var "y" Types.Tint ]
         ~inputs:[ Ast.var "a" Types.Tint; Ast.var "c" Types.Tbool;
                   Ast.var "i" Types.Tint ]
         ~outputs:[ Ast.var "z" Types.Tint ]
         B.[ "y" := when_ (v "a") (v "c"); "z" := v "i" + v "y" ])
  in
  let prop = S.Never_value ("z", vi 99) in
  List.iter
    (fun (label, inputs) ->
      Option.iter Alcotest.fail (compare_engines label kp inputs prop 2))
    [ ("disagreeing stimuli",
       [ ("a", [ Some (vi 1) ]); ("c", [ Some (vb true); Some (vb false) ]);
         ("i", [ None; Some (vi 5) ]) ]);
      ("agreeing stimuli",
       [ ("a", [ Some (vi 1) ]); ("c", [ Some (vb true) ]);
         ("i", [ Some (vi 5) ]) ]) ];
  let code = function
    | Error d -> d.Putil.Diag.code
    | Ok _ -> "no error"
  in
  Alcotest.(check string) "disagreement is a step error" "EXPLORE-SIM-001"
    (code
       (E.check_symbolic ~depth:2 ~prop kp
          ~inputs:
            [ ("a", [ Some (vi 1) ]); ("c", [ Some (vb false) ]);
              ("i", [ Some (vi 5) ]) ]))

let expect_unsupported ?message label r =
  match r with
  | Error d ->
    Alcotest.(check string) (label ^ ": EXPLORE-SYM-001") S.code_unsupported
      d.Putil.Diag.code;
    Option.iter
      (fun m ->
        Alcotest.(check string) (label ^ ": message") m d.Putil.Diag.message)
      message
  | Ok _ -> Alcotest.fail (label ^ ": must be rejected")

(* unbounded value domains reaching a register are out of fragment,
   and so is one value past the cap: a modulo-65 counter *)
let test_unsupported_fragment () =
  let kp =
    N.process_exn
      (B.proc ~name:"unbounded"
         ~inputs:[ Ast.var "tk" Types.Tevent ]
         ~outputs:[ Ast.var "out" Types.Tint ]
         ~locals:[ Ast.var "c" Types.Tint; Ast.var "pc" Types.Tint ]
         B.[
           "pc" := delay ~init:(vi 0) (v "c");
           "c" := v "pc" + i 1;
           v "c" ^= v "tk";
           "out" := v "c";
         ])
  in
  let prop = S.Never_value ("out", vi 5) in
  expect_unsupported "unbounded counter"
    (E.check_symbolic ~depth:3 ~inputs:mod_counter_inputs ~prop kp);
  expect_unsupported "mod 65 counter"
    (E.check_symbolic ~depth:3 ~inputs:mod_counter_inputs ~prop
       (mod_counter_m 65))

(* a register fed by x + y, x over 8 values and y over [ny] multiples
   of 8: 8 * ny distinct sums *)
let sum_register ny =
  ( N.process_exn
      (B.proc ~name:"sum_register"
         ~inputs:[ Ast.var "x" Types.Tint; Ast.var "y" Types.Tint ]
         ~outputs:[ Ast.var "out" Types.Tint ]
         ~locals:[ Ast.var "z" Types.Tint ]
         B.[ "z" := v "x" + v "y"; "out" := delay ~init:(vi 0) (v "z") ]),
    [ ("x", List.init 8 (fun k -> Some (vi k)));
      ("y", List.init ny (fun k -> Some (vi (8 * k)))) ] )

(* the cap applies to a binop's product set, not to its operands: 64
   sums fit, 72 do not, though every operand has at most 9 values *)
let test_cap_boundary_product () =
  let prop = S.Never_value ("out", vi 999) in
  let kp, inputs = sum_register 8 in
  (match compare_engines "64 sums" kp inputs prop 2 with
  | None -> ()
  | Some m -> Alcotest.fail m);
  let kp, inputs = sum_register 9 in
  expect_unsupported "72 sums" (E.check_symbolic ~depth:2 ~inputs ~prop kp)

(* The case study is outside the fragment: the consumer's timer
   register counts without bound. Deciding that is cheap (gated on
   allocated words, not wall time), and the default engine then
   answers with the explicit one. *)
let test_case_study_rejection () =
  let a = Lazy.force Test_pipeline.analyzed_nominal in
  let inputs = Polychrony.Pipeline.verify_inputs a in
  let reject () =
    E.check_symbolic ~depth:8 ~inputs ~prop:(S.Never_present "Alarm")
      a.Polychrony.Pipeline.kernel
  in
  ignore (reject ()) (* warm the compiled-plan memo *);
  let w0 = Gc.minor_words () in
  let r = reject () in
  let words = Gc.minor_words () -. w0 in
  expect_unsupported
    ~message:
      "delay register prProdCons_thConsTimer___t89 has an unbounded value \
       domain"
    "case study" r;
  Alcotest.(check bool)
    (Printf.sprintf "rejection allocates %.2f M minor words (at most 8 M)"
       (words /. 1e6))
    true (words <= 8e6);
  match Polychrony.Pipeline.verify ~never:"Alarm" a with
  | Ok (E.Holds, states, `Explicit) ->
    Alcotest.(check int) "explicit engine explores 43 states" 43 states
  | Ok (E.Holds, _, `Symbolic) -> Alcotest.fail "decided by the symbolic engine"
  | Ok (E.Violated _, _, _) -> Alcotest.fail "Alarm is unreachable"
  | Error d -> Alcotest.fail (Putil.Diag.to_string d)

(* stimulus validation is shared by all engines *)
let test_stimulus_validation () =
  let kp = M.counters 1 in
  let bad = [ ("nope", [ None; Some ve ]) ] in
  let check_code r =
    match r with
    | Error d ->
      Alcotest.(check string) "EXPLORE-SIM-001" "EXPLORE-SIM-001"
        d.Putil.Diag.code
    | Ok _ -> Alcotest.fail "unknown stimulus target must be rejected"
  in
  check_code (E.check ~depth:2 ~jobs:1 ~inputs:bad ~safe:(fun _ -> true) kp);
  check_code (E.check_dfs ~depth:2 ~inputs:bad ~safe:(fun _ -> true) kp);
  check_code
    (E.check_symbolic ~depth:2 ~inputs:bad ~prop:M.counters_prop kp);
  (* all-absent alternatives for an unknown signal stay harmless *)
  match
    E.check ~depth:2 ~jobs:1
      ~inputs:(("ghost", [ None ]) :: M.counters_inputs 1)
      ~safe:(fun _ -> true) kp
  with
  | Ok (E.Holds, _) -> ()
  | Ok (E.Violated _, _) | Error _ ->
    Alcotest.fail "all-absent unknown stimulus must be ignored"

(* satellite: the visited-set key must not allocate beyond the digest —
   per-call cost is a small constant, unlike a Marshal image *)
let test_state_key_allocation () =
  let kp = M.counters 4 in
  let c = Result.get_ok (Compile.compile kp) in
  let kb = Compile.keybuf () in
  ignore (Compile.state_key c kb);
  let words n =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Compile.state_key c kb)
    done;
    Gc.minor_words () -. w0
  in
  let per_call = words 2000 /. 2000. in
  Alcotest.(check bool)
    (Printf.sprintf "state_key allocates %.1f words/call" per_call)
    true (per_call < 64.)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_parity ]

let suite =
  [ ("symbolic",
     [ Alcotest.test_case "engine parity sweep" `Quick test_parity_sweep;
       Alcotest.test_case "counters exact state count" `Quick
         test_counters_exact_states;
       Alcotest.test_case "counterexample replays" `Quick
         test_counters_violation_replays;
       Alcotest.test_case "runtime error parity" `Quick
         test_runtime_error_parity;
       Alcotest.test_case "input against its derived clock: parity" `Quick
         test_derived_input_parity;
       Alcotest.test_case "unsupported fragment" `Quick
         test_unsupported_fragment;
       Alcotest.test_case "cap boundary: binop product" `Quick
         test_cap_boundary_product;
       Alcotest.test_case "case study rejected cheaply" `Quick
         test_case_study_rejection;
       Alcotest.test_case "stimulus validation" `Quick
         test_stimulus_validation;
       Alcotest.test_case "state_key allocation" `Quick
         test_state_key_allocation ]
     @ qsuite) ]
