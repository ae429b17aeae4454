(* Bounded exhaustive exploration: safety properties verified over ALL
   input patterns up to a depth, with counterexamples when violated. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module E = Polysim.Explore

let vi n = Types.Vint n
let ve = Types.Vevent

(* the timer never raises a timeout before [duration] ticks have
   elapsed since the last arm, whatever the start/stop/tick pattern *)
let test_timer_never_early () =
  let p =
    B.proc ~name:"use_timer"
      ~inputs:[ Ast.var "go" Types.Tevent; Ast.var "halt" Types.Tevent;
                Ast.var "tk" Types.Tevent ]
      ~outputs:[ Ast.var "out" Types.Tevent ]
      B.[ inst ~params:[ vi 3 ] ~label:"tm" "timer"
            [ v "go"; v "halt"; v "tk" ] [ "out" ] ]
  in
  let kp = N.process_exn p in
  (* within 3 instants a duration-3 timer can never expire *)
  match
    E.check ~depth:3
      ~inputs:
        [ ("go", [ None; Some ve ]); ("halt", [ None; Some ve ]);
          ("tk", [ None; Some ve ]) ]
      ~safe:(fun present -> not (List.mem_assoc "out" present))
      kp
  with
  | Ok (E.Holds, states) ->
    Alcotest.(check bool) "explored several states" true (states > 1)
  | Ok (E.Violated tr, _) ->
    Alcotest.fail
      (Printf.sprintf "early timeout after %d instants" (List.length tr))
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

let test_timer_can_expire () =
  (* at depth 5 the timeout IS reachable: arm then tick 4 times *)
  let p =
    B.proc ~name:"use_timer"
      ~inputs:[ Ast.var "go" Types.Tevent; Ast.var "halt" Types.Tevent;
                Ast.var "tk" Types.Tevent ]
      ~outputs:[ Ast.var "out" Types.Tevent ]
      B.[ inst ~params:[ vi 3 ] ~label:"tm" "timer"
            [ v "go"; v "halt"; v "tk" ] [ "out" ] ]
  in
  let kp = N.process_exn p in
  match
    E.check ~depth:5
      ~inputs:
        [ ("go", [ None; Some ve ]); ("halt", [ None; Some ve ]);
          ("tk", [ None; Some ve ]) ]
      ~safe:(fun present -> not (List.mem_assoc "out" present))
      kp
  with
  | Ok (E.Violated trail, _) ->
    Alcotest.(check bool) "counterexample within depth" true
      (List.length trail <= 5 && List.length trail >= 4)
  | Ok (E.Holds, _) -> Alcotest.fail "timeout must be reachable at depth 5"
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

(* the fm memory law universally: o equals the last present i *)
let test_fm_law_universal () =
  let p =
    B.proc ~name:"use_fm"
      ~inputs:[ Ast.var "i" Types.Tint; Ast.var "b" Types.Tbool ]
      ~outputs:[ Ast.var "o" Types.Tint ]
      B.[ inst ~label:"mem" "fm" [ v "i"; v "b" ] [ "o" ] ]
  in
  let kp = N.process_exn p in
  (* per-instant consistency: whenever i and b=true are both present,
     o must be present and equal to i (the instantaneous half of the
     fm law; the memory half is covered by the engine tests) *)
  let safe present =
    match List.assoc_opt "i" present, List.assoc_opt "b" present,
          List.assoc_opt "o" present
    with
    | Some (Types.Vint n), Some bv, Some (Types.Vint m)
      when (match bv with Types.Vbool b -> b | _ -> false) ->
      n = m
    | Some _, Some bv, None
      when (match bv with Types.Vbool b -> b | _ -> false) ->
      false (* i and b=true present but o absent: violates fm *)
    | _ -> true
  in
  match
    E.check ~depth:5
      ~inputs:
        [ ("i", [ None; Some (vi 1); Some (vi 2) ]);
          ("b", [ None; Some (Types.Vbool true); Some (Types.Vbool false) ]) ]
      ~safe kp
  with
  | Ok (E.Holds, states) ->
    (* the memory cell ranges over {init, 1, 2}: the breadth-first
       search counts each distinct state exactly once *)
    Alcotest.(check int) "distinct memory states" 3 states
  | Ok (E.Violated _, _) -> Alcotest.fail "fm law violated"
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

let test_counterexample_replays () =
  (* a deliberately falsifiable property: the counter never reaches 3 *)
  let p =
    B.proc ~name:"use_counter"
      ~inputs:[ Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "n" Types.Tint ]
      B.[ inst ~label:"c" "counter" [ v "e" ] [ "n" ] ]
  in
  let kp = N.process_exn p in
  match
    E.check ~depth:6
      ~inputs:[ ("e", [ None; Some ve ]) ]
      ~safe:(fun present -> List.assoc_opt "n" present <> Some (vi 3))
      kp
  with
  | Ok (E.Violated trail, _) -> (
    (* the trail, replayed on the interpreter, reproduces the bug *)
    Alcotest.(check int) "trail carries three events" 3
      (List.length (List.filter (fun s -> s <> []) trail));
    match Polysim.Engine.run kp ~stimuli:trail with
    | Ok tr ->
      let last = Polysim.Trace.length tr - 1 in
      Alcotest.(check bool) "replay reaches n=3" true
        (Polysim.Trace.get tr last "n" = Some (vi 3))
    | Error m -> Alcotest.fail m)
  | Ok (E.Holds, _) -> Alcotest.fail "n=3 is reachable"
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

let test_state_pruning_counts () =
  (* a 1-bit toggle has exactly 2 distinct states regardless of depth *)
  let p =
    B.proc ~name:"toggle"
      ~inputs:[ Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "q" Types.Tbool ]
      B.[ "q" := not_ (delay ~init:(Types.Vbool false) (v "q"));
          clk (v "q") ^= clk (v "e") ]
  in
  let kp = N.process_exn p in
  match
    E.reachable_states ~depth:10 ~inputs:[ ("e", [ None; Some ve ]) ] kp
  with
  | Ok n -> Alcotest.(check int) "two states" 2 n
  | Error m -> Alcotest.fail (Putil.Diag.to_string m)

let test_uncompilable_rejected () =
  let p =
    B.proc ~name:"cyclic"
      ~inputs:[ Ast.var "x" Types.Tint ]
      ~outputs:[ Ast.var "y" Types.Tint ]
      ~locals:[ Ast.var "w" Types.Tint ]
      B.[ "y" := v "w" + v "x"; "w" := v "y" + i 1 ]
  in
  let kp = N.process_exn p in
  match E.check ~inputs:[] ~safe:(fun _ -> true) kp with
  | Ok _ -> Alcotest.fail "cyclic process must not explore"
  | Error _ -> ()

(* the parallel frontier search returns bit-identical results for any
   job count and any scheduling: verdict, counterexample and state
   count *)
let two_counters =
  lazy
    (N.process_exn
       (B.proc ~name:"two_counters"
          ~inputs:[ Ast.var "e0" Types.Tevent; Ast.var "e1" Types.Tevent ]
          ~outputs:[ Ast.var "n0" Types.Tint; Ast.var "n1" Types.Tint ]
          B.[ inst ~label:"c0" "counter" [ v "e0" ] [ "n0" ];
              inst ~label:"c1" "counter" [ v "e1" ] [ "n1" ] ]))

let two_counter_inputs =
  [ ("e0", [ None; Some ve ]); ("e1", [ None; Some ve ]) ]

let test_parallel_determinism () =
  let kp = Lazy.force two_counters in
  (* falsifiable: counter 0 reaches 2 — many equally-deep witnesses, so
     determinism of the reported one is the interesting part *)
  let safe present = List.assoc_opt "n0" present <> Some (vi 2) in
  let runs =
    List.map
      (fun jobs ->
        E.check ~depth:6 ~jobs ~inputs:two_counter_inputs ~safe kp)
      [ 1; 2; 4; 4; 4 ]
  in
  match runs with
  | first :: rest ->
    List.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "run %d identical to jobs:1" (i + 1))
          true (r = first))
      rest;
    (match first with
     | Ok (E.Violated trail, _) ->
       (* the BFS minimum: two events on e0, nothing longer *)
       Alcotest.(check int) "shallowest counterexample" 2 (List.length trail)
     | _ -> Alcotest.fail "expected a violation")
  | [] -> assert false

let test_parallel_matches_dfs_verdict () =
  let kp = Lazy.force two_counters in
  let holds present = List.assoc_opt "n1" present <> Some (vi 9) in
  let violated present = List.assoc_opt "n1" present <> Some (vi 3) in
  List.iter
    (fun safe ->
      let d = E.check_dfs ~depth:5 ~inputs:two_counter_inputs ~safe kp in
      List.iter
        (fun jobs ->
          let b = E.check ~depth:5 ~jobs ~inputs:two_counter_inputs ~safe kp in
          match (d, b) with
          | Ok (E.Holds, _), Ok (E.Holds, _) -> ()
          | Ok (E.Violated _, _), Ok (E.Violated _, _) -> ()
          | _ -> Alcotest.fail "parallel verdict differs from DFS")
        [ 1; 2; 4 ])
    [ holds; violated ]

(* random programs: same verdict from the DFS reference and the
   parallel search at 1, 2 and 4 jobs, and identical results across
   job counts *)
let gen_program =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let rec build k env acc =
    if k = 0 then return (List.rev acc, env)
    else
      let* pick = int_range 0 5 in
      let name = Printf.sprintf "s%d" (List.length acc) in
      let* src = oneofl env in
      let* e =
        match pick with
        | 0 | 1 ->
          let* cnd = oneofl env in
          return B.(when_ (v src) (v cnd < i 2))
        | 2 ->
          let* other = oneofl env in
          return B.(default (v src) (v other))
        | 3 -> return B.(delay (v src))
        | _ -> return B.(v src + i 1)
      in
      build (k - 1) (name :: env) ((name, e) :: acc)
  in
  let* locals, _ = build n [ "x" ] [] in
  let decls = List.map (fun (nm, _) -> Ast.var nm Types.Tint) locals in
  let body = List.map (fun (nm, e) -> B.(nm := e)) locals in
  let last = fst (List.nth locals (List.length locals - 1)) in
  return
    (B.proc ~name:"ex"
       ~inputs:[ Ast.var "x" Types.Tint ]
       ~outputs:[ Ast.var "out" Types.Tint ]
       ~locals:decls
       (body @ [ B.("out" := v last) ]))

let prop_parallel_parity =
  QCheck2.Test.make ~name:"parallel check agrees with sequential DFS"
    ~count:40 gen_program (fun p ->
      match N.process p with
      | Error _ -> true
      | Ok kp ->
        let inputs = [ ("x", [ None; Some (vi 1); Some (vi 2) ]) ] in
        let safe present = List.assoc_opt "out" present <> Some (vi 3) in
        let verdict_of = function
          | Ok (E.Holds, _) -> `Holds
          | Ok (E.Violated _, _) -> `Violated
          | Error _ -> `Error
        in
        let dfs = verdict_of (E.check_dfs ~depth:4 ~inputs ~safe kp) in
        let seq = E.check ~depth:4 ~jobs:1 ~inputs ~safe kp in
        verdict_of seq = dfs
        && List.for_all
             (fun jobs ->
               E.check ~depth:4 ~jobs ~inputs ~safe kp = seq)
             [ 2; 4 ])

(* More jobs than the runtime can run domains is a coded error,
   raised before any domain starts, whether the count comes from
   [jobs] (the CLI's --jobs) or from EXPLORE_JOBS; so this test starts
   no domain *)
let test_jobs_bounded () =
  let kp = Lazy.force two_counters in
  let rejected label r =
    match r with
    | Error d ->
      Alcotest.(check string) label "EXPLORE-JOBS-001" d.Putil.Diag.code
    | Ok _ -> Alcotest.fail (label ^ ": accepted")
  in
  let check ?jobs () =
    E.check ~depth:2 ?jobs ~inputs:two_counter_inputs
      ~safe:(fun _ -> true) kp
  in
  rejected "one above the bound" (check ~jobs:(E.max_jobs + 1) ());
  rejected "jobs" (check ~jobs:100_000 ());
  let saved = Sys.getenv_opt "EXPLORE_JOBS" in
  Unix.putenv "EXPLORE_JOBS" "100000";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "EXPLORE_JOBS" (Option.value saved ~default:""))
    (fun () ->
      rejected "EXPLORE_JOBS" (check ());
      rejected "verify, EXPLORE_JOBS"
        (Polychrony.Pipeline.verify_kernel ~depth:2 ~engine:`Explicit
           ~never:"n0" ~inputs:two_counter_inputs kp))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_parallel_parity ]

let suite =
  [ ("explore",
     [ Alcotest.test_case "timer never early (BMC)" `Quick
         test_timer_never_early;
       Alcotest.test_case "timer expiry reachable" `Quick
         test_timer_can_expire;
       Alcotest.test_case "fm law universal" `Quick test_fm_law_universal;
       Alcotest.test_case "counterexample replays" `Quick
         test_counterexample_replays;
       Alcotest.test_case "state pruning" `Quick test_state_pruning_counts;
       Alcotest.test_case "uncompilable rejected" `Quick
         test_uncompilable_rejected;
       Alcotest.test_case "parallel determinism" `Quick
         test_parallel_determinism;
       Alcotest.test_case "parallel matches DFS verdict" `Quick
         test_parallel_matches_dfs_verdict;
       Alcotest.test_case "job count bounded" `Quick test_jobs_bounded ]
     @ qsuite) ]
