(* Putil.Obs: ambient observation scopes — per-scope metric attribution
   with global roll-up, nesting, cross-domain propagation through
   Domain_pool (metrics and trace-span parenting), two concurrent
   pipeline sessions partitioning the global delta, the merged
   OpenMetrics exposition, and the always-on bounded flight recorder. *)

module M = Putil.Metrics
module T = Putil.Tracing
module Obs = Putil.Obs
module Pool = Putil.Domain_pool
module P = Polychrony.Pipeline

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let count_occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let scope_value label name =
  M.counter_value (Obs.scope_registry (Obs.scope label)) name

(* ---------------- scoped attribution ------------------------------- *)

let test_scoped_rollup () =
  let before = M.counter_value M.global "obs.t_hits" in
  Obs.with_scope ~label:"obs-roll-a" (fun () ->
      M.incr ~by:3 (M.counter "obs.t_hits"));
  Obs.with_scope ~label:"obs-roll-b" (fun () ->
      M.incr ~by:2 (M.counter "obs.t_hits"));
  M.incr (M.counter "obs.t_hits");
  Alcotest.(check int) "scope a sees its share" 3
    (scope_value "obs-roll-a" "obs.t_hits");
  Alcotest.(check int) "scope b sees its share" 2
    (scope_value "obs-roll-b" "obs.t_hits");
  Alcotest.(check int) "global rolls up every write" (before + 6)
    (M.counter_value M.global "obs.t_hits")

let test_nesting_innermost_wins () =
  Obs.with_scope ~label:"obs-outer" (fun () ->
      Obs.with_scope ~label:"obs-inner" (fun () ->
          M.incr (M.counter "obs.t_nest");
          match Obs.current () with
          | Some s ->
            Alcotest.(check string) "current is the innermost" "obs-inner"
              (Obs.scope_label s)
          | None -> Alcotest.fail "no current scope inside with_scope");
      match Obs.current () with
      | Some s ->
        Alcotest.(check string) "outer restored on exit" "obs-outer"
          (Obs.scope_label s)
      | None -> Alcotest.fail "outer scope lost");
  Alcotest.(check int) "innermost scope got the write" 1
    (scope_value "obs-inner" "obs.t_nest");
  Alcotest.(check int) "outer scope did not" 0
    (scope_value "obs-outer" "obs.t_nest");
  Alcotest.(check bool) "no scope after exit" true (Obs.current () = None)

let test_all_kinds_and_isolation () =
  Obs.with_scope ~label:"obs-kinds" (fun () ->
      M.set (M.gauge "obs.k_gauge") 7;
      M.max_gauge (M.gauge "obs.k_gauge") 3;
      M.add_span_ns (M.timer "obs.k_timer") 1_000;
      (* a write to a non-global registry never duplicates into the
         scope: only [global] instruments are ambient *)
      let private_reg = M.create () in
      M.incr (M.counter ~registry:private_reg "obs.k_private"));
  let reg = Obs.scope_registry (Obs.scope "obs-kinds") in
  Alcotest.(check int) "gauge attributed (max_gauge kept 7)" 7
    (M.counter_value reg "obs.k_gauge");
  (match M.find reg "obs.k_timer" with
   | Some (M.Timer { spans; total_ns }) ->
     Alcotest.(check int) "timer spans" 1 spans;
     Alcotest.(check int) "timer total" 1_000 total_ns
   | _ -> Alcotest.fail "timer not attributed to the scope");
  Alcotest.(check bool) "non-global write stays private" true
    (M.find reg "obs.k_private" = None)

(* ---------------- concurrent pipeline sessions --------------------- *)

(* The acceptance test of the scope design: two sessions analyzed and
   simulated in parallel domains record fully disjoint per-scope
   metrics whose sum is exactly the global delta. *)
let test_concurrent_sessions () =
  let before = M.counter_value M.global "compile.instants" in
  let run label () =
    Printexc.record_backtrace true;
    try
      let session = P.new_session ~label () in
      match
        P.analyze ~session ~registry:Polychrony.Case_study.registry_nominal
          Polychrony.Case_study.aadl_source
      with
      | Error m -> Error (Putil.Diag.list_to_string m)
      | Ok a -> (
        match P.simulate ~hyperperiods:1 a with
        | Error m -> Error (Putil.Diag.list_to_string m)
        | Ok _ -> Ok ())
    with e ->
      Error (Printexc.to_string e ^ "\n" ^ Printexc.get_backtrace ())
  in
  Printexc.record_backtrace true;
  let d1 = Domain.spawn (run "obs-sess-1") in
  let d2 = Domain.spawn (run "obs-sess-2") in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  (match r1 with Ok () -> () | Error m -> Alcotest.fail ("session 1: " ^ m));
  (match r2 with Ok () -> () | Error m -> Alcotest.fail ("session 2: " ^ m));
  let v1 = scope_value "obs-sess-1" "compile.instants" in
  let v2 = scope_value "obs-sess-2" "compile.instants" in
  Alcotest.(check bool) "both sessions simulated" true (v1 > 0 && v2 > 0);
  Alcotest.(check int) "identical workloads, identical attribution" v1 v2;
  Alcotest.(check int) "scopes partition the global delta" (v1 + v2)
    (M.counter_value M.global "compile.instants" - before)

(* ---------------- Domain_pool propagation -------------------------- *)

let test_pool_propagation () =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) @@ fun () ->
  let n = 16 in
  Obs.with_scope ~label:"obs-pool" (fun () ->
      T.with_span "submit" (fun () ->
          Pool.with_pool 4 (fun pool ->
              Pool.run_tasks pool
                (List.init n (fun _ ->
                     fun () ->
                      T.with_span "task" (fun () ->
                          M.incr (M.counter "obs.pool_hits")))))));
  T.set_enabled false;
  Alcotest.(check int) "worker writes attribute to the submitting scope" n
    (scope_value "obs-pool" "obs.pool_hits");
  Alcotest.(check int) "queue depth drained" 0
    (M.counter_value M.global "pool.queue_depth");
  let evs = List.concat_map snd (T.events ()) in
  let submit_id =
    match
      List.find_map
        (function T.Begin { name = "submit"; id; _ } -> Some id | _ -> None)
        evs
    with
    | Some id -> id
    | None -> Alcotest.fail "submit span not recorded"
  in
  let task_parents =
    List.filter_map
      (function T.Begin { name = "task"; parent; _ } -> Some parent | _ -> None)
      evs
  in
  Alcotest.(check int) "every task span recorded" n (List.length task_parents);
  List.iter
    (fun p ->
      Alcotest.(check int) "task span parented under submit" submit_id p)
    task_parents

(* ---------------- flight recorder ---------------------------------- *)

let my_ring () =
  let me = (Domain.self () :> int) in
  match List.find_opt (fun (d, _, _) -> d = me) (T.flight_events ()) with
  | Some r -> r
  | None -> Alcotest.fail "no flight ring for the calling domain"

let shape = function
  | T.Begin { name; _ } -> "B:" ^ name
  | T.End { name; _ } -> "E:" ^ name
  | T.Inst { name; _ } -> "I:" ^ name
  | T.Diag { code; _ } -> "D:" ^ code
  | T.Lane_span { name; _ } | T.Lane_inst { name; _ } -> "L:" ^ name

let test_flight_always_on () =
  T.set_enabled false;
  T.reset ();
  T.flight_reset ();
  T.with_span "fr.span" (fun () -> T.instant "fr.inst");
  ignore (Putil.Diag.make Putil.Diag.Error ~code:"FR001" "flight test");
  let _, dropped, evs = my_ring () in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check (list string)) "recorded with tracing disabled"
    [ "B:fr.span"; "I:fr.inst"; "E:fr.span"; "D:FR001" ]
    (List.map shape evs);
  (match List.rev evs with
   | T.Diag { severity; message; _ } :: _ ->
     Alcotest.(check (pair string string)) "diag carries severity and message"
       ("error", "flight test") (severity, message)
   | _ -> Alcotest.fail "last ring event is not the diagnostic");
  Alcotest.(check int) "tracing buffers untouched" 0
    (List.length (T.events ()))

let test_flight_bounded () =
  T.set_enabled false;
  T.flight_reset ();
  let extra = 50 in
  for i = 1 to T.flight_capacity + extra do
    T.instant (Printf.sprintf "fr.b%d" i)
  done;
  let _, dropped, evs = my_ring () in
  Alcotest.(check int) "oldest events dropped" extra dropped;
  Alcotest.(check int) "ring keeps exactly capacity" T.flight_capacity
    (List.length evs);
  (match evs with
   | first :: _ ->
     Alcotest.(check string) "survivors start after the dropped prefix"
       (Printf.sprintf "I:fr.b%d" (extra + 1))
       (shape first)
   | [] -> Alcotest.fail "empty ring");
  (match List.rev evs with
   | last :: _ ->
     Alcotest.(check string) "newest event survives"
       (Printf.sprintf "I:fr.b%d" (T.flight_capacity + extra))
       (shape last)
   | [] -> Alcotest.fail "empty ring")

(* ---------------- exposition --------------------------------------- *)

let test_openmetrics_exposition () =
  Obs.with_scope ~label:"obs-expo" (fun () ->
      M.incr ~by:5 (M.counter "obs.expo_hits"));
  let om = Obs.to_openmetrics () in
  Alcotest.(check bool) "per-scope sample labelled" true
    (contains om "obs_expo_hits_total{scope=\"obs-expo\"} 5");
  Alcotest.(check bool) "global roll-up sample unlabelled" true
    (contains om "\nobs_expo_hits_total 5\n");
  Alcotest.(check int) "family declared exactly once" 1
    (count_occurrences om "# TYPE obs_expo_hits counter\n");
  Alcotest.(check bool) "terminated by # EOF" true
    (let tail = "# EOF\n" in
     String.length om >= String.length tail
     && String.sub om (String.length om - String.length tail)
          (String.length tail)
        = tail)

let test_flight_dump_json () =
  T.flight_reset ();
  T.instant "fr.dump";
  let module J = M.Json in
  match J.of_string (Obs.flight_recorder_to_string ()) with
  | Error m -> Alcotest.fail ("flight snapshot is not valid JSON: " ^ m)
  | Ok j ->
    Alcotest.(check bool) "schema" true
      (J.member "schema" j = Some (J.String "polychrony-flight/v1"));
    Alcotest.(check bool) "capacity" true
      (J.member "capacity" j = Some (J.Int T.flight_capacity));
    (match J.member "domains" j with
     | Some (J.Arr (_ :: _ as doms)) ->
       let dom_ok d =
         match (J.member "domain" d, J.member "dropped" d, J.member "events" d)
         with
         | Some (J.Int _), Some (J.Int _), Some (J.Arr evs) ->
           List.for_all
             (fun e ->
               match (J.member "kind" e, J.member "name" e) with
               | Some (J.String _), Some (J.String _) -> true
               | _ -> false)
             evs
         | _ -> false
       in
       Alcotest.(check bool) "per-domain records well-formed" true
         (List.for_all dom_ok doms)
     | _ -> Alcotest.fail "domains array missing or empty")

let suite =
  [ ("obs",
     [ Alcotest.test_case "scoped roll-up" `Quick test_scoped_rollup;
       Alcotest.test_case "nesting: innermost wins" `Quick
         test_nesting_innermost_wins;
       Alcotest.test_case "all instrument kinds, non-global isolation"
         `Quick test_all_kinds_and_isolation;
       Alcotest.test_case "concurrent sessions partition the roll-up"
         `Quick test_concurrent_sessions;
       Alcotest.test_case "domain pool propagates scope and span parent"
         `Quick test_pool_propagation;
       Alcotest.test_case "flight recorder records with tracing off" `Quick
         test_flight_always_on;
       Alcotest.test_case "flight recorder is bounded" `Quick
         test_flight_bounded;
       Alcotest.test_case "openmetrics exposition" `Quick
         test_openmetrics_exposition;
       Alcotest.test_case "flight snapshot JSON" `Quick
         test_flight_dump_json ]) ]
