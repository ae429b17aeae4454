(* Structured tracing: span recording and nesting, the Chrome
   trace-event export (RFC 8259 parseability, well-nested spans per
   track, the two-process model), the logical-time schedule timeline of
   the ProducerConsumer case study as a golden snapshot, deadline-miss
   reporting, and multi-domain emission through Domain_pool. *)

module T = Putil.Tracing
module J = Putil.Metrics.Json
module P = Polychrony.Pipeline
module S = Sched.Static_sched
module Task = Sched.Task

(* Run [f] with a fresh, enabled trace; always disable afterwards so a
   failing test cannot leak tracing into the rest of the suite. *)
let with_fresh_trace f =
  T.reset ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

(* ---------------- recording ---------------------------------------- *)

let test_span_nesting () =
  with_fresh_trace @@ fun () ->
  T.with_span "outer" ~args:[ ("k", T.Aint 1) ] (fun () ->
      T.with_span "inner" (fun () -> T.instant "tick");
      T.instant "tock");
  T.set_enabled false;
  match T.events () with
  | [ (_dom, evs) ] ->
    let shape =
      List.map
        (function
          | T.Begin { name; _ } -> "B:" ^ name
          | T.End _ -> "E"
          | T.Inst { name; _ } -> "I:" ^ name
          | T.Diag _ -> "D"
          | T.Lane_span _ -> "LS"
          | T.Lane_inst _ -> "LI")
        evs
    in
    Alcotest.(check (list string)) "emission order"
      [ "B:outer"; "B:inner"; "I:tick"; "E"; "I:tock"; "E" ]
      shape;
    (match evs with
     | T.Begin { args; cat; _ } :: _ ->
       Alcotest.(check bool) "args kept" true (args = [ ("k", T.Aint 1) ]);
       Alcotest.(check string) "default category" "toolchain" cat
     | _ -> Alcotest.fail "first event is not Begin")
  | l -> Alcotest.failf "expected one domain buffer, got %d" (List.length l)

let test_span_closes_on_raise () =
  with_fresh_trace @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  T.set_enabled false;
  match T.events () with
  | [ (_, [ T.Begin { name = "boom"; _ }; T.End _ ]) ] -> ()
  | _ -> Alcotest.fail "span not closed by the raising body"

let test_disabled_records_nothing () =
  T.reset ();
  T.set_enabled false;
  let ran = ref false in
  T.with_span "off" (fun () -> ran := true);
  T.instant "off";
  T.lane_span ~lane:"l" ~ts_us:0 ~dur_us:1 "off";
  T.lane_instant ~lane:"l" ~ts_us:0 "off";
  Alcotest.(check bool) "body ran" true !ran;
  Alcotest.(check int) "no events" 0 (List.length (T.events ()))

(* The flight ring is a bounded view of the same event log: with
   tracing on, its span events are the trace's Begin/End sequence, and
   a diagnostic lands in the ring but never in the trace or its export. *)
let test_flight_ring_mirrors_trace () =
  with_fresh_trace @@ fun () ->
  T.flight_reset ();
  T.with_span "outer" (fun () ->
      T.with_span "inner" ~args:[ ("k", T.Aint 2) ] (fun () ->
          T.instant "tick");
      ignore (Putil.Diag.make Putil.Diag.Warning ~code:"FM001" "mirror"));
  T.set_enabled false;
  let me = (Domain.self () :> int) in
  let spans =
    List.filter_map (function
      | T.Begin { name; _ } -> Some ("B:" ^ name)
      | T.End { name; _ } -> Some ("E:" ^ name)
      | _ -> None)
  in
  let is_diag = function T.Diag { code = "FM001"; _ } -> true | _ -> false in
  let trace =
    match List.assoc_opt me (T.events ()) with
    | Some evs -> evs
    | None -> Alcotest.fail "no trace buffer for the calling domain"
  in
  let ring =
    match List.find_opt (fun (d, _, _) -> d = me) (T.flight_events ()) with
    | Some (_, _, evs) -> evs
    | None -> Alcotest.fail "no flight ring for the calling domain"
  in
  Alcotest.(check (list string)) "trace spans"
    [ "B:outer"; "B:inner"; "E:inner"; "E:outer" ]
    (spans trace);
  Alcotest.(check (list string)) "ring spans equal the trace's"
    (spans trace) (spans ring);
  Alcotest.(check bool) "diag in the ring" true (List.exists is_diag ring);
  Alcotest.(check bool) "diag not in the trace" false
    (List.exists is_diag (List.concat_map snd (T.events ())));
  let chrome = T.to_chrome () in
  Alcotest.(check bool) "diag not in the chrome export" false
    (let nn = String.length "FM001" in
     let rec go i =
       i + nn <= String.length chrome
       && (String.sub chrome i nn = "FM001" || go (i + 1))
     in
     go 0)

(* ---------------- chrome export ------------------------------------ *)

let x_events_by_track json =
  let evs =
    match J.member "traceEvents" json with
    | Some (J.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let tracks = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match
        ( J.member "ph" ev, J.member "pid" ev, J.member "tid" ev,
          J.to_float (J.member "ts" ev), J.to_float (J.member "dur" ev) )
      with
      | Some (J.String "X"), Some (J.Int pid), Some (J.Int tid), Some ts,
        Some dur ->
        let k = (pid, tid) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt tracks k) in
        Hashtbl.replace tracks k ((ts, ts +. dur) :: prev)
      | _ -> ())
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tracks []

(* Any two spans of one (pid, tid) track either nest or are disjoint
   (small epsilon: host timestamps are ns rounded to fractional µs). *)
let check_well_nested tracks =
  let eps = 1e-6 in
  List.iter
    (fun ((pid, tid), spans) ->
      List.iteri
        (fun i (b1, e1) ->
          List.iteri
            (fun j (b2, e2) ->
              if i < j then
                let nested =
                  (b1 >= b2 -. eps && e1 <= e2 +. eps)
                  || (b2 >= b1 -. eps && e2 <= e1 +. eps)
                in
                let disjoint = e1 <= b2 +. eps || e2 <= b1 +. eps in
                if not (nested || disjoint) then
                  Alcotest.failf
                    "overlap on pid %d tid %d: [%f,%f] vs [%f,%f]" pid tid
                    b1 e1 b2 e2)
            spans)
        spans)
    tracks

let case_study_analyzed () =
  match
    P.analyze ~registry:Polychrony.Case_study.registry_nominal
      Polychrony.Case_study.aadl_source
  with
  | Ok a -> a
  | Error _ -> Alcotest.fail "case study does not analyze"

(* a cold calculus reports its size inside its span, so a trace
   explains a slow one *)
let test_calculus_result_instant () =
  let evs =
    with_fresh_trace @@ fun () ->
    Clocks.Calculus.reset_cache ();
    ignore (case_study_analyzed ());
    T.set_enabled false;
    List.concat_map snd (T.events ())
  in
  (* the instant at the calculus span's own depth, before its End *)
  let rec in_span d = function
    | T.Inst { name = "clocks.calculus.result"; args; _ } :: _ when d = 0 ->
      Some args
    | T.Begin _ :: rest -> in_span (d + 1) rest
    | T.End _ :: rest -> if d = 0 then None else in_span (d - 1) rest
    | _ :: rest -> in_span d rest
    | [] -> None
  in
  let rec find = function
    | T.Begin { name = "clocks.calculus"; _ } :: rest -> (
      match in_span 0 rest with Some args -> Some args | None -> find rest)
    | _ :: rest -> find rest
    | [] -> None
  in
  match find evs with
  | None -> Alcotest.fail "no clocks.calculus.result instant in a calculus"
  | Some args ->
    List.iter
      (fun k ->
        match List.assoc_opt k args with
        | Some (T.Aint n) ->
          Alcotest.(check bool) (k ^ " positive") true (n > 0)
        | _ -> Alcotest.failf "result instant lacks %s" k)
      [ "vars"; "phi_nodes" ]

let test_chrome_case_study () =
  let chrome =
    with_fresh_trace @@ fun () ->
    let a = case_study_analyzed () in
    (match P.simulate a with
     | Ok _ -> ()
     | Error _ -> Alcotest.fail "case study does not simulate");
    T.set_enabled false;
    T.to_chrome ()
  in
  match J.of_string chrome with
  | Error m -> Alcotest.failf "chrome export is not valid JSON: %s" m
  | Ok json ->
    let tracks = x_events_by_track json in
    Alcotest.(check bool) "has host track (pid 1)" true
      (List.exists (fun ((pid, _), _) -> pid = 1) tracks);
    Alcotest.(check bool) "has schedule track (pid 2)" true
      (List.exists (fun ((pid, _), _) -> pid = 2) tracks);
    check_well_nested tracks;
    (* one lane per AADL thread, named by metadata events *)
    let evs =
      match J.member "traceEvents" json with
      | Some (J.Arr evs) -> evs
      | _ -> []
    in
    let lanes =
      List.filter_map
        (fun ev ->
          match (J.member "ph" ev, J.member "name" ev, J.member "pid" ev) with
          | Some (J.String "M"), Some (J.String "thread_name"),
            Some (J.Int 2) -> (
            match Option.bind (J.member "args" ev) (J.member "name") with
            | Some (J.String lane) -> Some lane
            | _ -> None)
          | _ -> None)
        evs
    in
    List.iter
      (fun th ->
        Alcotest.(check bool) ("lane " ^ th) true (List.mem th lanes))
      [ "thProducer"; "thConsumer"; "thProdTimer"; "thConsTimer" ];
    (* each lane carries the full dispatch→deadline event vocabulary *)
    let sched_names =
      List.filter_map
        (fun ev ->
          match (J.member "pid" ev, J.member "name" ev, J.member "ph" ev) with
          | Some (J.Int 2), Some (J.String n), Some (J.String ("X" | "i")) ->
            Some n
          | _ -> None)
        evs
    in
    List.iter
      (fun n ->
        Alcotest.(check bool) ("schedule has " ^ n) true
          (List.mem n sched_names))
      [ "dispatch"; "input_freeze"; "compute"; "output_send"; "deadline" ]

(* ---------------- golden snapshot ---------------------------------- *)

(* Canonical wall-clock-free listing of the recorded events: span
   structure and logical-time lanes, with memoized stages (their spans
   only appear on cache misses, which depend on what ran before in the
   test binary) and cache-sized instants dropped. *)
let skip_spans = [ "clocks.calculus"; "compile.plan"; "trans.thread" ]

let canonical_args args =
  match args with
  | [] -> ""
  | args ->
    " {"
    ^ String.concat ", "
        (List.map
           (fun (k, v) ->
             k ^ "="
             ^ (match v with
                | T.Abool b -> string_of_bool b
                | T.Aint n -> string_of_int n
                | T.Afloat f -> Printf.sprintf "%g" f
                | T.Astr s -> s))
           args)
    ^ "}"

let canonical () =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun di (_dom, evs) ->
      Buffer.add_string buf (Printf.sprintf "domain %d\n" di);
      (* printed-depth stack: skipped spans keep their children at the
         parent's indentation *)
      let stack = ref [] in
      let depth () = List.length (List.filter Fun.id !stack) in
      List.iter
        (fun ev ->
          match ev with
          | T.Begin { name; args; _ } ->
            let printed = not (List.mem name skip_spans) in
            if printed then
              Buffer.add_string buf
                (Printf.sprintf "%sspan %s%s\n"
                   (String.make (2 * depth ()) ' ')
                   name (canonical_args args));
            stack := printed :: !stack
          | T.End _ -> (
            match !stack with [] -> () | _ :: tl -> stack := tl)
          | T.Inst { cat = "clocks"; _ } -> ()
          | T.Inst { name; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "%sinst %s%s\n"
                 (String.make (2 * depth ()) ' ')
                 name (canonical_args args))
          | T.Lane_span { lane; name; ts_us; dur_us; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "lane %s %d+%d %s%s\n" lane ts_us dur_us name
                 (canonical_args args))
          | T.Lane_inst { lane; name; ts_us; args; _ } ->
            Buffer.add_string buf
              (Printf.sprintf "lane %s %d %s%s\n" lane ts_us name
                 (canonical_args args))
          | T.Diag _ -> ())
        evs)
    (T.events ());
  Buffer.contents buf

(* canonical listing of one traced case-study simulation on [compiled] *)
let traced_case_study ?compiled () =
  with_fresh_trace @@ fun () ->
  let a = case_study_analyzed () in
  (match P.simulate ?compiled a with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "case study does not simulate");
  T.set_enabled false;
  canonical ()

let golden () = Test_data.read "corpus/golden/trace_producer_consumer.txt"

(* the golden records the interpreter's span structure *)
let test_golden_case_study () =
  Alcotest.(check string) "canonical trace" (golden ())
    (traced_case_study ~compiled:false ())

(* the default engine (compiled) spans differently but draws the
   golden's schedule timeline, lane for lane *)
let test_golden_lanes_default () =
  let lanes s =
    List.filter
      (String.starts_with ~prefix:"lane ")
      (String.split_on_char '\n' s)
  in
  let want = lanes (golden ()) in
  Alcotest.(check bool) "golden has lanes" true (want <> []);
  Alcotest.(check (list string)) "lane lines" want
    (lanes (traced_case_study ()))

(* ---------------- qcheck: random span trees ------------------------ *)

let gen_name =
  QCheck2.Gen.(
    oneof
      [ string_size ~gen:printable (int_range 1 12);
        (* exercise the JSON escaper: quotes, backslashes, control
           characters, non-ASCII bytes *)
        oneofl [ "a\"b"; "back\\slash"; "tab\there"; "nl\nthere";
                 "caf\xc3\xa9"; "\x01ctl" ] ])

let gen_arg =
  QCheck2.Gen.(
    oneof
      [ map (fun b -> T.Abool b) bool;
        map (fun n -> T.Aint n) int;
        map (fun f -> T.Afloat f) float;
        map (fun s -> T.Astr s) gen_name ])

type span_tree = Node of string * (string * T.arg) list * span_tree list

let gen_tree =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let children =
          if n <= 0 then return []
          else list_size (int_range 0 3) (self (n / 4))
        in
        map3
          (fun name args cs -> Node (name, args, cs))
          gen_name
          (list_size (int_range 0 2) (pair gen_name gen_arg))
          children))

let rec span_count (Node (_, _, cs)) =
  1 + List.fold_left (fun acc c -> acc + span_count c) 0 cs

let rec emit_tree (Node (name, args, cs)) =
  T.with_span name ~args (fun () -> List.iter emit_tree cs)

let prop_chrome_parses =
  QCheck2.Test.make ~name:"chrome export of random span trees" ~count:60
    QCheck2.Gen.(list_size (int_range 1 4) gen_tree)
    (fun trees ->
      let chrome =
        with_fresh_trace @@ fun () ->
        List.iter emit_tree trees;
        T.set_enabled false;
        T.to_chrome ()
      in
      match J.of_string chrome with
      | Error m -> QCheck2.Test.fail_reportf "not RFC 8259: %s" m
      | Ok json ->
        let tracks = x_events_by_track json in
        check_well_nested tracks;
        let total =
          List.fold_left
            (fun acc (_, spans) -> acc + List.length spans)
            0 tracks
        in
        total = List.fold_left (fun acc t -> acc + span_count t) 0 trees)

(* ---------------- deadline misses ---------------------------------- *)

(* A hand-built over-budget schedule: the job starts late and overruns
   its absolute deadline. *)
let missed_schedule () =
  let t =
    Task.make ~name:"sys.prc.thSlow" ~period_us:10_000 ~wcet_us:4_000 ()
  in
  let ok_job =
    { S.j_task = t; j_index = 0; dispatch_us = 0; start_us = 0;
      complete_us = 4_000; deadline_abs_us = 10_000 }
  in
  let missed_job =
    { S.j_task = t; j_index = 1; dispatch_us = 10_000; start_us = 17_000;
      complete_us = 21_000; deadline_abs_us = 20_000 }
  in
  ( t,
    { S.s_policy = S.Edf; hyperperiod_us = 20_000; base_us = 1_000;
      jobs = [ ok_job; missed_job ] } )

let test_deadline_miss_report () =
  let _, sched = missed_schedule () in
  match Analysis.Profiling.schedule_timing sched with
  | [ tt ] ->
    Alcotest.(check string) "task" "sys.prc.thSlow"
      tt.Analysis.Profiling.tt_name;
    Alcotest.(check int) "jobs" 2 tt.Analysis.Profiling.tt_jobs;
    Alcotest.(check int) "misses" 1 tt.Analysis.Profiling.tt_misses;
    Alcotest.(check (list int)) "missed job indices" [ 1 ]
      tt.Analysis.Profiling.tt_missed_jobs;
    Alcotest.(check int) "worst response" 11_000
      tt.Analysis.Profiling.tt_worst_response_us;
    Alcotest.(check int) "best response" 4_000
      tt.Analysis.Profiling.tt_best_response_us;
    Alcotest.(check int) "jitter" 7_000 tt.Analysis.Profiling.tt_jitter_us
  | l -> Alcotest.failf "expected one thread, got %d" (List.length l)

(* The timeline's static-schedule fallback (no ctl signals in the
   trace) marks the overrun with a deadline_miss lane instant. *)
let test_deadline_miss_timeline () =
  let t, sched = missed_schedule () in
  let empty = Polysim.Trace.create [] in
  with_fresh_trace @@ fun () ->
  Polychrony.Timeline.emit ~root_path:"sys" ~base_us:1_000
    ~horizon_ticks:20 ~schedules:[ ("cpu", sched) ]
    ~tasks:[ ("cpu", [ t ]) ]
    empty;
  T.set_enabled false;
  let lane_events =
    List.concat_map
      (fun (_, evs) ->
        List.filter_map
          (function
            | T.Lane_inst { lane; name; ts_us; _ } -> Some (lane, name, ts_us)
            | _ -> None)
          evs)
      (T.events ())
  in
  Alcotest.(check bool) "lane uses the short thread name" true
    (List.for_all (fun (l, _, _) -> String.equal l "thSlow") lane_events);
  Alcotest.(check bool) "deadline_miss marked at completion" true
    (List.mem ("thSlow", "deadline_miss", 21_000) lane_events);
  Alcotest.(check int) "exactly one miss" 1
    (List.length
       (List.filter (fun (_, n, _) -> n = "deadline_miss") lane_events))

(* ---------------- multi-domain emission ---------------------------- *)

let test_domain_pool_emission () =
  with_fresh_trace @@ fun () ->
  let pool = Putil.Domain_pool.create 3 in
  Fun.protect ~finally:(fun () -> Putil.Domain_pool.shutdown pool)
    (fun () ->
      Putil.Domain_pool.run_tasks pool
        (List.init 24 (fun i () ->
             T.with_span "task" ~args:[ ("i", T.Aint i) ] (fun () ->
                 T.instant "step"))));
  T.set_enabled false;
  let per_domain = T.events () in
  let begins, ends, insts =
    List.fold_left
      (fun (b, e, i) (_, evs) ->
        List.fold_left
          (fun (b, e, i) ev ->
            match ev with
            | T.Begin _ -> (b + 1, e, i)
            | T.End _ -> (b, e + 1, i)
            | T.Inst _ -> (b, e, i + 1)
            | _ -> (b, e, i))
          (b, e, i) evs)
      (0, 0, 0) per_domain
  in
  Alcotest.(check int) "24 spans recorded" 24 begins;
  Alcotest.(check int) "all spans closed" 24 ends;
  Alcotest.(check int) "24 instants" 24 insts;
  (* each domain's buffer is independently well-nested *)
  List.iter
    (fun (_, evs) ->
      let d =
        List.fold_left
          (fun d ev ->
            match ev with
            | T.Begin _ ->
              Alcotest.(check bool) "depth never negative" true (d >= 0);
              d + 1
            | T.End _ -> d - 1
            | _ -> d)
          0 evs
      in
      Alcotest.(check int) "balanced per domain" 0 d)
    per_domain

let suite =
  [ ("tracing",
     [ Alcotest.test_case "span nesting and args" `Quick test_span_nesting;
       Alcotest.test_case "span closes on raise" `Quick
         test_span_closes_on_raise;
       Alcotest.test_case "disabled records nothing" `Quick
         test_disabled_records_nothing;
       Alcotest.test_case "calculus span reports its size" `Quick
         test_calculus_result_instant;
       Alcotest.test_case "flight ring mirrors the trace" `Quick
         test_flight_ring_mirrors_trace;
       Alcotest.test_case "chrome export of the case study" `Quick
         test_chrome_case_study;
       Alcotest.test_case "golden canonical trace" `Quick
         test_golden_case_study;
       Alcotest.test_case "default engine draws the golden lanes" `Quick
         test_golden_lanes_default;
       QCheck_alcotest.to_alcotest prop_chrome_parses;
       Alcotest.test_case "deadline-miss report" `Quick
         test_deadline_miss_report;
       Alcotest.test_case "deadline-miss timeline" `Quick
         test_deadline_miss_timeline;
       Alcotest.test_case "domain-pool emission" `Quick
         test_domain_pool_emission ]) ]
