(* Putil.Metrics: instruments, snapshots, JSON rendering, and the
   end-to-end smoke check that a pipeline run actually feeds the global
   registry (what `asme2ssme --stats` prints). *)

module M = Putil.Metrics

let test_counters () =
  let r = M.create () in
  let c = M.counter ~registry:r "t.hits" in
  M.incr c;
  M.incr ~by:41 c;
  Alcotest.(check int) "counter accumulates" 42 (M.counter_value r "t.hits");
  Alcotest.(check int) "absent counter reads 0" 0 (M.counter_value r "t.nope");
  let c' = M.counter ~registry:r "t.hits" in
  M.incr c';
  Alcotest.(check int) "get-or-create shares state" 43
    (M.counter_value r "t.hits");
  M.reset r;
  Alcotest.(check int) "reset zeroes" 0 (M.counter_value r "t.hits");
  Alcotest.(check bool) "reset keeps the instrument" true
    (M.find r "t.hits" <> None)

let test_gauges_and_timers () =
  let r = M.create () in
  let g = M.gauge ~registry:r "t.level" in
  M.set g 7;
  M.max_gauge g 3;
  Alcotest.(check int) "max_gauge keeps the max" 7 (M.counter_value r "t.level");
  M.max_gauge g 9;
  Alcotest.(check int) "max_gauge raises" 9 (M.counter_value r "t.level");
  let tm = M.timer ~registry:r "t.work_ns" in
  let x = M.time tm (fun () -> 5) in
  Alcotest.(check int) "time returns the thunk value" 5 x;
  (try M.time tm (fun () -> failwith "boom") with Failure _ -> 0) |> ignore;
  M.add_span_ns tm 1_000;
  (match M.find r "t.work_ns" with
   | Some (M.Timer { spans; total_ns }) ->
     Alcotest.(check int) "spans recorded, raising thunk included" 3 spans;
     Alcotest.(check bool) "total accumulates" true (total_ns >= 1_000)
   | _ -> Alcotest.fail "timer stat missing");
  (* name reuse with a different kind is a programming error *)
  match M.gauge ~registry:r "t.work_ns" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ()

(* minimal RFC 8259 well-formedness checker, enough to validate our own
   serializer's output without an external JSON dependency *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let skip_ws () =
    while (match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false)
    do advance () done
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let rec members () =
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            if peek () = Some ',' then begin advance (); members () end
            else expect '}'
          in
          members ()
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let rec elements () =
            value ();
            skip_ws ();
            if peek () = Some ',' then begin advance (); elements () end
            else expect ']'
          in
          elements ()
        end
      | Some '"' -> string_lit ()
      | Some ('t' | 'f' | 'n') -> keyword ()
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail := true
    end
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail := true
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ();
           go ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             (match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail := true)
           done;
           go ()
         | _ -> fail := true)
      | Some c when Char.code c < 0x20 -> fail := true
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  and keyword () =
    let kw k =
      let l = String.length k in
      if !pos + l <= n && String.sub s !pos l = k then pos := !pos + l
      else fail := true
    in
    match peek () with
    | Some 't' -> kw "true"
    | Some 'f' -> kw "false"
    | _ -> kw "null"
  and number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while (match peek () with Some ('0' .. '9') -> true | _ -> false) do
        seen := true;
        advance ()
      done;
      if not !seen then fail := true
    in
    digits ();
    if peek () = Some '.' then begin advance (); digits () end;
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ())
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let test_json_well_formed () =
  let r = M.create () in
  M.incr (M.counter ~registry:r "a.count");
  M.set (M.gauge ~registry:r "a.level") (-3);
  M.add_span_ns (M.timer ~registry:r "a.span_ns") 500;
  let s = M.Json.to_string (M.to_json r) in
  Alcotest.(check bool) "registry JSON is well-formed" true (json_well_formed s);
  (* tricky leaves: escapes, non-finite floats as null *)
  let tricky =
    M.Json.Obj
      [ ("quote\"back\\slash", M.Json.String "tab\tnl\n\x01");
        ("nan", M.Json.Float Float.nan);
        ("inf", M.Json.Float Float.infinity);
        ("arr", M.Json.Arr [ M.Json.Bool true; M.Json.Null; M.Json.Int (-7) ]) ]
  in
  Alcotest.(check bool) "escapes and non-finite floats" true
    (json_well_formed (M.Json.to_string tricky));
  (* the parser reports malformed input as [Error], never raises *)
  List.iter
    (fun src ->
      match M.Json.of_string src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" src)
    [ "\"\\uZZZZ\""; "\"\\u12\""; "\"\\u1_23\"" ];
  Alcotest.(check bool) "well-formed \\u escape" true
    (M.Json.of_string "\"\\u0041\\u00e9\"" = Ok (M.Json.String "A\xc3\xa9"))

(* A pop of an empty scope stack must not disturb the process-wide
   count of active frames: a scope pushed afterwards still gets its
   writes. *)
let test_stray_ambient_pop () =
  let r = M.create () in
  M.ambient_pop ();
  M.ambient_push r;
  Fun.protect ~finally:M.ambient_pop (fun () ->
      M.incr (M.counter "metrics.stray_pop"));
  Alcotest.(check int) "scope sees the write" 1
    (M.counter_value r "metrics.stray_pop")

(* a full pipeline run must light up every instrumented subsystem in
   the global registry — this is what `asme2ssme simulate --stats` and
   `bench --json` report *)
let test_pipeline_feeds_global () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  (match Polychrony.Pipeline.simulate ~compiled:false ~hyperperiods:1 a with
   | Ok _ -> ()
   | Error m -> Alcotest.fail (Putil.Diag.list_to_string m));
  (match Polychrony.Pipeline.simulate ~compiled:true ~hyperperiods:1 a with
   | Ok _ -> ()
   | Error m -> Alcotest.fail (Putil.Diag.list_to_string m));
  let nonzero name =
    Alcotest.(check bool) (name ^ " > 0") true
      (M.counter_value M.global name > 0)
  in
  List.iter nonzero
    [ "engine.instants"; "engine.fixpoint_iters"; "calculus.analyses";
      "calculus.uf_finds"; "calculus.signals"; "compile.compilations";
      "compile.instants"; "compile.bdd_nodes"; "trans.translations";
      "trans.processes"; "trans.equations"; "sched.syntheses";
      "sched.jobs_placed" ];
  let s = M.Json.to_string (Polychrony.Pipeline.stats_json ()) in
  Alcotest.(check bool) "stats_json is well-formed JSON" true
    (json_well_formed s);
  (* the printed report renders and mentions the subsystem sections *)
  let report = Format.asprintf "%a" Polychrony.Pipeline.pp_stats () in
  List.iter
    (fun section ->
      let contains =
        let nh = String.length report and nn = String.length section in
        let rec go i =
          i + nn <= nh && (String.sub report i nn = section || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("report has " ^ section) true contains)
    [ "[engine]"; "[compile]"; "[calculus]"; "[trans]"; "[sched]" ]

(* ---------------- domain safety ------------------------------------ *)

(* 4 domains hammer one timer and one gauge: the two-cell timer must
   lose no span and keep an exact total, the gauge's CAS loop must keep
   the exact max (each domain writes 1..per_dom) *)
let test_timer_gauge_domain_stress () =
  let r = M.create () in
  let t = M.timer ~registry:r "t.stress_ns" in
  let g = M.gauge ~registry:r "t.stress_max" in
  let domains = 4 and per_dom = 10_000 in
  let work () =
    for i = 1 to per_dom do
      M.add_span_ns t i;
      M.max_gauge g i
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  (match M.find r "t.stress_ns" with
   | Some (M.Timer { spans; total_ns }) ->
     Alcotest.(check int) "no span lost" (domains * per_dom) spans;
     Alcotest.(check int) "exact total"
       (domains * (per_dom * (per_dom + 1) / 2))
       total_ns
   | _ -> Alcotest.fail "timer stat missing");
  Alcotest.(check int) "exact max" per_dom (M.counter_value r "t.stress_max")

(* 4 domains race get-or-create over the same names while incrementing:
   every domain must end up on the same cell (no lost updates, no
   duplicate instruments) *)
let test_creation_race () =
  let r = M.create () in
  let domains = 4 and names = 16 and rounds = 500 in
  let work () =
    for _ = 1 to rounds do
      for i = 0 to names - 1 do
        M.incr (M.counter ~registry:r (Printf.sprintf "t.race%d" i))
      done
    done
  in
  let ds = List.init domains (fun _ -> Domain.spawn work) in
  List.iter Domain.join ds;
  for i = 0 to names - 1 do
    Alcotest.(check int)
      (Printf.sprintf "t.race%d converged" i)
      (domains * rounds)
      (M.counter_value r (Printf.sprintf "t.race%d" i))
  done

(* ---------------- OpenMetrics exposition --------------------------- *)

(* one registry with every instrument kind, pinned as a golden snapshot
   (deterministic: no wall-clock values involved) *)
let test_openmetrics_golden () =
  let r = M.create () in
  M.incr ~by:42 (M.counter ~registry:r "om.hits");
  M.set (M.gauge ~registry:r "om.level") (-3);
  M.add_span_ns (M.timer ~registry:r "om.work_ns") 2_500_000_000;
  let expected =
    String.concat ""
      [ "# HELP om_hits om.hits\n";
        "# TYPE om_hits counter\n";
        "om_hits_total{scope=\"s \\\"x\\\"\"} 42\n";
        "# HELP om_level om.level\n";
        "# TYPE om_level gauge\n";
        "om_level{scope=\"s \\\"x\\\"\"} -3\n";
        "# HELP om_work_ns om.work_ns\n";
        "# TYPE om_work_ns summary\n";
        "om_work_ns_count{scope=\"s \\\"x\\\"\"} 1\n";
        "om_work_ns_sum{scope=\"s \\\"x\\\"\"} 2.5\n";
        "# EOF\n" ]
  in
  Alcotest.(check string) "golden exposition" expected
    (M.to_openmetrics ~labels:[ ("scope", "s \"x\"") ] r)

(* property: whatever the instrument names, the exposition is
   well-formed — sanitized name charset, one # TYPE per family,
   # EOF terminator *)
let om_name_ok name =
  name <> ""
  && (match name.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let exposition_well_formed text =
  let lines = String.split_on_char '\n' text in
  let rec last_nonempty acc = function
    | [] -> acc
    | "" :: rest -> last_nonempty acc rest
    | l :: rest -> last_nonempty l rest
  in
  last_nonempty "" lines = "# EOF"
  && List.for_all
       (fun line ->
         line = "" || line = "# EOF"
         ||
         let body =
           if String.length line > 2 && String.sub line 0 2 = "# " then
             (* "# HELP <name> ..." / "# TYPE <name> <type>" *)
             match String.split_on_char ' ' line with
             | "#" :: ("HELP" | "TYPE") :: name :: _ -> name
             | _ -> ""
           else
             (* "<name>[{labels}] <value>" *)
             let stop =
               match String.index_opt line '{' with
               | Some i -> i
               | None -> (
                 match String.index_opt line ' ' with
                 | Some i -> i
                 | None -> String.length line)
             in
             String.sub line 0 stop
         in
         om_name_ok body)
       lines

let qcheck_openmetrics =
  let gen_name =
    QCheck2.Gen.(string_size ~gen:printable (int_range 1 24))
  in
  QCheck2.Test.make ~count:100 ~name:"openmetrics well-formed for any names"
    QCheck2.Gen.(list_size (int_range 1 8) gen_name)
    (fun names ->
      (* one kind per distinct dotted name: a duplicate would be a
         legitimate kind clash ([Invalid_argument]), not our subject *)
      let names = List.sort_uniq compare names in
      let r = M.create () in
      List.iteri
        (fun i name ->
          match i mod 3 with
          | 0 -> M.incr ~by:i (M.counter ~registry:r name)
          | 1 -> M.set (M.gauge ~registry:r name) i
          | _ -> M.add_span_ns (M.timer ~registry:r name) (i * 1000))
        names;
      let text = M.to_openmetrics ~labels:[ ("q", "v\"\\\n") ] r in
      (* each family declared exactly once *)
      let type_lines =
        List.filter
          (fun l -> String.length l > 7 && String.sub l 0 7 = "# TYPE ")
          (String.split_on_char '\n' text)
      in
      List.length (List.sort_uniq compare type_lines)
      = List.length type_lines
      && exposition_well_formed text)

let suite =
  [ ("metrics",
     [ Alcotest.test_case "counters" `Quick test_counters;
       Alcotest.test_case "gauges and timers" `Quick test_gauges_and_timers;
       Alcotest.test_case "json well-formed" `Quick test_json_well_formed;
       Alcotest.test_case "stray ambient pop" `Quick test_stray_ambient_pop;
       Alcotest.test_case "timer and gauge domain stress" `Quick
         test_timer_gauge_domain_stress;
       Alcotest.test_case "instrument creation race" `Quick
         test_creation_race;
       Alcotest.test_case "openmetrics golden" `Quick test_openmetrics_golden;
       QCheck_alcotest.to_alcotest qcheck_openmetrics;
       Alcotest.test_case "pipeline feeds global registry" `Quick
         test_pipeline_feeds_global ]) ]
