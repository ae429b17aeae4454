(* VCD writer/reader: the written dump, parsed back, reproduces the
   trace value-for-value (ref [18] demonstration artifact). *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Trace = Polysim.Trace
module Vcd = Polysim.Vcd
module R = Polysim.Vcd_reader
module S = Sched.Static_sched

let small_trace () =
  let tr =
    Trace.create
      [ Ast.var "n" Types.Tint; Ast.var "b" Types.Tbool;
        Ast.var "e" Types.Tevent ]
  in
  Trace.push tr [ ("n", Types.Vint 1); ("b", Types.Vbool true) ];
  Trace.push tr [ ("e", Types.Vevent) ];
  Trace.push tr [ ("n", Types.Vint 2); ("b", Types.Vbool false) ];
  Trace.push tr [];
  tr

let test_roundtrip_small () =
  let tr = small_trace () in
  let dump = Vcd.to_string tr in
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    Alcotest.(check int) "three vars" 3 (List.length vcd.R.vars);
    Alcotest.(check (option string)) "n at 0" (Some "1")
      (Option.map Types.value_to_string (R.value_at vcd ~name:"n" ~time:0));
    Alcotest.(check bool) "n absent at 1" true
      (R.value_at vcd ~name:"n" ~time:1 = None);
    Alcotest.(check (option string)) "n at 2" (Some "2")
      (Option.map Types.value_to_string (R.value_at vcd ~name:"n" ~time:2));
    Alcotest.(check bool) "b false at 2" true
      (R.value_at vcd ~name:"b" ~time:2 = Some (Types.Vbool false));
    Alcotest.(check bool) "e pulses at 1" true
      (R.value_at vcd ~name:"e" ~time:1 = Some (Types.Vbool true));
    Alcotest.(check bool) "all absent at 3" true
      (R.value_at vcd ~name:"n" ~time:3 = None
       && R.value_at vcd ~name:"b" ~time:3 = None
       && R.value_at vcd ~name:"e" ~time:3 = None)

let test_roundtrip_case_study () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let tr =
    match Polychrony.Pipeline.simulate ~hyperperiods:1 a with
    | Ok tr -> tr
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let dump = Polychrony.Pipeline.vcd_of_trace a tr in
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    (* the pipeline dump carries real model time: one instant lasts the
       global base tick, and the timescale is a legal 1 us *)
    Alcotest.(check string) "real timescale" "1 us" vcd.R.timescale;
    let base_us = Polychrony.Pipeline.global_base_us a in
    (* integer wires agree instant by instant *)
    List.iter
      (fun name ->
        List.iter
          (fun i ->
            let expected =
              match Trace.get tr i name with
              | Some (Types.Vint n) -> Some (Types.Vint n)
              | Some _ | None -> None
            in
            let got = R.value_at vcd ~name ~time:(i * base_us) in
            if expected <> None || got <> None then
              Alcotest.(check bool)
                (Printf.sprintf "%s at %d" name i)
                true (expected = got))
          (List.init (Trace.length tr) Fun.id))
      [ "display_pData"; "prProdCons_Queue_size";
        "prProdCons_thProducer_reqQueue_w" ]

(* Write an engine-simulated trace as VCD, read it back, and require
   presence and value to agree at every instant for every observable
   signal (events and booleans travel as 1-bit wires). *)
let test_roundtrip_simulated () =
  let p =
    B.proc ~name:"rt"
      ~inputs:[ Ast.var "x" Types.Tint ]
      ~outputs:
        [ Ast.var "acc" Types.Tint; Ast.var "pos" Types.Tbool;
          Ast.var "tick" Types.Tevent ]
      ~locals:[ Ast.var "mem" Types.Tint ]
      B.[ "mem" := delay (v "acc");
          "acc" := v "mem" + v "x";
          "pos" := v "acc" > i 2;
          "tick" := clk (v "x") ]
  in
  let kp =
    match N.process p with
    | Ok kp -> kp
    | Error m -> Alcotest.fail (Putil.Diag.to_string m)
  in
  let stimuli =
    [ [ ("x", Types.Vint 1) ]; []; [ ("x", Types.Vint 2) ];
      [ ("x", Types.Vint 3) ]; []; [ ("x", Types.Vint 0) ] ]
  in
  let tr =
    match Polysim.Engine.run kp ~stimuli with
    | Ok tr -> tr
    | Error m -> Alcotest.fail m
  in
  let dump = Vcd.to_string tr in
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    let types = Trace.signals tr in
    List.iter
      (fun name ->
        let typ = List.assoc name types in
        for t = 0 to Trace.length tr - 1 do
          let expected =
            match Trace.get tr t name, typ with
            | None, _ -> None
            | Some v, (Types.Tevent | Types.Tbool) ->
              (* 1-bit wire representation *)
              let b =
                match v with
                | Types.Vevent -> true
                | Types.Vbool b -> b
                | Types.Vint n -> n <> 0
                | Types.Vreal r -> r <> 0.0
                | Types.Vstring s -> s <> ""
              in
              Some (Types.Vbool b)
            | Some v, _ -> Some v
          in
          let got = R.value_at vcd ~name ~time:t in
          Alcotest.(check bool)
            (Printf.sprintf "%s at instant %d" name t)
            true (expected = got)
        done)
      (Trace.observable tr)

(* strings with whitespace and '%', the literal value "x" (which must
   stay distinct from the absent marker), and reals where absence must
   stay distinct from a present 0.0 *)
let test_roundtrip_strings_and_reals () =
  let tr =
    Trace.create
      [ Ast.var "msg" Types.Tstring; Ast.var "temp" Types.Treal ]
  in
  Trace.push tr
    [ ("msg", Types.Vstring "hello world"); ("temp", Types.Vreal 0.0) ];
  Trace.push tr [ ("msg", Types.Vstring "x") ];
  Trace.push tr
    [ ("msg", Types.Vstring "50% done\nnext"); ("temp", Types.Vreal (0.1 +. 0.2)) ];
  Trace.push tr [ ("msg", Types.Vstring "") ];
  let dump = Vcd.to_string tr in
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    let str_at t = R.value_at vcd ~name:"msg" ~time:t in
    Alcotest.(check bool) "string with space" true
      (str_at 0 = Some (Types.Vstring "hello world"));
    Alcotest.(check bool) "literal x is a value, not absence" true
      (str_at 1 = Some (Types.Vstring "x"));
    Alcotest.(check bool) "percent and newline" true
      (str_at 2 = Some (Types.Vstring "50% done\nnext"));
    Alcotest.(check bool) "empty string" true
      (str_at 3 = Some (Types.Vstring ""));
    let real_at t = R.value_at vcd ~name:"temp" ~time:t in
    Alcotest.(check bool) "present 0.0 is not absence" true
      (real_at 0 = Some (Types.Vreal 0.0));
    Alcotest.(check bool) "real absent at 1" true (real_at 1 = None);
    Alcotest.(check bool) "real full precision" true
      (real_at 2 = Some (Types.Vreal (0.1 +. 0.2)));
    Alcotest.(check bool) "real absent at 3" true (real_at 3 = None)

(* "a.b" and "a b" both sanitize to "a_b"; the writer must keep their
   $var declarations distinct so both remain addressable *)
let test_colliding_names () =
  let tr =
    Trace.create [ Ast.var "a.b" Types.Tint; Ast.var "a b" Types.Tint ]
  in
  Trace.push tr [ ("a.b", Types.Vint 1); ("a b", Types.Vint 2) ];
  let dump = Vcd.to_string tr in
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    let declared = List.map snd vcd.R.vars in
    Alcotest.(check (list string)) "uniquified declarations"
      [ "a_b"; "a_b__2" ] declared;
    Alcotest.(check bool) "first keeps the plain name" true
      (R.value_at vcd ~name:"a_b" ~time:0 = Some (Types.Vint 1));
    Alcotest.(check bool) "second gets the suffix" true
      (R.value_at vcd ~name:"a_b__2" ~time:0 = Some (Types.Vint 2))

(* any byte string survives write + read-back unchanged *)
let prop_string_roundtrip =
  QCheck2.Test.make ~name:"vcd string values round-trip" ~count:200
    QCheck2.Gen.(oneof [ string_printable; string ])
    (fun s ->
      let tr = Trace.create [ Ast.var "s" Types.Tstring ] in
      Trace.push tr [ ("s", Types.Vstring s) ];
      Trace.push tr [];
      match R.parse (Vcd.to_string tr) with
      | Error _ -> false
      | Ok vcd ->
        R.value_at vcd ~name:"s" ~time:0 = Some (Types.Vstring s)
        && R.value_at vcd ~name:"s" ~time:1 = None)

let prop_real_roundtrip =
  QCheck2.Test.make ~name:"vcd real values round-trip" ~count:200
    QCheck2.Gen.(float_range (-1e12) 1e12)
    (fun r ->
      let tr = Trace.create [ Ast.var "r" Types.Treal ] in
      Trace.push tr [ ("r", Types.Vreal r) ];
      Trace.push tr [];
      match R.parse (Vcd.to_string tr) with
      | Error _ -> false
      | Ok vcd ->
        R.value_at vcd ~name:"r" ~time:0 = Some (Types.Vreal r)
        && R.value_at vcd ~name:"r" ~time:1 = None)

let test_gantt_renders () =
  let tasks =
    List.map
      (fun (name, period) ->
        Sched.Task.make ~name ~period_us:period ~wcet_us:1000 ())
      Polychrony.Case_study.thread_periods_us
  in
  match S.synthesize tasks with
  | Error f -> Alcotest.fail f.S.f_message
  | Ok s ->
    let g = Format.asprintf "%a" S.pp_gantt s in
    Alcotest.(check bool) "has execution marks" true (String.contains g '#');
    Alcotest.(check bool) "has waiting marks" true (String.contains g 'd');
    (* row per task *)
    List.iter
      (fun (name, _) ->
        let contains =
          let nh = String.length g and nn = String.length name in
          let rec go i =
            i + nn <= nh && (String.sub g i nn = name || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) (name ^ " row") true contains)
      Polychrony.Case_study.thread_periods_us;
    (* executing columns equal the summed wcet ticks *)
    let hashes =
      String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 g
    in
    Alcotest.(check int) "16 executed ticks" 16 hashes

let test_reader_rejects_garbage () =
  match R.parse "#notanumber\n1!" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

(* With a real tick duration the dump declares a legal "1 us" timescale
   and scales every timestamp, and the reader round-trips values at the
   scaled times. *)
let test_instant_us_timescale () =
  let tr = small_trace () in
  let dump = Vcd.to_string ~instant_us:500 tr in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "declares 1 us" true
    (contains dump "$timescale 1 us $end");
  Alcotest.(check bool) "instant 1 at #500" true (contains dump "#500\n");
  Alcotest.(check bool) "instant 2 at #1000" true (contains dump "#1000\n");
  Alcotest.(check bool) "no unscaled #1 stamp" false (contains dump "\n#1\n");
  match R.parse dump with
  | Error m -> Alcotest.fail m
  | Ok vcd ->
    Alcotest.(check string) "reader sees the scaled timescale" "1 us"
      vcd.R.timescale;
    Alcotest.(check (option string)) "n at 0" (Some "1")
      (Option.map Types.value_to_string (R.value_at vcd ~name:"n" ~time:0));
    Alcotest.(check (option string)) "n at 1000" (Some "2")
      (Option.map Types.value_to_string (R.value_at vcd ~name:"n" ~time:1000));
    Alcotest.(check bool) "e pulses at 500" true
      (R.value_at vcd ~name:"e" ~time:500 = Some (Types.Vbool true));
    Alcotest.(check bool) "rejects non-positive scale" true
      (match Vcd.to_string ~instant_us:0 tr with
       | exception Invalid_argument _ -> true
       | _ -> false)

let suite =
  [ ("vcd",
     [ Alcotest.test_case "roundtrip small" `Quick test_roundtrip_small;
       Alcotest.test_case "roundtrip case study" `Quick
         test_roundtrip_case_study;
       Alcotest.test_case "roundtrip simulated" `Quick
         test_roundtrip_simulated;
       Alcotest.test_case "strings and reals" `Quick
         test_roundtrip_strings_and_reals;
       Alcotest.test_case "colliding names" `Quick test_colliding_names;
       Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
       Alcotest.test_case "reader rejects garbage" `Quick
         test_reader_rejects_garbage;
       Alcotest.test_case "instant_us timescale" `Quick
         test_instant_us_timescale ]
     @ List.map QCheck_alcotest.to_alcotest
         [ prop_string_roundtrip; prop_real_roundtrip ]) ]
