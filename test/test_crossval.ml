(* Cross-validation: what the clock calculus PROVES statically must
   hold in every simulated trace — exclusivity, clock inclusion,
   synchrony and emptiness. Run on random clock-safe programs and on
   the translated case study. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module C = Clocks.Calculus
module Trace = Polysim.Trace

let signals_of tr = List.map fst (Trace.signals tr)

(* check every proved static relation against the trace *)
let validate_against_trace calc tr =
  let names = signals_of tr in
  let present i x = Trace.get tr i x <> None in
  let horizon = Trace.length tr in
  let violations = ref [] in
  let say fmt = Format.kasprintf (fun m -> violations := m :: !violations) fmt in
  let arr = Array.of_list names in
  let n = Array.length arr in
  for a = 0 to n - 1 do
    let x = arr.(a) in
    if C.is_null calc x && Trace.present_count tr x > 0 then
      say "%s proved null but present in the trace" x;
    for b = 0 to n - 1 do
      if a <> b then begin
        let y = arr.(b) in
        if C.same_class calc x y then
          for i = 0 to horizon - 1 do
            if present i x <> present i y then
              say "%s and %s proved synchronous, differ at %d" x y i
          done
        else begin
          if C.exclusive calc x y then
            for i = 0 to horizon - 1 do
              if present i x && present i y then
                say "%s and %s proved exclusive, both present at %d" x y i
            done;
          if C.subclock calc x y then
            for i = 0 to horizon - 1 do
              if present i x && not (present i y) then
                say "%s proved subclock of %s, violated at %d" x y i
            done
        end
      end
    done
  done;
  List.rev !violations

let test_case_study_crossval () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  match Polychrony.Pipeline.simulate ~hyperperiods:2 a with
  | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  | Ok tr ->
    (* restrict to observable signals to keep the n² check tractable *)
    let calc = Lazy.force a.Polychrony.Pipeline.calc in
    let obs = Trace.observable tr in
    let present i x = Trace.get tr i x <> None in
    let checked = ref 0 in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            if x < y then begin
              if C.exclusive calc x y then begin
                incr checked;
                for i = 0 to Trace.length tr - 1 do
                  if present i x && present i y then
                    Alcotest.fail
                      (Printf.sprintf "%s # %s violated at %d" x y i)
                done
              end;
              if C.same_class calc x y then begin
                incr checked;
                for i = 0 to Trace.length tr - 1 do
                  if present i x <> present i y then
                    Alcotest.fail
                      (Printf.sprintf "%s ^= %s violated at %d" x y i)
                done
              end
            end)
          obs)
      obs;
    Alcotest.(check bool) "some relations were actually proved" true
      (!checked > 10)

(* Interpreter/compiler agreement: both evaluators are lowered from
   the same program IR, so their traces must agree signal-by-signal at
   every instant on the translated case studies. *)
let assert_traces_agree what tr_i tr_c =
  Alcotest.(check int)
    (what ^ ": trace lengths")
    (Trace.length tr_i) (Trace.length tr_c);
  let names = signals_of tr_i in
  Alcotest.(check int)
    (what ^ ": declared signals")
    (List.length names)
    (List.length (signals_of tr_c));
  List.iter
    (fun x ->
      for i = 0 to Trace.length tr_i - 1 do
        let vi = Trace.get tr_i i x and vc = Trace.get tr_c i x in
        if vi <> vc then
          Alcotest.fail
            (Printf.sprintf "%s: %s differs at instant %d (%s vs %s)" what x
               i
               (match vi with
                | None -> "absent"
                | Some v -> Types.value_to_string v)
               (match vc with
                | None -> "absent"
                | Some v -> Types.value_to_string v))
      done)
    names

let simulate_both ?registry what source =
  let a =
    match Polychrony.Pipeline.analyze ?registry source with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let run compiled =
    match Polychrony.Pipeline.simulate ~compiled ~hyperperiods:2 a with
    | Ok tr -> tr
    | Error m -> Alcotest.fail (what ^ ": " ^ (Putil.Diag.list_to_string m))
  in
  assert_traces_agree what (run false) (run true)

let test_agreement_producer_consumer () =
  simulate_both ~registry:Polychrony.Case_study.registry_nominal
    "ProducerConsumer" Polychrony.Case_study.aadl_source

let test_agreement_flight_controller () =
  simulate_both "FlightControl" Test_latency.flight_aadl

(* reuse a small clock-safe generator (subset of the compile one) *)
let gen_program =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let rec build k env acc =
    if k = 0 then return (List.rev acc, env)
    else
      let* pick = int_range 0 5 in
      let name = Printf.sprintf "s%d" (List.length acc) in
      let* src = oneofl env in
      let* e, ty =
        match pick with
        | 0 | 1 ->
          let* cnd = oneofl env in
          return (B.(when_ (v src) (v cnd < i 2)), `S)
        | 2 ->
          let* other = oneofl env in
          return (B.(default (v src) (v other)), `S)
        | 3 -> return (B.(delay (v src)), `S)
        | _ -> return (B.(v src + i 1), `S)
      in
      ignore ty;
      build (k - 1) (name :: env) ((name, e) :: acc)
  in
  let* locals, _ = build n [ "x" ] [] in
  let decls = List.map (fun (nm, _) -> Ast.var nm Types.Tint) locals in
  let body = List.map (fun (nm, e) -> B.(nm := e)) locals in
  let last = fst (List.nth locals (List.length locals - 1)) in
  return
    (B.proc ~name:"cv"
       ~inputs:[ Ast.var "x" Types.Tint ]
       ~outputs:[ Ast.var "out" Types.Tint ]
       ~locals:decls
       (body @ [ B.("out" := v last) ]))

let prop_calculus_sound_on_traces =
  QCheck2.Test.make ~name:"static clock proofs hold in traces" ~count:200
    QCheck2.Gen.(pair gen_program (list_size (return 20) (int_range (-3) 3)))
    (fun (p, xs) ->
      match N.process p with
      | Error _ -> true
      | Ok kp -> (
        let calc = C.analyze kp in
        let stimuli = List.map (fun n -> [ ("x", Types.Vint n) ]) xs in
        match Polysim.Engine.run kp ~stimuli with
        | Error _ -> true  (* e.g. division by zero: not our concern *)
        | Ok tr -> (
          match validate_against_trace calc tr with
          | [] -> true
          | v :: _ ->
            Format.eprintf "@.CROSSVAL: %s on:@.%a@." v
              Signal_lang.Pp.pp_process p;
            false)))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_calculus_sound_on_traces ]

let suite =
  [ ("crossval",
     [ Alcotest.test_case "case study proofs hold" `Quick
         test_case_study_crossval;
       Alcotest.test_case "engine/compile agree on ProducerConsumer" `Quick
         test_agreement_producer_consumer;
       Alcotest.test_case "engine/compile agree on FlightControl" `Quick
         test_agreement_flight_controller ]
     @ qsuite) ]
