(* Structured diagnostics: the malformed-input corpus with golden
   text/JSON snapshots, the multi-defect accumulation guarantee, the
   polychrony-diag/v1 schema shape, and qcheck properties over the
   error-code registry and span well-formedness. *)

module P = Polychrony.Pipeline
module D = Putil.Diag
module J = Putil.Metrics.Json

let corpus_names =
  [ "bad_syntax"; "duplicate_port"; "unresolved_classifier";
    "type_conflict"; "infeasible_schedule"; "multi_defect" ]

(* Same entry point as `asme2ssme check`: the whole pipeline runs and
   diagnostics accumulate whether or not an analyzed record could be
   built. *)
let diags_of name =
  let src = Test_data.read (Filename.concat "corpus" (name ^ ".aadl")) in
  match P.analyze ~registry:Trans.Behavior.empty ~file:(name ^ ".aadl") src with
  | Ok a -> (src, a.P.diags)
  | Error ds -> (src, ds)

(* ---------------- golden snapshots -------------------------------- *)

let test_golden name () =
  let src, diags = diags_of name in
  let txt = Test_data.read (Filename.concat "corpus/golden" (name ^ ".txt")) in
  Alcotest.(check string) (name ^ ".txt") txt (D.render_list ~src diags);
  let json =
    String.trim
      (Test_data.read (Filename.concat "corpus/golden" (name ^ ".json")))
  in
  Alcotest.(check string) (name ^ ".json") json
    (J.to_string (D.list_to_json diags))

(* Every corpus model is defective: the report must contain at least
   one error and map to exit code 1. *)
let test_corpus_all_fail () =
  List.iter
    (fun name ->
      let _, diags = diags_of name in
      Alcotest.(check bool) (name ^ " has errors") true (D.has_errors diags);
      Alcotest.(check int) (name ^ " exit code") 1 (D.exit_code diags))
    corpus_names

(* ---------------- accumulation (the PR's acceptance bar) ---------- *)

let test_multi_defect_accumulates () =
  let _, diags = diags_of "multi_defect" in
  let errors = List.filter (fun d -> d.D.severity = D.Error) diags in
  Alcotest.(check bool) "at least 3 errors" true (List.length errors >= 3);
  let codes =
    List.sort_uniq String.compare (List.map (fun d -> d.D.code) errors)
  in
  (* three independent defect families in one run *)
  List.iter
    (fun c ->
      Alcotest.(check bool) ("reports " ^ c) true (List.mem c codes))
    [ "AADL-CHECK-001"; "SIG-TYPE-001"; "TRANS-003"; "SCHED-INFEAS-001" ];
  (* each family is anchored to a source span *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " is located") true
        (List.exists
           (fun d -> String.equal d.D.code c && d.D.span <> None)
           errors))
    [ "AADL-CHECK-001"; "SIG-TYPE-001"; "TRANS-003"; "SCHED-INFEAS-001" ]

(* ---------------- JSON schema shape ------------------------------- *)

let test_json_schema () =
  let _, diags = diags_of "multi_defect" in
  match J.of_string (J.to_string (D.list_to_json diags)) with
  | Error m -> Alcotest.fail ("emitted JSON does not re-parse: " ^ m)
  | Ok json ->
    (match J.member "schema" json with
     | Some (J.String "polychrony-diag/v1") -> ()
     | _ -> Alcotest.fail "schema key missing or wrong");
    let ds =
      match J.member "diagnostics" json with
      | Some (J.Arr ds) -> ds
      | _ -> Alcotest.fail "diagnostics array missing"
    in
    Alcotest.(check int) "one object per diagnostic" (List.length diags)
      (List.length ds);
    List.iter
      (fun d ->
        List.iter
          (fun key ->
            match J.member key d with
            | Some (J.String s) when s <> "" -> ()
            | _ -> Alcotest.fail ("diagnostic missing key " ^ key))
          [ "severity"; "code"; "message" ])
      ds;
    (match J.member "errors" json with
     | Some (J.Int n) when n > 0 -> ()
     | _ -> Alcotest.fail "errors count missing")

(* ---------------- properties -------------------------------------- *)

let well_formed d =
  D.describe d.D.code <> None
  && String.length d.D.message > 0
  && (match d.D.span with
      | None -> true
      | Some sp ->
        sp.D.sp_line >= 1 && sp.D.sp_col >= 1
        && sp.D.sp_end_col >= sp.D.sp_col)
  && List.for_all
       (fun r ->
         match r.D.rel_span with
         | None -> true
         | Some sp ->
           sp.D.sp_line >= 1 && sp.D.sp_col >= 1
           && sp.D.sp_end_col >= sp.D.sp_col)
       d.D.related

let test_corpus_well_formed () =
  List.iter
    (fun name ->
      let _, diags = diags_of name in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s well-formed" name d.D.code)
            true (well_formed d))
        diags)
    corpus_names

(* Random mutations of the case-study source: whatever the pipeline
   reports, every diagnostic carries a registered code and a sane
   span. Mutations that crash a stage outside the diagnostics path are
   out of scope here (nothing was emitted). *)
let prop_mutated_diags_well_formed =
  let base = Polychrony.Case_study.aadl_source in
  let gen =
    QCheck2.Gen.(
      let* kind = int_range 0 2 in
      let* pos = int_range 0 (String.length base - 1) in
      match kind with
      | 0 ->
        (* truncate mid-source *)
        return (String.sub base 0 pos)
      | 1 ->
        (* delete one character *)
        return
          (String.sub base 0 pos
           ^ String.sub base (pos + 1) (String.length base - pos - 1))
      | _ ->
        (* swap one character for a structural one *)
        let* c = oneofl [ ';'; '.'; ':'; 'x'; ' '; '}' ] in
        let b = Bytes.of_string base in
        Bytes.set b pos c;
        return (Bytes.to_string b))
  in
  QCheck2.Test.make
    ~name:"every emitted diagnostic has a registered code and sane span"
    ~count:200 gen
    (fun src ->
      match P.analyze ~registry:Trans.Behavior.empty ~file:"mutated.aadl" src with
      | Ok a -> List.for_all well_formed a.P.diags
      | Error ds -> ds <> [] && List.for_all well_formed ds
      | exception _ -> QCheck2.assume_fail ())

let prop_registry_consistent =
  QCheck2.Test.make ~name:"code registry descriptions are stable" ~count:1
    QCheck2.Gen.unit
    (fun () ->
      let codes = D.codes () in
      codes <> []
      && List.for_all
           (fun (id, desc) ->
             String.length id > 0
             && String.length desc > 0
             && D.describe id = Some desc)
           codes)

let suite =
  [ ("diag.corpus",
     List.map
       (fun name ->
         Alcotest.test_case ("golden " ^ name) `Quick (test_golden name))
       corpus_names
     @ [ Alcotest.test_case "all corpus models fail" `Quick
           test_corpus_all_fail;
         Alcotest.test_case "multi-defect accumulation" `Quick
           test_multi_defect_accumulates;
         Alcotest.test_case "json schema shape" `Quick test_json_schema;
         Alcotest.test_case "corpus diags well-formed" `Quick
           test_corpus_well_formed ]);
    ("diag.properties",
     [ QCheck_alcotest.to_alcotest prop_mutated_diags_well_formed;
       QCheck_alcotest.to_alcotest prop_registry_consistent ]) ]
