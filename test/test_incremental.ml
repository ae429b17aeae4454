(* Traceability and digest-driven incremental recompute: the
   phase/mark refactor's cross-layer guarantees.

   - Traceability round-trips paths and names in both directions,
     survives marshalling, and prints the golden block [analyze]
     prints for the case study in both scheduler modes;
   - pipeline sessions skip exactly the stages whose input digests
     are unchanged, and a timing-only edit under External scheduler
     mode replays the whole back end from cache;
   - the incremental path is byte-identical to a full rebuild;
   - qcheck: normalization and optimization never fabricate source
     positions, and the stage digests behave (deterministic, and the
     semantic digest ignores marks). *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module K = Signal_lang.Kernel
module SP = Signal_lang.Sig_parser
module Pp = Signal_lang.Pp
module P = Polychrony.Pipeline
module CS = Polychrony.Case_study
module ST = Trans.System_trans

let analyze_ok ?session ?(mode = ST.External)
    ?(registry = CS.registry_nominal) src =
  match P.analyze ?session ~registry ~mode src with
  | Ok a -> a
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)

(* ------------------------------------------------------------------ *)
(* Traceability                                                       *)
(* ------------------------------------------------------------------ *)

module Tr = Trans.Traceability

let test_traceability_roundtrip () =
  let tr = Tr.create () in
  Tr.add_component tr ~aadl:"Sys.pr.thA" ~signal:"th_Sys_pr_thA";
  Tr.add_port tr ~aadl:"Sys.pr.thA.pOut" ~signal:"thA_pOut";
  Alcotest.(check (option string)) "signal_of component"
    (Some "th_Sys_pr_thA") (Tr.signal_of tr "Sys.pr.thA");
  Alcotest.(check (option string)) "signal_of port" (Some "thA_pOut")
    (Tr.signal_of tr "Sys.pr.thA.pOut");
  Alcotest.(check (option string)) "aadl_of component" (Some "Sys.pr.thA")
    (Tr.aadl_of tr "th_Sys_pr_thA");
  Alcotest.(check (option string)) "aadl_of port" (Some "Sys.pr.thA.pOut")
    (Tr.aadl_of tr "thA_pOut");
  Alcotest.(check (option string)) "unknown path" None
    (Tr.signal_of tr "Sys.pr.thB");
  Alcotest.(check (option string)) "unknown signal" None
    (Tr.aadl_of tr "thB_pOut");
  (* a path recorded both ways answers with its component; the last
     entry for a signal wins *)
  Tr.add_port tr ~aadl:"Sys.pr.thA" ~signal:"thA_as_port";
  Tr.add_component tr ~aadl:"Sys.pr.thC" ~signal:"thA_pOut";
  Alcotest.(check (option string)) "components before ports"
    (Some "th_Sys_pr_thA") (Tr.signal_of tr "Sys.pr.thA");
  Alcotest.(check (option string)) "last entry wins for a signal"
    (Some "Sys.pr.thC") (Tr.aadl_of tr "thA_pOut");
  Alcotest.(check (list (pair string string))) "entries in insertion order"
    [ ("Sys.pr.thA", "th_Sys_pr_thA"); ("Sys.pr.thA.pOut", "thA_pOut");
      ("Sys.pr.thA", "thA_as_port"); ("Sys.pr.thC", "thA_pOut") ]
    (Tr.entries tr)

(* a translation's map is plain data: marshalled with sharing, as the
   persistent store writes its payloads, it answers every lookup as
   before *)
let test_traceability_marshal () =
  let a = analyze_ok ~mode:ST.Embedded CS.aadl_source in
  let tr = a.P.translation.ST.trace in
  let tr' : Tr.t = Marshal.from_string (Marshal.to_string tr []) 0 in
  let entries = Tr.entries tr in
  Alcotest.(check bool) "entries recorded" true (List.length entries > 10);
  Alcotest.(check (list (pair string string))) "entries" entries
    (Tr.entries tr');
  List.iter
    (fun (path, signal) ->
      Alcotest.(check (option string)) ("signal_of " ^ path)
        (Tr.signal_of tr path) (Tr.signal_of tr' path);
      Alcotest.(check (option string)) ("aadl_of " ^ signal)
        (Tr.aadl_of tr signal) (Tr.aadl_of tr' signal))
    (("ProdConsSys.nowhere", "no_signal") :: entries)

(* [analyze]'s text report after its run metrics: the traceability
   block, then the diagnostics *)
let test_traceability_golden (mode, mode_name) () =
  let src = CS.aadl_source in
  let a = analyze_ok ~mode src in
  let block =
    Format.asprintf "traceability:@.%a@." Tr.pp a.P.translation.ST.trace
    ^ (if a.P.diags = [] then ""
       else "\n" ^ Putil.Diag.render_list ~src a.P.diags)
  in
  Alcotest.(check string) "traceability block"
    (Test_data.read
       (Printf.sprintf "corpus/golden/traceability_case_study_%s.txt"
          mode_name))
    block

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                               *)
(* ------------------------------------------------------------------ *)

let counter name = Putil.Metrics.counter_value Putil.Metrics.global name
let stages = [ "parse"; "instantiate"; "translate"; "typecheck";
               "normalize"; "analyses" ]

let snapshot () =
  List.map
    (fun st ->
      (st, counter ("incr." ^ st ^ ".ran"), counter ("incr." ^ st ^ ".skipped")))
    stages

let delta before after =
  List.map2
    (fun (st, r0, s0) (st', r1, s1) ->
      assert (st = st');
      (st, r1 - r0, s1 - s0))
    before after

let edited_source () =
  let src = CS.aadl_source in
  let sub = "Period => 4 ms" and by = "Period => 5 ms" in
  let n = String.length src and m = String.length sub in
  let rec find i =
    if i + m > n then Alcotest.fail "period pattern not in case study"
    else if String.sub src i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ by ^ String.sub src (i + m) (n - i - m)

let test_session_skips_unchanged () =
  let session = P.new_session () in
  let _ = analyze_ok ~session CS.aadl_source in
  let before = snapshot () in
  let _ = analyze_ok ~session CS.aadl_source in
  List.iter
    (fun (st, ran, skipped) ->
      Alcotest.(check int) (st ^ " not rerun") 0 ran;
      Alcotest.(check int) (st ^ " skipped once") 1 skipped)
    (delta before (snapshot ()))

(* External mode: a period edit leaves the generated program's digest
   unchanged, so the whole back end replays from cache. The front-end
   keys derive from the source key, so an edit that leaves the AADL AST
   as it was (a comment after the last package) reruns instantiate and
   translate all the same; the cutoff is the program. *)
let test_session_edit_skips_backend () =
  List.iter
    (fun (edit, edited) ->
      let session = P.new_session () in
      let _ = analyze_ok ~session CS.aadl_source in
      let before = snapshot () in
      let _ = analyze_ok ~session edited in
      List.iter
        (fun (st, ran, skipped) ->
          match st with
          | "parse" | "instantiate" | "translate" ->
            Alcotest.(check int) (edit ^ ": " ^ st ^ " reran") 1 ran;
            Alcotest.(check int) (edit ^ ": " ^ st ^ " not skipped") 0 skipped
          | _ ->
            Alcotest.(check int) (edit ^ ": " ^ st ^ " not rerun") 0 ran;
            Alcotest.(check int) (edit ^ ": " ^ st ^ " skipped") 1 skipped)
        (delta before (snapshot ())))
    [ ("period edit", edited_source ());
      ("comment edit", CS.aadl_source ^ "\n-- reviewed\n") ]

let test_session_period_edit_changes_schedule () =
  let session = P.new_session () in
  let a0 = analyze_ok ~session CS.aadl_source in
  let a1 = analyze_ok ~session (edited_source ()) in
  let hyper (a : P.analyzed) =
    match a.P.translation.ST.schedules with
    | (_, s) :: _ -> s.Sched.Static_sched.hyperperiod_us
    | [] -> Alcotest.fail "no schedule"
  in
  (* the skipped back end is sound precisely because the program is
     invariant; the timing artifacts must still change *)
  Alcotest.(check bool) "hyperperiod changed" true (hyper a0 <> hyper a1);
  Alcotest.(check string) "program digest invariant"
    (Digest.to_hex (Ast.program_digest a0.P.translation.ST.program))
    (Digest.to_hex (Ast.program_digest a1.P.translation.ST.program))

let render_outputs (a : P.analyzed) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun (cpu, s) ->
      Format.fprintf ppf "processor %s:@.%a@." cpu
        Sched.Static_sched.pp_schedule s)
    a.P.translation.ST.schedules;
  Format.fprintf ppf "%a@." Pp.pp_program a.P.translation.ST.program;
  (match P.simulate ~hyperperiods:2 a with
   | Ok tr -> Polysim.Trace.chronogram ppf tr
   | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds));
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_incremental_byte_identical () =
  let edited = edited_source () in
  let session = P.new_session () in
  let _ = analyze_ok ~session CS.aadl_source in
  let warm = analyze_ok ~session edited in
  Clocks.Calculus.reset_cache ();
  let cold = analyze_ok edited in
  Alcotest.(check string) "incremental outputs = full rebuild"
    (render_outputs cold) (render_outputs warm)

let test_external_matches_embedded () =
  (* the exogenous-scheduler translation drives the per-task control
     events from the schedule tables; every signal it still computes
     must behave exactly as under the embedded scheduler *)
  let a_ext = analyze_ok ~mode:ST.External CS.aadl_source in
  let a_emb = analyze_ok ~mode:ST.Embedded CS.aadl_source in
  let sim a =
    match P.simulate ~hyperperiods:2 a with
    | Ok tr -> tr
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  let tr_ext = sim a_ext and tr_emb = sim a_emb in
  Alcotest.(check int) "same horizon" (Polysim.Trace.length tr_emb)
    (Polysim.Trace.length tr_ext);
  let common =
    List.filter
      (fun s -> Polysim.Trace.index_of tr_emb s <> None)
      (Polysim.Trace.observable tr_ext)
  in
  Alcotest.(check bool) "common observables exist" true (common <> []);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) ("signal " ^ s)
        (List.map Types.value_to_string (Polysim.Trace.values_of tr_emb s))
        (List.map Types.value_to_string (Polysim.Trace.values_of tr_ext s)))
    common

(* ------------------------------------------------------------------ *)
(* Per-process units and the persistent store                         *)
(* ------------------------------------------------------------------ *)

let proc_stages = [ "typecheck"; "normalize"; "analyses" ]

let proc_snapshot () =
  List.map
    (fun st ->
      ( st,
        counter ("incr." ^ st ^ ".proc_ran"),
        counter ("incr." ^ st ^ ".proc_skipped") ))
    proc_stages

(* Editing one thread's behaviour (the producer arms its timer once
   instead of every job) reruns exactly that process's unit in every
   per-process stage; all untouched processes replay. The analyses
   stage may additionally rerun its glue unit — the producer's
   interface summary feeds it — but never another model's. *)
let test_behavior_edit_reruns_one_process () =
  let session = P.new_session () in
  let b0 = proc_snapshot () in
  let _ = analyze_ok ~session CS.aadl_source in
  let cold = delta b0 (proc_snapshot ()) in
  let before = proc_snapshot () in
  let _ =
    match
      P.analyze ~session ~registry:CS.registry_producer_variant
        ~mode:ST.External CS.aadl_source
    with
    | Ok a -> a
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  List.iter2
    (fun (st, cold_ran, _) (st', ran, skipped) ->
      assert (st = st');
      Alcotest.(check int) (st ^ " conserves units") cold_ran (ran + skipped);
      match st with
      | "analyses" ->
        Alcotest.(check bool)
          (st ^ " reran the edited model (at most +glue)")
          true
          (ran = 1 || ran = 2)
      | _ -> Alcotest.(check int) (st ^ " reran exactly one process") 1 ran)
    cold
    (delta before (proc_snapshot ()))

let with_temp_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "incr_store_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun b -> try Sys.remove (Filename.concat dir b) with _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with _ -> ()
      end)
    (fun () ->
      match Putil.Cache_store.open_store dir with
      | Ok t -> f t dir
      | Error m -> Alcotest.fail ("open_store: " ^ m))

(* A brand-new session that shares nothing with the first one but the
   on-disk store replays every per-process unit (no recompute) and
   reproduces the cold outputs byte for byte. *)
let test_warm_store_fresh_session () =
  with_temp_store (fun store dir ->
      let s1 = P.new_session ~store () in
      let out_cold = render_outputs (analyze_ok ~session:s1 CS.aadl_source) in
      let store2 =
        match Putil.Cache_store.open_store dir with
        | Ok t -> t
        | Error m -> Alcotest.fail ("reopen: " ^ m)
      in
      let s2 = P.new_session ~store:store2 () in
      let before = proc_snapshot () in
      let a_warm = analyze_ok ~session:s2 CS.aadl_source in
      List.iter
        (fun (st, ran, skipped) ->
          Alcotest.(check int) (st ^ " no unit recomputed") 0 ran;
          Alcotest.(check bool) (st ^ " units replayed") true (skipped > 0))
        (delta before (proc_snapshot ()));
      Alcotest.(check bool) "store hits recorded" true
        ((Putil.Cache_store.stats store2).Putil.Cache_store.hits > 0);
      Alcotest.(check string) "store replay byte-identical" out_cold
        (render_outputs a_warm))

let store_hits store = (Putil.Cache_store.stats store).Putil.Cache_store.hits

(* A store-backed session that toggles between two behaviours replays
   the normalize and analyses stages from its windows: coming back to
   a program it has seen runs no per-process unit and reads no
   normalize or analyses entry from the store. Only the typecheck
   stage, which keeps one slot, reads its entry back (one store hit);
   a store replay of a whole stage would also credit its units to
   [proc_skipped], and a window hit credits none. *)
let test_behavior_edits_replay_from_memory () =
  with_temp_store (fun store _ ->
      let session = P.new_session ~store () in
      let run registry =
        render_outputs (analyze_ok ~session ~registry CS.aadl_source)
      in
      let nominal = run CS.registry_nominal in
      let variant = run CS.registry_producer_variant in
      List.iter
        (fun (label, registry, want) ->
          let hits0 = store_hits store and before = proc_snapshot () in
          let skipped0 = snapshot () in
          let got = run registry in
          Alcotest.(check int)
            (label ^ ": only the typecheck slot reads the store")
            1
            (store_hits store - hits0);
          List.iter
            (fun (st, ran, skipped) ->
              Alcotest.(check int) (label ^ ": " ^ st ^ " no unit ran") 0 ran;
              if st <> "typecheck" then
                Alcotest.(check int)
                  (label ^ ": " ^ st ^ " no store replay credited")
                  0 skipped)
            (delta before (proc_snapshot ()));
          List.iter
            (fun (st, ran, skipped) ->
              if st = "normalize" || st = "analyses" then begin
                Alcotest.(check int) (label ^ ": " ^ st ^ " not rerun") 0 ran;
                Alcotest.(check int) (label ^ ": " ^ st ^ " skipped") 1 skipped
              end)
            (delta skipped0 (snapshot ()));
          Alcotest.(check string) (label ^ ": outputs as before") want got)
        [ ("nominal again", CS.registry_nominal, nominal);
          ("variant again", CS.registry_producer_variant, variant) ])

(* Delete the store files of one tag, as an eviction would. *)
let drop_tag dir tag =
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:(tag ^ "-") f then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

let reopen dir =
  match Putil.Cache_store.open_store dir with
  | Ok t -> t
  | Error m -> Alcotest.fail ("reopen: " ^ m)

(* A fresh session replays the normalize stage from the store but
   misses the analyses: the analyses take the model kernels from the
   store without counting them again, so every per-process stage
   still conserves its units. With the model kernels gone too, they
   are normalized again and the outputs stay the same. *)
let test_normalize_replay_then_analyses_miss () =
  with_temp_store (fun store dir ->
      let b0 = proc_snapshot () in
      let cold =
        analyze_ok ~session:(P.new_session ~store ()) CS.aadl_source
      in
      let cold_units = delta b0 (proc_snapshot ()) in
      let out_cold = render_outputs cold in
      drop_tag dir "stage.analyses";
      let before = proc_snapshot () and s0 = snapshot () in
      let warm =
        analyze_ok
          ~session:(P.new_session ~store:(reopen dir) ())
          CS.aadl_source
      in
      List.iter
        (fun (st, ran, skipped) ->
          if st = "normalize" then
            Alcotest.(check int) "normalize replayed" 1 skipped;
          if st = "analyses" then Alcotest.(check int) "analyses missed" 1 ran)
        (delta s0 (snapshot ()));
      List.iter2
        (fun (st, cold_ran, _) (st', ran, skipped) ->
          assert (st = st');
          Alcotest.(check int) (st ^ " conserves units") cold_ran
            (ran + skipped);
          Alcotest.(check int) (st ^ " no unit recomputed") 0 ran)
        cold_units
        (delta before (proc_snapshot ()));
      Alcotest.(check string) "store replay byte-identical" out_cold
        (render_outputs warm);
      Alcotest.(check string) "same diagnostics"
        (Putil.Diag.list_to_string cold.P.diags)
        (Putil.Diag.list_to_string warm.P.diags);
      drop_tag dir "stage.analyses";
      drop_tag dir "normalize.proc";
      let again =
        analyze_ok
          ~session:(P.new_session ~store:(reopen dir) ())
          CS.aadl_source
      in
      Alcotest.(check string) "kernels normalized again" out_cold
        (render_outputs again))

(* The store key of the normalize stage, as the pipeline derives it. *)
let normalize_key (a : P.analyzed) =
  let tr = a.P.translation in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (tr.ST.program.Ast.prog_name, tr.ST.process_digests)
          [ Marshal.No_sharing ]))
  ^ ":" ^ tr.ST.top.Ast.proc_name

(* The normalize value held the model kernels and the whole profile
   under [stage.normalize]; an entry of that shape, left by an older
   build under the same key, is a miss, never read as the lean value. *)
type old_normalized = {
  o_kernel : K.kprocess;
  o_glue : K.kprocess;
  o_links : Signal_lang.Normalize.link list;
  o_models : (string * K.kprocess) list;
  o_profile : Analysis.Profiling.report;
  o_kdigest : string;
}

let test_old_normalize_tag_misses () =
  with_temp_store (fun store _ ->
      let cold = analyze_ok ~session:(P.new_session ~store ()) CS.aadl_source in
      let key = normalize_key cold in
      Alcotest.(check bool) "the key is the pipeline's" true
        (Putil.Cache_store.mem store ~stage:"stage.normalize.lean" ~key);
      with_temp_store (fun old _ ->
          Putil.Cache_store.put old ~stage:"stage.normalize" ~key
            { o_kernel = cold.P.kernel; o_glue = cold.P.glue_kernel;
              o_links = cold.P.links; o_models = [];
              o_profile = Analysis.Profiling.static_costs cold.P.kernel;
              o_kdigest = cold.P.kernel_digest };
          let ran0 = counter "incr.normalize.ran" in
          let warm =
            analyze_ok ~session:(P.new_session ~store:old ()) CS.aadl_source
          in
          Alcotest.(check int) "the old entry is a miss" 1
            (counter "incr.normalize.ran" - ran0);
          Alcotest.(check string) "outputs as cold" (render_outputs cold)
            (render_outputs warm)))

(* External mode + compiled simulation across a timing edit: the
   kernel digest is invariant, so the memoized compiled plan is
   reused (no new plan build) and the simulation still reflects the
   new schedule exactly as a cold rebuild would. *)
let test_compiled_plan_reuse_after_timing_edit () =
  let session = P.new_session () in
  let a0 = analyze_ok ~session CS.aadl_source in
  (match P.simulate ~compiled:true a0 with
  | Ok _ -> ()
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds));
  let a1 = analyze_ok ~session (edited_source ()) in
  Alcotest.(check string) "kernel digest invariant"
    (K.digest a0.P.kernel) (K.digest a1.P.kernel);
  let builds0 = counter "compile.plan_builds" in
  let tr_warm =
    match P.simulate ~compiled:true a1 with
    | Ok tr -> tr
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  Alcotest.(check int) "compiled plan reused, not rebuilt" builds0
    (counter "compile.plan_builds");
  Clocks.Calculus.reset_cache ();
  let tr_cold =
    match P.simulate ~compiled:true (analyze_ok (edited_source ())) with
    | Ok tr -> tr
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  Alcotest.(check bool) "trace matches cold rebuild" true
    (Polysim.Trace.equal tr_cold tr_warm)

(* ------------------------------------------------------------------ *)
(* Stage keys derived from known keys                                 *)
(* ------------------------------------------------------------------ *)

(* The translation digests each process once; its digests are exactly
   [Ast.process_digest] over the program, in program order, which is
   what lets the back-end keys be built from them. *)
let test_translation_digests () =
  let check label src mode =
    let a =
      match P.analyze ~registry:CS.registry_nominal ~mode src with
      | Ok a -> a
      | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
    in
    let tr = a.P.translation in
    Alcotest.(check (list string)) (label ^ ": per-process digests")
      (List.map
         (fun p -> Digest.to_hex (Ast.process_digest p))
         tr.ST.program.Ast.processes)
      (List.map Digest.to_hex tr.ST.process_digests)
  in
  List.iter
    (fun (mode, m) ->
      check ("case study " ^ m) CS.aadl_source mode;
      check ("3 replicas " ^ m)
        (Test_data.read "../examples/prodcons_replicas3.aadl")
        mode)
    [ (ST.Embedded, "embedded"); (ST.External, "external") ]

let diags_text ds =
  String.concat "\n" (List.map Putil.Diag.to_string ds)

(* A parse hit replays the legality issues with the packages: a new
   session on a warm store reports the same issues and diagnostics as
   the cold run without running the check again. *)
let test_legality_replayed_with_parse () =
  let src = Test_data.read "corpus/multi_defect.aadl" in
  let file = "multi_defect.aadl" in
  let run store =
    let session = P.new_session ~store () in
    match P.analyze ~session ~registry:Trans.Behavior.empty ~file src with
    | Ok a -> (Some a.P.aadl_issues, diags_text a.P.diags)
    | Error ds -> (None, diags_text ds)
  in
  let checked () =
    List.exists
      (fun (_, evs) ->
        List.exists
          (function
            | Putil.Tracing.Begin { name = "aadl.check"; _ } -> true
            | _ -> false)
          evs)
      (Putil.Tracing.events ())
  in
  with_temp_store (fun store dir ->
      let issues0, diags0 = run store in
      Alcotest.(check bool) "the model has legality issues" true
        (match issues0 with Some (_ :: _) -> true | _ -> false);
      let store2 =
        match Putil.Cache_store.open_store dir with
        | Ok t -> t
        | Error m -> Alcotest.fail ("reopen: " ^ m)
      in
      let skipped0 = counter "incr.parse.skipped" in
      Putil.Tracing.reset ();
      Putil.Tracing.set_enabled true;
      let issues1, diags1 =
        Fun.protect
          ~finally:(fun () -> Putil.Tracing.set_enabled false)
          (fun () -> run store2)
      in
      Alcotest.(check int) "parse replayed from the store" 1
        (counter "incr.parse.skipped" - skipped0);
      Alcotest.(check bool) "no aadl.check span on the warm run" false
        (checked ());
      Putil.Tracing.reset ();
      Alcotest.(check bool) "same legality issues" true (issues0 = issues1);
      Alcotest.(check string) "same diagnostics" diags0 diags1)

(* SIGNAL type errors ride in the typecheck entries: a fresh session
   on a warm store reports them, with the same diagnostics, without
   checking any process again. No entry is filed under the tags whose
   values also held typed trees. *)
let test_type_errors_replayed_from_store () =
  let src = Test_data.read "corpus/type_conflict.aadl" in
  let run store =
    match
      P.analyze ~session:(P.new_session ~store ())
        ~registry:Trans.Behavior.empty ~file:"type_conflict.aadl" src
    with
    | Ok a -> a
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  with_temp_store (fun store dir ->
      let cold = run store in
      Alcotest.(check bool) "the model has type errors" true
        (cold.P.typecheck_errors <> []);
      let skipped0 = counter "incr.typecheck.skipped"
      and proc_ran0 = counter "incr.typecheck.proc_ran" in
      let warm = run (reopen dir) in
      Alcotest.(check int) "typecheck replayed from the store" 1
        (counter "incr.typecheck.skipped" - skipped0);
      Alcotest.(check int) "no process checked again" 0
        (counter "incr.typecheck.proc_ran" - proc_ran0);
      Alcotest.(check bool) "same type errors" true
        (cold.P.typecheck_errors = warm.P.typecheck_errors);
      Alcotest.(check string) "same diagnostics" (diags_text cold.P.diags)
        (diags_text warm.P.diags);
      Array.iter
        (fun f ->
          List.iter
            (fun tag ->
              if String.starts_with ~prefix:(tag ^ "-") f then
                Alcotest.failf "%s is filed under the retired tag %s" f tag)
            [ "stage.typecheck"; "typecheck.proc" ])
        (Sys.readdir dir))

(* Minor words one warm timing edit may allocate: a store-backed
   External session on the case study, back to a source the store has
   seen. The edit reads the parse entry, instantiates, runs the
   schedule half of the translation (the structure is a memo hit) and
   replays the back end from the session. The bound holds while no
   stage key marshals a model and the structure is not rebuilt. *)
let warm_edit_minor_words_bound = 12_000.

let test_warm_edit_allocation () =
  with_temp_store (fun store _ ->
      let session = P.new_session ~store () in
      let seen = CS.aadl_source and edited = edited_source () in
      let _ = analyze_ok ~session seen in
      let _ = analyze_ok ~session edited in
      (* the least of three: a bounded memo that happens to fill up
         during one edit must not decide the gate *)
      let words =
        List.fold_left min infinity
          (List.init 3 (fun _ ->
               let w0 = Gc.minor_words () in
               let _ = analyze_ok ~session seen in
               let w = Gc.minor_words () -. w0 in
               let _ = analyze_ok ~session edited in
               w))
      in
      if words > warm_edit_minor_words_bound then
        Alcotest.failf "a warm timing edit allocated %.0f minor words (bound %.0f)"
          words warm_edit_minor_words_bound)

(* A warm timing edit translates only the schedule: the timing-free
   structure (thread models, top process) is one memo hit, so no
   thread is translated. *)
let test_warm_edit_replays_structure () =
  let session = P.new_session () in
  let seen = CS.aadl_source and edited = edited_source () in
  let _ = analyze_ok ~session seen in
  let _ = analyze_ok ~session edited in
  let hits0 = counter "trans.structure.cache_hits" in
  let misses0 = counter "trans.structure.cache_misses" in
  Putil.Tracing.reset ();
  Putil.Tracing.set_enabled true;
  let _ =
    Fun.protect
      ~finally:(fun () -> Putil.Tracing.set_enabled false)
      (fun () -> analyze_ok ~session seen)
  in
  let spans name =
    List.fold_left
      (fun n (_, evs) ->
        List.fold_left
          (fun n -> function
            | Putil.Tracing.Begin { name = nm; _ } when String.equal nm name ->
              n + 1
            | _ -> n)
          n evs)
      0 (Putil.Tracing.events ())
  in
  let translations = spans "trans.system" and threads = spans "trans.thread" in
  Putil.Tracing.reset ();
  Alcotest.(check int) "the edit translates" 1 translations;
  Alcotest.(check int) "no thread translated" 0 threads;
  Alcotest.(check int) "one structure-memo hit" 1
    (counter "trans.structure.cache_hits" - hits0);
  Alcotest.(check int) "no structure built" 0
    (counter "trans.structure.cache_misses" - misses0)

let test_external_ctl_inputs () =
  let a = analyze_ok ~mode:ST.External CS.aadl_source in
  let ctls = a.P.translation.ST.ctl_inputs in
  Alcotest.(check bool) "ctl inputs derived" true (List.length ctls > 0);
  List.iter
    (fun (name, spec) ->
      Alcotest.(check bool) (name ^ " horizon positive") true
        (spec.ST.cs_horizon > 0);
      Alcotest.(check bool) (name ^ " ticks in horizon-anchored range") true
        (List.for_all (fun t -> t >= 0) spec.ST.cs_ticks))
    ctls;
  (* embedded mode keeps the scheduler in the program: no ctl inputs *)
  let a_emb = analyze_ok ~mode:ST.Embedded CS.aadl_source in
  Alcotest.(check int) "embedded has no ctl inputs" 0
    (List.length a_emb.P.translation.ST.ctl_inputs)

(* ------------------------------------------------------------------ *)
(* qcheck: spans and digests                                          *)
(* ------------------------------------------------------------------ *)

let gen_expr =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [ map B.i (int_range (-20) 20);
            oneofl [ B.v "a"; B.v "b" ] ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [ leaf;
            map2 B.( + ) sub sub;
            map2 B.( * ) sub sub;
            map2 (fun e c -> B.when_ e B.(c > i 0)) sub sub;
            map2 B.default sub sub;
            map (fun e -> B.delay ~init:(Types.Vint 0) e) sub;
            map3 (fun c e1 e2 -> B.if_ B.(c > i 0) e1 e2) sub sub sub ])

let mk_process e =
  B.proc ~name:"P"
    ~inputs:[ Ast.var "a" Types.Tint; Ast.var "b" Types.Tint ]
    ~outputs:[ Ast.var "x" Types.Tint ]
    [ B.( := ) "x" e ]

(* every span occurring anywhere in a process *)
let rec expr_spans (d, m) acc =
  let acc = Ast.mark_span m :: acc in
  match d with
  | Ast.Econst _ | Ast.Evar _ -> acc
  | Ast.Eunop (_, e) | Ast.Edelay (e, _) | Ast.Eclock e -> expr_spans e acc
  | Ast.Ebinop (_, e1, e2) | Ast.Ewhen (e1, e2) | Ast.Edefault (e1, e2) ->
    expr_spans e1 (expr_spans e2 acc)
  | Ast.Eif (e1, e2, e3) -> expr_spans e1 (expr_spans e2 (expr_spans e3 acc))

let stmt_spans (d, m) acc =
  let acc = Ast.mark_span m :: acc in
  match d with
  | Ast.Sdef (_, e) | Ast.Spartial (_, e) -> expr_spans e acc
  | Ast.Sclk_eq (e1, e2) | Ast.Sclk_le (e1, e2) | Ast.Sclk_ex (e1, e2) ->
    expr_spans e1 (expr_spans e2 acc)
  | Ast.Sinstance i ->
    List.fold_left (fun acc e -> expr_spans e acc) acc i.Ast.inst_ins

let process_spans (p : _ Ast.gprocess) =
  let decls =
    List.concat_map
      (fun d -> [ Ast.mark_span d.Ast.var_mark ])
      (p.Ast.params @ p.Ast.inputs @ p.Ast.outputs @ p.Ast.locals)
  in
  List.fold_left (fun acc st -> stmt_spans st acc) decls p.Ast.body

(* Normalization is mark-transforming: every kernel declaration's span
   points back at a construct of the source process (or is absent) —
   never at a position the source does not contain. *)
let prop_normalize_keeps_spans =
  QCheck2.Test.make ~name:"normalize never fabricates source positions"
    ~count:200 gen_expr (fun e ->
      (* reparse the printed process so spans are real source positions *)
      let printed = Pp.process_to_string (mk_process e) in
      match SP.parse_process printed with
      | Error m -> QCheck2.Test.fail_reportf "reparse: %s\n%s" m printed
      | Ok p -> (
        let allowed = None :: process_spans p in
        match Signal_lang.Normalize.process p with
        | Error m -> QCheck2.Test.fail_reportf "normalize: %s" (Putil.Diag.to_string m)
        | Ok kp ->
          List.for_all
            (fun d -> List.mem (Ast.mark_span d.Ast.var_mark) allowed)
            (K.signals kp)))

let prop_digest_stability =
  QCheck2.Test.make ~name:"stage digests: deterministic, position-sensitive"
    ~count:200 gen_expr (fun e ->
      let build () = B.program "P" [ mk_process e ] in
      let p = build () in
      (* deterministic on structurally rebuilt values *)
      Ast.program_digest p = Ast.program_digest (build ())
      (* a position-only change must invalidate (replayed diagnostics
         carry positions) *)
      &&
      let sp = Putil.Diag.span ~line:7 ~col:3 () in
      let respan (pc : Ast.process) =
        { pc with
          Ast.body =
            List.map
              (fun st -> (Ast.desc st, Ast.with_span (Ast.mark st) (Some sp)))
              pc.Ast.body }
      in
      let p' = { p with Ast.processes = List.map respan p.Ast.processes } in
      Ast.program_digest p <> Ast.program_digest p')

(* The per-process cache keys are compositional: a process's digest
   depends on that process alone, so editing one process of a program
   never invalidates another's unit, and the program digest moves iff
   some process digest does. *)
let prop_proc_digest_isolation =
  QCheck2.Test.make
    ~name:"process digests: isolated under sibling edits"
    ~count:200
    QCheck2.Gen.(triple gen_expr gen_expr gen_expr)
    (fun (e1, e2, e3) ->
      let mk name e =
        B.proc ~name
          ~inputs:[ Ast.var "a" Types.Tint; Ast.var "b" Types.Tint ]
          ~outputs:[ Ast.var "x" Types.Tint ]
          [ B.( := ) "x" e ]
      in
      let prog ea eb = B.program "G" [ mk "P1" ea; mk "P2" eb ] in
      let before = prog e1 e2 and after = prog e1 e3 in
      let dg p i = Ast.process_digest (List.nth p.Ast.processes i) in
      (* the untouched sibling's digest is bit-stable across the edit *)
      dg before 0 = dg after 0
      (* the program digest moves exactly when the edited process's
         digest does *)
      && (Ast.program_digest before = Ast.program_digest after)
         = (dg before 1 = dg after 1))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_normalize_keeps_spans; prop_digest_stability;
      prop_proc_digest_isolation ]

let suite =
  [ ( "incremental",
      [ Alcotest.test_case "traceability round-trip" `Quick
          test_traceability_roundtrip;
        Alcotest.test_case "traceability survives marshalling" `Quick
          test_traceability_marshal;
        Alcotest.test_case "golden traceability: embedded" `Quick
          (test_traceability_golden (ST.Embedded, "embedded"));
        Alcotest.test_case "golden traceability: external" `Quick
          (test_traceability_golden (ST.External, "external"));
        Alcotest.test_case "session skips unchanged input" `Quick
          test_session_skips_unchanged;
        Alcotest.test_case "period and comment edits skip back end" `Quick
          test_session_edit_skips_backend;
        Alcotest.test_case "period edit still reschedules" `Quick
          test_session_period_edit_changes_schedule;
        Alcotest.test_case "incremental byte-identical to rebuild" `Quick
          test_incremental_byte_identical;
        Alcotest.test_case "behaviour edit reruns one process" `Quick
          test_behavior_edit_reruns_one_process;
        Alcotest.test_case "warm store replays in fresh session" `Quick
          test_warm_store_fresh_session;
        Alcotest.test_case "behaviour edits replay from memory" `Quick
          test_behavior_edits_replay_from_memory;
        Alcotest.test_case "normalize replay, analyses miss" `Quick
          test_normalize_replay_then_analyses_miss;
        Alcotest.test_case "old normalize tag misses" `Quick
          test_old_normalize_tag_misses;
        Alcotest.test_case "compiled plan reused across timing edit" `Quick
          test_compiled_plan_reuse_after_timing_edit;
        Alcotest.test_case "external scheduler matches embedded" `Quick
          test_external_matches_embedded;
        Alcotest.test_case "external ctl inputs well-formed" `Quick
          test_external_ctl_inputs;
        Alcotest.test_case "translation digests each process once" `Quick
          test_translation_digests;
        Alcotest.test_case "legality replayed with the parse" `Quick
          test_legality_replayed_with_parse;
        Alcotest.test_case "type errors replayed from the store" `Quick
          test_type_errors_replayed_from_store;
        Alcotest.test_case "warm timing edit allocation bound" `Quick
          test_warm_edit_allocation;
        Alcotest.test_case "warm timing edit replays the structure" `Quick
          test_warm_edit_replays_structure ]
      @ qsuite ) ]
