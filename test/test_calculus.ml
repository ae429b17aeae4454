(* Clock calculus: synchronization classes, derived clocks, hierarchy,
   contradiction detection. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module C = Clocks.Calculus
module H = Clocks.Hierarchy

let tint = Types.Tint
let tbool = Types.Tbool
let tevent = Types.Tevent

let calc p = C.analyze (N.process_exn p)

let test_sync_classes () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      B.[ "y" := v "a" + v "b"; "z" := delay (v "y") ]
  in
  let c = calc p in
  Alcotest.(check bool) "a ~ b" true (C.same_class c "a" "b");
  Alcotest.(check bool) "y ~ a" true (C.same_class c "y" "a");
  Alcotest.(check bool) "z ~ y" true (C.same_class c "z" "y")

let test_when_subclock () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := when_ (v "x") (v "c") ]
  in
  let c = calc p in
  Alcotest.(check bool) "y not synchronous with x" false
    (C.same_class c "y" "x");
  Alcotest.(check bool) "y subclock of x" true (C.subclock c "y" "x");
  Alcotest.(check bool) "y subclock of c" true (C.subclock c "y" "c");
  Alcotest.(check bool) "x not subclock of y" false (C.subclock c "x" "y")

let test_when_complement_exclusive () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y1" tint; Ast.var "y2" tint ]
      B.[ "y1" := when_ (v "x") (v "c"); "y2" := when_ (v "x") (not_ (v "c")) ]
  in
  let c = calc p in
  Alcotest.(check bool) "complementary samples exclusive" true
    (C.exclusive c "y1" "y2")

let test_default_union () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := default (v "a") (v "b") ]
  in
  let c = calc p in
  Alcotest.(check bool) "a subclock of y" true (C.subclock c "a" "y");
  Alcotest.(check bool) "b subclock of y" true (C.subclock c "b" "y");
  Alcotest.(check bool) "y not subclock of a" false (C.subclock c "y" "a")

let test_null_clock () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      (* y sampled on c and on not c simultaneously: empty clock *)
      B.[ "y" := when_ (when_ (v "x") (v "c")) (not_ (v "c")) ]
  in
  let c = calc p in
  Alcotest.(check bool) "y provably null" true (C.is_null c "y");
  Alcotest.(check bool) "null signal listed" true
    (List.mem "y" (C.null_signals c))

let test_exclusion_constraint_used () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := default (v "a") (v "b"); clk (v "a") ^! clk (v "b") ]
  in
  let c = calc p in
  Alcotest.(check bool) "declared exclusion provable" true
    (C.exclusive c "a" "b")

let test_contradictory_constraints () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      (* a synchronous with y and exclusive with y: only satisfiable by
         the empty behaviour *)
      B.[ "y" := v "a" + i 1; clk (v "y") ^! clk (v "a") ]
  in
  let c = calc p in
  (* Φ forces ^y = ^a and ^y ∧ ^a = ∅, hence ^a = ∅ *)
  Alcotest.(check bool) "a forced null" true (C.is_null c "a")

let test_hierarchy_tree () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      ~locals:[]
      B.[ clk (v "x") ^= clk (v "c");
          "y" := when_ (v "x") (v "c");
          "z" := when_ (v "y") (v "c") ]
  in
  let c = calc p in
  let h = H.build c in
  (* x/c is the root; y below it; z below or equal to y *)
  (match H.master h with
   | Some m ->
     Alcotest.(check bool) "master is x's class" true (C.same_class c m "x")
   | None -> Alcotest.fail "expected a single root");
  Alcotest.(check bool) "depth at least 1" true (H.depth h >= 1)

let test_hierarchy_forest () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      B.[ "y" := v "a" + i 1; "z" := v "b" + i 1 ]
  in
  let c = calc p in
  let h = H.build c in
  Alcotest.(check bool) "no master for independent inputs" true
    (H.master h = None);
  Alcotest.(check bool) "two roots" true (List.length (H.roots h) >= 2)

let test_class_count_scales () =
  (* chain of when-samplings produces one class per level *)
  let n = 30 in
  let locals = List.init n (fun i -> Ast.var (Printf.sprintf "l%d" i) tint) in
  let body =
    B.("l0" := v "x")
    :: List.init (n - 1) (fun i ->
           let dst = Printf.sprintf "l%d" (i + 1) in
           let src = Printf.sprintf "l%d" i in
           B.(dst := when_ (v src) (v "c")))
    @
    let last = Printf.sprintf "l%d" (n - 1) in
    [ B.("y" := v last) ]
  in
  let p =
    B.proc ~name:"chain" ~locals
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      body
  in
  let c = calc p in
  Alcotest.(check bool) "many classes" true (C.class_count c >= n)

let test_fm_clock_structure () =
  (* the fm memory: o present iff b present and true *)
  let p =
    B.proc ~name:"use_fm"
      ~inputs:[ Ast.var "i" tint; Ast.var "b" tbool ]
      ~outputs:[ Ast.var "o" tint ]
      B.[ inst ~label:"mem" "fm" [ v "i"; v "b" ] [ "o" ] ]
  in
  let c = calc p in
  Alcotest.(check bool) "o subclock of b" true (C.subclock c "o" "b");
  Alcotest.(check bool) "o not null" false (C.is_null c "o");
  Alcotest.(check bool) "consistent" true (C.consistent c)

let test_representative_stable () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" + i 1 ]
  in
  let c = calc p in
  Alcotest.(check string) "repr of a" (C.representative c "a")
    (C.representative c "y")

let test_pp_summary_runs () =
  let p =
    B.proc ~name:"p"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" + i 1 ]
  in
  let c = calc p in
  let s = Format.asprintf "%a" C.pp_summary c in
  Alcotest.(check bool) "summary mentions classes" true
    (String.length s > 0)

(* ---- emptiness decisions against the materialized conjunction ---- *)

module Bdd = Clocks.Bdd
module K = Signal_lang.Kernel

(* every yes/no emptiness answer the calculus gives over [xs] *)
let decisions c xs =
  ( C.null_signals c,
    List.map (C.is_null c) xs,
    List.concat_map
      (fun a -> List.map (fun b -> (C.subclock c a b, C.exclusive c a b)) xs)
      xs )

(* the same answers from the conjunctions with Φ the calculus no
   longer builds *)
let materialized c kp xs =
  C.with_query_lock c @@ fun () ->
  let m = C.manager c and phi = C.context c in
  let empty f = Bdd.is_zero (Bdd.and_ m phi f) in
  let null x = empty (C.clock_of c x) in
  ( List.filter null (List.map (fun vd -> vd.Ast.var_name) (K.signals kp)),
    List.map null xs,
    List.concat_map
      (fun a ->
        let ca = C.clock_of c a in
        List.map
          (fun b ->
            let cb = C.clock_of c b in
            (empty (Bdd.diff m ca cb), empty (Bdd.and_ m ca cb)))
          xs)
      xs )

(* A renamed copy of a kernel misses the analysis memo, so it gets its
   own analysis and BDD manager. The reference runs on such a copy: a
   wrong "empty" would sit in the apply cache, and a conjunction on the
   same manager would read it back and agree. *)
let renamed kp suffix = { kp with K.kname = kp.K.kname ^ suffix }

let check_against_materialized kp xs =
  let nulls, null, rel =
    materialized (C.analyze (renamed kp "_reference")) kp xs
  in
  let w_nulls, w_null, w_rel = decisions (C.analyze kp) xs in
  Alcotest.(check (list string)) "null_signals" nulls w_nulls;
  Alcotest.(check (list bool)) "is_null" null w_null;
  Alcotest.(check (list (pair bool bool))) "subclock, exclusive" rel w_rel

(* the whole case-study kernel *)
let test_case_study_materialized () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  let kp = renamed a.Polychrony.Pipeline.kernel "_decisions" in
  let c = C.analyze kp in
  let before = Bdd.node_count (C.manager c) in
  let nulls = C.null_signals c in
  Alcotest.(check int) "null_signals allocates no node" before
    (Bdd.node_count (C.manager c));
  Alcotest.(check bool) "some signal is null" true (nulls <> []);
  (* pairwise queries over every 8th class representative *)
  let xs =
    List.filter_map
      (fun (cid, r) -> if cid mod 8 = 0 then Some r else None)
      (C.class_reprs c)
  in
  check_against_materialized kp xs

(* random well-clocked kernels, with random inclusion and exclusion
   constraints so that Φ is not trivially true *)
let prop_random_materialized =
  QCheck2.Test.make ~name:"calculus decisions = materialized on random kernels"
    ~count:150
    QCheck2.Gen.(
      pair Test_compile.gen_program
        (list_size (int_range 0 4) (triple bool nat nat)))
    (fun (p, cs) ->
      match N.process p with
      | Error _ -> true (* ill-typed generation is skipped *)
      | Ok kp ->
        let names =
          Array.of_list (List.map (fun vd -> vd.Ast.var_name) (K.signals kp))
        in
        let n = Array.length names in
        let extra =
          List.map
            (fun (le, i, j) ->
              let a = names.(i mod n) and b = names.(j mod n) in
              if le then K.Cle (a, b) else K.Cex (a, b))
            cs
        in
        let kp = { kp with K.kconstraints = kp.K.kconstraints @ extra } in
        check_against_materialized kp (Array.to_list names);
        true)

(* ---------------- replicated models ------------------------------ *)

module P = Polychrony.Pipeline

let analyzed ~mode src =
  match
    P.analyze ~registry:Polychrony.Case_study.registry_nominal ~mode src
  with
  | Ok a -> a
  | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)

let replicas3 () = Test_data.read "../examples/prodcons_replicas3.aadl"

(* the same generator's 1-replica model: the committed file minus every
   line that names the second or third replica *)
let one_replica src =
  let mentions l r =
    match Str.search_forward (Str.regexp_string r) l 0 with
    | _ -> true
    | exception Not_found -> false
  in
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         not (List.exists (mentions l) [ "r0c0a03_1"; "r0c0a03_2" ]))
  |> String.concat "\n"

(* Φ must not grow with the product of the replicas: limits are node
   counts, deterministic for a given model, taken on a fresh analysis
   (a renamed kernel misses the memo) before any query grows the
   manager *)
let test_replicas_scaling mode () =
  let whole a =
    let c = C.analyze (renamed a.P.kernel "_scaling") in
    (Bdd.node_count (C.manager c), Bdd.size (C.manager c) (C.context c))
  in
  let a3 = analyzed ~mode (replicas3 ()) in
  let a1 = analyzed ~mode (one_replica (replicas3 ())) in
  let nodes3, phi3 = whole a3 and _, phi1 = whole a1 in
  Alcotest.(check bool)
    (Printf.sprintf "manager nodes %d <= 20000" nodes3)
    true (nodes3 <= 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "phi %d <= 5 x %d" phi3 phi1) true (phi3 <= 5 * phi1);
  let verdicts a =
    (a.P.determinism.Analysis.Determinism.deterministic,
     a.P.deadlock.Analysis.Deadlock.deadlock_free)
  in
  Alcotest.(check (pair bool bool)) "determinism, deadlock-freedom"
    (verdicts a1) (verdicts a3)

(* the [analyze] report up to its run metrics, pinned across changes to
   the calculus's variable order *)
let report_golden name ?file (mode, mode_name) () =
  let src =
    match file with
    | Some f -> Test_data.read f
    | None -> Polychrony.Case_study.aadl_source
  in
  let report = Format.asprintf "%a@." P.pp_summary (analyzed ~mode src) in
  let cut =
    Str.search_forward (Str.regexp_string "== run metrics ==") report 0
  in
  Alcotest.(check string) "report before run metrics"
    (Test_data.read
       (Printf.sprintf "corpus/golden/analyze_%s_%s.txt" name mode_name))
    (String.sub report 0 cut)

let report_goldens =
  List.concat_map
    (fun (name, file) ->
      List.map
        (fun ((_, m) as mode) ->
          Alcotest.test_case
            (Printf.sprintf "golden %s report: %s" m name)
            `Quick (report_golden name ?file mode))
        [ (Trans.System_trans.Embedded, "embedded");
          (Trans.System_trans.External, "external") ])
    [ ("case_study", None);
      ("producer_consumer", Some "../examples/producer_consumer.aadl");
      ("prodcons_replicas3", Some "../examples/prodcons_replicas3.aadl") ]

(* the forest from the brute-force n² [Bdd.implies] matrix, by the rule
   the hierarchy states: the parent of a class is the highest-numbered
   minimal class strictly above it *)
let brute_force_parents calc =
  let mgr = C.manager calc and n = C.class_count calc in
  let clock = Array.init n (C.clock_of_class_id calc) in
  let le =
    C.with_query_lock calc (fun () ->
        Array.init n (fun a ->
            Array.init n (fun b -> Bdd.implies mgr clock.(a) clock.(b))))
  in
  let below a b = le.(a).(b) && not le.(b).(a) in
  Array.init n (fun c ->
      let above =
        List.rev (List.filter (fun d -> d <> c && below c d) (List.init n Fun.id))
      in
      List.find_opt
        (fun d -> List.for_all (fun e -> e = d || not (below e d)) above)
        above)

let test_hierarchy_oracle ?file mode () =
  let src =
    match file with
    | Some f -> Test_data.read f
    | None -> Polychrony.Case_study.aadl_source
  in
  let a = analyzed ~mode src in
  let calc = Lazy.force a.P.calc and h = Lazy.force a.P.hierarchy in
  let expected = brute_force_parents calc in
  Alcotest.(check int) "one node per class" (Array.length expected)
    (List.length (H.nodes h));
  Array.iteri
    (fun c p ->
      Alcotest.(check (option int))
        (Printf.sprintf "parent of class %d" c) p (H.node h c).H.parent)
    expected

let hierarchy_oracles =
  List.concat_map
    (fun (name, file) ->
      List.map
        (fun (mode, m) ->
          Alcotest.test_case
            (Printf.sprintf "hierarchy = brute force, %s: %s" m name)
            `Quick (test_hierarchy_oracle ?file mode))
        [ (Trans.System_trans.Embedded, "embedded");
          (Trans.System_trans.External, "external") ])
    [ ("case_study", None);
      ("producer_consumer", Some "../examples/producer_consumer.aadl");
      ("prodcons_replicas3", Some "../examples/prodcons_replicas3.aadl");
      ("prodcons_4on4", Some "../examples/prodcons_4on4.aadl") ]

(* the signature pre-filter leaves few pairs to [Bdd.implies]: a
   deterministic count, 11 450 of 385² pairs (7.7%) on this model when
   the filter was introduced; without it every pair but the diagonal *)
let test_hierarchy_implies_gate () =
  let a = analyzed ~mode:Trans.System_trans.Embedded (replicas3 ()) in
  let calc = Lazy.force a.P.calc in
  let count () =
    Putil.Metrics.counter_value Putil.Metrics.global
      "calculus.hierarchy_implies"
  in
  let before = count () in
  ignore (H.build calc);
  let implies = count () - before and n = C.class_count calc in
  Alcotest.(check bool)
    (Printf.sprintf "%d implies <= 12%% of %d classes squared" implies n)
    true
    (implies * 100 <= 12 * n * n)

(* ------------- construction in the final variable order ------------ *)

(* The shape of a fresh whole-kernel analysis: Φ's node count, the
   total and the largest clock size, and a digest of the variable
   meanings in variable order. Each is a function of the order alone,
   so a change that builds the clocks differently but in the same
   order keeps them, and one that numbers the variables otherwise
   (discovery order, say) moves the sizes. *)
let shape a suffix =
  let c = C.analyze (renamed a.P.kernel suffix) in
  let m = C.manager c in
  let sizes =
    Array.init (C.class_count c) (fun k ->
        Bdd.size m (C.clock_of_class_id c k))
  in
  let rec kinds v acc =
    match C.var_kind c v with
    | None -> List.rev acc
    | Some (`Present k) -> kinds (v + 1) (Printf.sprintf "^%d" k :: acc)
    | Some (`Cond b) -> kinds (v + 1) (Printf.sprintf "[%s]" b :: acc)
    | Some (`CondEq (x, k)) ->
      kinds (v + 1) (Printf.sprintf "[%s=%d]" x k :: acc)
  in
  ( Bdd.size m (C.context c),
    Array.fold_left ( + ) 0 sizes,
    Array.fold_left max 0 sizes,
    Digest.to_hex (Digest.string (String.concat " " (kinds 0 []))) )

(* pinned when the calculus first built every clock in its final order,
   at the values of the renaming post-pass it replaced *)
let order_pins =
  [ ("case_study", None, Trans.System_trans.Embedded,
     (163, 716, 63, "9a3cf181c5c4df1e49027abe12318e1b"));
    ("case_study", None, Trans.System_trans.External,
     (25, 226, 30, "48232fcae575866f884c03faf687e6e1"));
    ("producer_consumer", Some "../examples/producer_consumer.aadl",
     Trans.System_trans.Embedded, (163, 716, 63, "9a3cf181c5c4df1e49027abe12318e1b"));
    ("producer_consumer", Some "../examples/producer_consumer.aadl",
     Trans.System_trans.External, (25, 226, 30, "48232fcae575866f884c03faf687e6e1"));
    ("prodcons_replicas3", Some "../examples/prodcons_replicas3.aadl",
     Trans.System_trans.Embedded, (533, 2733, 153, "7e7b925915cc9cb60147c5594a163ff3"));
    ("prodcons_replicas3", Some "../examples/prodcons_replicas3.aadl",
     Trans.System_trans.External, (75, 16880, 8190, "aeddaeb3c4373859ac8498aa9cfc4aa1")) ]

let test_order_pin (_, file, mode, expected) () =
  let src =
    match file with
    | Some f -> Test_data.read f
    | None -> Polychrony.Case_study.aadl_source
  in
  let phi, total, largest, kinds = shape (analyzed ~mode src) "_order" in
  Alcotest.(check (pair (pair int int) (pair int string)))
    "phi nodes, total and largest clock, variable kinds" 
    (let p, t, l, k = expected in ((p, t), (l, k)))
    ((phi, total), (largest, kinds))

let order_pin_tests =
  List.map
    (fun ((name, _, mode, _) as pin) ->
      Alcotest.test_case
        (Printf.sprintf "order pin, %s: %s"
           (match mode with
            | Trans.System_trans.Embedded -> "embedded"
            | Trans.System_trans.External -> "external")
           name)
        `Quick (test_order_pin pin))
    order_pins

(* Major words one cold analysis allocates, after a full collection so
   that nothing pending from earlier tests is billed to it. A renamed
   kernel misses the memo; its digest is taken outside the count. *)
let major_words kp suffix =
  let kp = renamed kp suffix in
  let digest = K.digest kp in
  Gc.full_major ();
  let _, _, before = Gc.counters () in
  ignore (Sys.opaque_identity (C.analyze ~digest kp));
  let _, _, after = Gc.counters () in
  int_of_float (after -. before)

let test_alloc_gate () =
  let a = analyzed ~mode:Trans.System_trans.Embedded
      Polychrony.Case_study.aadl_source in
  let kernel = major_words a.P.kernel "_alloc" in
  let glue = major_words a.P.glue_kernel "_alloc" in
  Alcotest.(check bool)
    (Printf.sprintf "whole kernel: %d major words <= 60000" kernel)
    true (kernel <= 60_000);
  Alcotest.(check bool)
    (Printf.sprintf "glue: %d major words <= 25000" glue)
    true (glue <= 25_000)

let suite =
  [ ("calculus",
     [ Alcotest.test_case "sync classes" `Quick test_sync_classes;
       Alcotest.test_case "when subclock" `Quick test_when_subclock;
       Alcotest.test_case "complement exclusive" `Quick
         test_when_complement_exclusive;
       Alcotest.test_case "default union" `Quick test_default_union;
       Alcotest.test_case "null clock" `Quick test_null_clock;
       Alcotest.test_case "declared exclusion" `Quick
         test_exclusion_constraint_used;
       Alcotest.test_case "contradiction forces null" `Quick
         test_contradictory_constraints;
       Alcotest.test_case "hierarchy tree" `Quick test_hierarchy_tree;
       Alcotest.test_case "hierarchy forest" `Quick test_hierarchy_forest;
       Alcotest.test_case "class count scales" `Quick test_class_count_scales;
       Alcotest.test_case "fm clock structure" `Quick test_fm_clock_structure;
       Alcotest.test_case "stable representative" `Quick
         test_representative_stable;
       Alcotest.test_case "summary printer" `Quick test_pp_summary_runs;
       Alcotest.test_case "case-study decisions = materialized" `Quick
         test_case_study_materialized;
       QCheck_alcotest.to_alcotest prop_random_materialized;
       Alcotest.test_case "Embedded: 3 replicas scale linearly" `Quick
         (test_replicas_scaling Trans.System_trans.Embedded);
       Alcotest.test_case "External: 3 replicas scale linearly" `Quick
         (test_replicas_scaling Trans.System_trans.External) ]
     @ report_goldens @ order_pin_tests
     @ Alcotest.test_case "one cold analysis: major words" `Quick
         test_alloc_gate
       :: Alcotest.test_case "hierarchy implies gate: 3 replicas" `Quick
         test_hierarchy_implies_gate
       :: hierarchy_oracles) ]
