(* Clock-directed compiler (ref [15]): equivalence with the fixpoint
   interpreter on library processes, random programs, and the full
   translated case study. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Engine = Polysim.Engine
module Compile = Polysim.Compile
module Trace = Polysim.Trace

let vi n = Types.Vint n
let vb b = Types.Vbool b
let ve = Types.Vevent

let traces_equal t1 t2 =
  let names =
    List.map (fun vd -> vd.Ast.var_name) (Trace.declarations t1)
  in
  Trace.length t1 = Trace.length t2
  && List.for_all
       (fun x ->
         List.for_all
           (fun i -> Trace.get t1 i x = Trace.get t2 i x)
           (List.init (Trace.length t1) Fun.id))
       names

(* the compiled counterpart of [Engine.run]: one [run_batched ~n:1]
   call per instant, named stimuli resolved by [set_stim_named] *)
let step_named c stimuli =
  List.fold_left
    (fun r stim ->
      Result.bind r (fun () ->
          Compile.run_batched c ~n:1 ~fill:(fun c _ ->
              List.iter (fun (x, v) -> Compile.set_stim_named c x v) stim)))
    (Ok ()) stimuli

let compiled_run kp ~stimuli =
  Result.bind (Compile.compile kp) (fun c ->
      Result.map (fun () -> Compile.trace c) (step_named c stimuli))

let check_equiv ?(msg = "traces agree") p stimuli =
  let kp = N.process_exn p in
  match Engine.run kp ~stimuli, compiled_run kp ~stimuli with
  | Ok t1, Ok t2 -> Alcotest.(check bool) msg true (traces_equal t1 t2)
  | Error m, _ -> Alcotest.fail ("engine: " ^ m)
  | _, Error m -> Alcotest.fail ("compile: " ^ m)

let test_fm_equiv () =
  let p =
    B.proc ~name:"use_fm"
      ~inputs:[ Ast.var "i" Types.Tint; Ast.var "b" Types.Tbool ]
      ~outputs:[ Ast.var "o" Types.Tint ]
      B.[ inst ~label:"mem" "fm" [ v "i"; v "b" ] [ "o" ] ]
  in
  check_equiv p
    [ [ ("i", vi 1); ("b", vb true) ]; [ ("b", vb true) ]; [ ("i", vi 2) ];
      [ ("i", vi 3); ("b", vb false) ]; [ ("b", vb true) ];
      [ ("i", vi 4); ("b", vb true) ]; [] ]

let test_timer_equiv () =
  let p =
    B.proc ~name:"use_timer"
      ~inputs:[ Ast.var "go" Types.Tevent; Ast.var "halt" Types.Tevent;
                Ast.var "tk" Types.Tevent ]
      ~outputs:[ Ast.var "out" Types.Tevent ]
      B.[ inst ~params:[ vi 2 ] ~label:"tm" "timer"
            [ v "go"; v "halt"; v "tk" ] [ "out" ] ]
  in
  check_equiv p
    [ [ ("go", ve) ]; [ ("tk", ve) ]; [ ("tk", ve) ]; [ ("tk", ve) ];
      [ ("go", ve) ]; [ ("halt", ve) ]; [ ("tk", ve) ] ]

let test_fifo_equiv () =
  let p =
    B.proc ~name:"use_fifo"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "pop" Types.Tevent ]
      ~outputs:[ Ast.var "d" Types.Tint; Ast.var "s" Types.Tint ]
      B.[ inst ~params:[ vi 3; Types.Vstring "dropoldest" ] ~label:"q" "fifo" [ v "x"; v "pop" ]
            [ "d"; "s" ] ]
  in
  check_equiv p
    [ [ ("x", vi 1) ]; [ ("x", vi 2) ]; [ ("pop", ve) ];
      [ ("x", vi 3); ("pop", ve) ]; [ ("x", vi 4) ]; [ ("x", vi 5) ];
      [ ("x", vi 6) ]; (* overflow *)
      [ ("pop", ve) ]; [ ("pop", ve) ]; [ ("pop", ve) ]; [ ("pop", ve) ] ]

let test_in_port_equiv () =
  let p =
    B.proc ~name:"use_inport"
      ~inputs:[ Ast.var "arr" Types.Tint; Ast.var "ft" Types.Tevent ]
      ~outputs:[ Ast.var "frz" Types.Tint; Ast.var "cnt" Types.Tint ]
      B.[ inst ~params:[ vi 4; Types.Vstring "dropoldest" ] ~label:"port" "in_event_port"
            [ v "arr"; v "ft" ] [ "frz"; "cnt" ] ]
  in
  check_equiv p
    [ [ ("arr", vi 1) ]; [ ("ft", ve) ]; [ ("arr", vi 2) ];
      [ ("arr", vi 3) ]; [ ("arr", vi 9); ("ft", ve) ]; [ ("ft", ve) ];
      [ ("ft", ve) ] ]

let test_out_port_equiv () =
  let p =
    B.proc ~name:"use_outport"
      ~inputs:[ Ast.var "item" Types.Tint; Ast.var "ot" Types.Tevent ]
      ~outputs:[ Ast.var "sent" Types.Tint ]
      B.[ inst ~params:[ vi 4; Types.Vstring "dropoldest" ] ~label:"port" "out_event_port"
            [ v "item"; v "ot" ] [ "sent" ] ]
  in
  check_equiv p
    [ [ ("item", vi 1) ]; [ ("item", vi 2) ]; [ ("ot", ve) ]; [ ("ot", ve) ];
      [ ("item", vi 3); ("ot", ve) ]; [ ("ot", ve) ] ]

let test_cycle_rejected () =
  let p =
    B.proc ~name:"cyclic"
      ~inputs:[ Ast.var "x" Types.Tint ]
      ~outputs:[ Ast.var "y" Types.Tint ]
      ~locals:[ Ast.var "w" Types.Tint ]
      B.[ "y" := v "w" + v "x"; "w" := v "y" + i 1 ]
  in
  let kp = N.process_exn p in
  match Compile.compile kp with
  | Ok _ -> Alcotest.fail "instantaneous cycle must not compile"
  | Error m ->
    Alcotest.(check bool) "mentions cycle" true
      (String.length m > 0)

let test_case_study_equiv () =
  List.iter
    (fun registry ->
      let a =
        match
          Polychrony.Pipeline.analyze ~registry
            Polychrony.Case_study.aadl_source
        with
        | Ok a -> a
        | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
      in
      let kp = a.Polychrony.Pipeline.kernel in
      let horizon = 48 in
      let stimuli =
        List.init horizon (fun t ->
            ("tick", ve) :: (if t = 0 then [ ("env_pGo", vi 1) ] else []))
      in
      match Engine.run kp ~stimuli, compiled_run kp ~stimuli with
      | Ok t1, Ok t2 ->
        Alcotest.(check bool) "case study traces identical" true
          (traces_equal t1 t2)
      | Error m, _ -> Alcotest.fail ("engine: " ^ m)
      | _, Error m -> Alcotest.fail ("compile: " ^ m))
    [ Polychrony.Case_study.registry_nominal;
      Polychrony.Case_study.registry_timeout ]

let test_case_study_plan_properties () =
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  match Compile.compile a.Polychrony.Pipeline.kernel with
  | Error m -> Alcotest.fail m
  | Ok c ->
    (* the translated system is endochronous: nothing is left free *)
    Alcotest.(check int) "no free classes" 0 (Compile.free_classes c);
    Alcotest.(check bool) "plan covers classes and signals" true
      (Compile.plan_length c
       > List.length (Signal_lang.Kernel.signals a.Polychrony.Pipeline.kernel))

(* a name index is sized by its own signals: the signal table and the
   trace header of a ten-signal kernel stay small after the process has
   built both for thousands of other names *)
let test_name_index_own_size () =
  let module K = Signal_lang.Kernel in
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let kp = a.Polychrony.Pipeline.kernel in
  let rename k =
    List.map (fun vd ->
        let name = Printf.sprintf "%s__copy%d" vd.Ast.var_name k in
        { vd with Ast.var_name = name })
  in
  let copies = 8 in
  for k = 1 to copies do
    let kp' =
      { kp with
        K.kinputs = rename k kp.K.kinputs;
        koutputs = rename k kp.K.koutputs;
        klocals = rename k kp.K.klocals }
    in
    ignore (Sys.opaque_identity (K.sigtab kp'));
    ignore (Sys.opaque_identity (Trace.header (K.signals kp')))
  done;
  Alcotest.(check bool) "about 5000 names seen" true
    (copies * K.signal_count kp >= 5000);
  let own = 10 in
  let small =
    { kp with
      K.kinputs =
        List.filteri (fun i _ -> i < own) (K.signals kp)
        |> List.mapi (fun i vd ->
               let name = Printf.sprintf "name_index_small_%d" i in
               { vd with Ast.var_name = name });
      koutputs = []; klocals = [] }
  in
  let words_per_signal v = Obj.reachable_words (Obj.repr v) / own in
  let tab = K.sigtab small and h = Trace.header (K.signals small) in
  Alcotest.(check int) "own signals" own (K.st_count tab);
  Alcotest.(check (option int)) "lookup" (Some 3)
    (K.st_index_opt tab "name_index_small_3");
  (* both measure 17 words per own signal; a table sized by every name
     the process has seen reads about a thousand here *)
  List.iter
    (fun (what, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d words per own signal <= 40" what words)
        true (words <= 40))
    [ ("sigtab", words_per_signal tab); ("trace header", words_per_signal h) ]

(* each name index answers exactly its own declarations: every
   declared name maps to its declaration index, and a name declared
   only by the other scheduler mode's kernel, or by none, is absent *)
let mode_kernels () =
  List.map
    (fun mode ->
      match
        Polychrony.Pipeline.analyze
          ~registry:Polychrony.Case_study.registry_nominal ~mode
          Polychrony.Case_study.aadl_source
      with
      | Ok a -> a.Polychrony.Pipeline.kernel
      | Error m -> Alcotest.fail (Putil.Diag.list_to_string m))
    [ Trans.System_trans.Embedded; Trans.System_trans.External ]

let foreign_names kp other =
  let module K = Signal_lang.Kernel in
  let own = List.map (fun vd -> vd.Ast.var_name) (K.signals kp) in
  "name_index_undeclared"
  :: List.filter_map
       (fun vd ->
         if List.mem vd.Ast.var_name own then None
         else Some vd.Ast.var_name)
       (K.signals other)

let test_sigtab_own_names () =
  let module K = Signal_lang.Kernel in
  let kps = mode_kernels () in
  List.iter
    (fun (kp, other) ->
      let tab = K.sigtab kp in
      Alcotest.(check int) "count" (K.signal_count kp) (K.st_count tab);
      List.iteri
        (fun i vd ->
          Alcotest.(check string) "name" vd.Ast.var_name (K.st_name tab i);
          Alcotest.(check string) "decl" vd.Ast.var_name
            (K.st_decl tab i).Ast.var_name;
          Alcotest.(check (option int)) ("index of " ^ vd.Ast.var_name)
            (Some i) (K.st_index_opt tab vd.Ast.var_name))
        (K.signals kp);
      List.iter
        (fun x ->
          Alcotest.(check (option int)) ("absent " ^ x) None
            (K.st_index_opt tab x))
        (foreign_names kp other))
    (List.combine kps (List.rev kps));
  (* the embedded kernel's scheduler signals are foreign to the
     external one *)
  match kps with
  | [ embedded; external_ ] ->
    Alcotest.(check bool) "foreign names to look up" true
      (List.length (foreign_names external_ embedded) > 1)
  | _ -> assert false

let test_trace_header_own_names () =
  let module K = Signal_lang.Kernel in
  let kps = mode_kernels () in
  List.iter
    (fun (kp, other) ->
      let t = Trace.of_header (Trace.header (K.signals kp)) in
      Alcotest.(check (list string)) "declarations"
        (List.map (fun vd -> vd.Ast.var_name) (K.signals kp))
        (List.map (fun vd -> vd.Ast.var_name) (Trace.declarations t));
      List.iteri
        (fun i vd ->
          Alcotest.(check string) "name_of" vd.Ast.var_name
            (Trace.name_of t i);
          Alcotest.(check (option int)) ("index_of " ^ vd.Ast.var_name)
            (Some i) (Trace.index_of t vd.Ast.var_name))
        (K.signals kp);
      List.iter
        (fun x ->
          Alcotest.(check (option int)) ("absent " ^ x) None
            (Trace.index_of t x))
        (foreign_names kp other))
    (List.combine kps (List.rev kps))

(* ---------------- random-program equivalence ---------------------- *)

(* Build random acyclic, clock-consistent programs over two
   always-present inputs. Every signal carries a clock tag; synchronous
   operators (arith, boolean, if, delay) only combine signals of one
   tag, while when/default appear at definition level and mint new
   tags. This mirrors how the translator emits code and guarantees the
   interpreter never hits a clock contradiction. *)

type rsig = { rname : string; rtype : [ `I | `B ]; rtag : int }

let gen_program =
  let open QCheck2.Gen in
  (* expression synchronous with a given tag *)
  let rec gen_sync env tag depth ty =
    let candidates =
      List.filter (fun s -> s.rtype = ty && s.rtag = tag) env
    in
    let atoms =
      List.map (fun s -> return (B.v s.rname)) candidates
      @ (if candidates = [] then []
         else
           match ty with
           | `I -> [ map B.i (int_range (-5) 5) ]
           | `B -> [ map B.b bool ])
    in
    if atoms = [] then
      (* no signal of this type at this tag: fall back to a variable of
         the right tag and adapt *)
      let same_tag = List.filter (fun sg -> sg.rtag = tag) env in
      match same_tag with
      | [] -> assert false
      | sg :: _ ->
        let name = sg.rname in
        (match ty, sg.rtype with
         | `I, `B -> return B.(if_ (v name) (i 1) (i 0))
         | `B, `I -> return B.(v name < i 0)
         | _ -> return (B.v name))
    else if depth = 0 then oneof atoms
    else
      let sub = gen_sync env tag (depth - 1) in
      let compound =
        match ty with
        | `I ->
          [ map2 (fun e1 e2 -> B.(e1 + e2)) (sub `I) (sub `I);
            map2 (fun e1 e2 -> B.(e1 * e2)) (sub `I) (sub `I);
            map3 (fun e0 e1 e2 -> B.if_ e0 e1 e2) (sub `B) (sub `I) (sub `I);
            map (fun e1 -> B.delay ~init:(vi 0) e1) (sub `I) ]
        | `B ->
          [ map2 (fun e1 e2 -> B.(e1 && e2)) (sub `B) (sub `B);
            map2 (fun e1 e2 -> B.(e1 || e2)) (sub `B) (sub `B);
            map B.not_ (sub `B);
            map2 (fun e1 e2 -> B.(e1 < e2)) (sub `I) (sub `I);
            map (fun e1 -> B.delay ~init:(vb false) e1) (sub `B) ]
      in
      oneof (compound @ atoms)
  in
  let base =
    [ { rname = "x"; rtype = `I; rtag = 0 };
      { rname = "c"; rtype = `B; rtag = 0 } ]
  in
  let tags env = List.sort_uniq compare (List.map (fun s -> s.rtag) env) in
  let pick_tag env = QCheck2.Gen.oneofl (tags env) in
  let gen_def env fresh_tag =
    let* choice = int_range 0 9 in
    if choice < 6 then
      (* synchronous definition at an existing tag *)
      let* tag = pick_tag env in
      let* ty = oneofl [ `I; `B ] in
      let* e = gen_sync env tag 2 ty in
      return (ty, tag, e, fresh_tag)
    else if choice < 8 then
      (* subsampling: src when cond, new tag *)
      let* src_tag = pick_tag env in
      let* cond_tag = pick_tag env in
      let* ty = oneofl [ `I; `B ] in
      let* src = gen_sync env src_tag 1 ty in
      let* cond = gen_sync env cond_tag 1 `B in
      return (ty, fresh_tag, B.when_ src cond, fresh_tag + 1)
    else
      (* merge: a default b, new tag *)
      let* t1 = pick_tag env in
      let* t2 = pick_tag env in
      let* ty = oneofl [ `I; `B ] in
      let* e1 = gen_sync env t1 1 ty in
      let* e2 = gen_sync env t2 1 ty in
      return (ty, fresh_tag, B.default e1 e2, fresh_tag + 1)
  in
  let rec gen_locals k env fresh_tag acc =
    if k = 0 then return (List.rev acc, env)
    else
      let* ty, tag, e, fresh_tag = gen_def env fresh_tag in
      let name = Printf.sprintf "s%d" (List.length acc) in
      gen_locals (k - 1)
        ({ rname = name; rtype = ty; rtag = tag } :: env)
        fresh_tag ((name, ty, e) :: acc)
  in
  let* n = int_range 1 6 in
  let* locals, env = gen_locals n base 1 [] in
  let last = List.hd env in
  let out_ty = last.rtype in
  let decls =
    List.map
      (fun (name, ty, _) ->
        Ast.var name (match ty with `I -> Types.Tint | `B -> Types.Tbool))
      locals
  in
  let body =
    List.map (fun (name, _, e) -> B.(name := e)) locals
    @ [ B.("out" := v last.rname) ]
  in
  return
    (B.proc ~name:"rand"
       ~inputs:[ Ast.var "x" Types.Tint; Ast.var "c" Types.Tbool ]
       ~outputs:
         [ Ast.var "out"
             (match out_ty with `I -> Types.Tint | `B -> Types.Tbool) ]
       ~locals:decls body)

let gen_stimuli =
  QCheck2.Gen.(
    list_size (return 16)
      (pair (int_range (-4) 4) bool))

let prop_random_equivalence =
  QCheck2.Test.make ~name:"compiled = interpreted on random programs"
    ~count:300
    QCheck2.Gen.(pair gen_program gen_stimuli)
    (fun (p, stims) ->
      match N.process p with
      | Error _ -> true  (* ill-typed generation is skipped *)
      | Ok kp ->
        let stimuli =
          List.map (fun (n, b) -> [ ("x", vi n); ("c", vb b) ]) stims
        in
        (match Engine.run kp ~stimuli, compiled_run kp ~stimuli with
         | Ok t1, Ok t2 ->
           let ok = traces_equal t1 t2 in
           if not ok then
             Format.eprintf "@.MISMATCH on:@.%a@."
               Signal_lang.Pp.pp_process p;
           ok
         | Error _, Error _ -> true
         | Ok _, Error m ->
           (* the compiler may reject cyclic-looking programs the
              interpreter handles; only accept that specific refusal *)
           String.length m > 0
           && (let needle = "cycle" in
               let nh = String.length m and nn = String.length needle in
               let rec go i =
                 i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
               in
               go 0)
         | Error m, Ok _ ->
           Format.eprintf "@.ENGINE-ONLY failure (%s) on:@.%a@." m
             Signal_lang.Pp.pp_process p;
           false))

(* [compile] memoizes the plan and returns fresh instances: stepping
   one instance must never leak into another, and the memoized path
   must behave exactly like a cold compilation *)
let test_memoized_instances_independent () =
  let p =
    B.proc ~name:"use_counter_memo"
      ~inputs:[ Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "n" Types.Tint ]
      B.[ inst ~label:"c" "counter" [ v "e" ] [ "n" ] ]
  in
  let kp = N.process_exn p in
  let c1 = Result.get_ok (Compile.compile kp) in
  let c2 = Result.get_ok (Compile.compile kp) in
  let kb = Compile.keybuf () in
  let d0 = Compile.state_key c2 kb in
  let step c =
    match step_named c [ [ ("e", ve) ] ] with
    | Ok () -> List.assoc_opt "n" (Compile.present_assoc c)
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "c1 counts 1" true (step c1 = Some (vi 1));
  Alcotest.(check bool) "c1 counts 2" true (step c1 = Some (vi 2));
  Alcotest.(check string) "c2 state untouched by c1" d0
    (Compile.state_key c2 kb);
  Alcotest.(check bool) "c2 starts fresh" true (step c2 = Some (vi 1));
  Alcotest.(check bool) "c1 keeps its own count" true (step c1 = Some (vi 3));
  (* the uncached path agrees with the memoized one *)
  let c3 = Result.get_ok (Compile.compile_uncached kp) in
  Alcotest.(check bool) "cold compile agrees" true (step c3 = Some (vi 1))

(* ---------------- the clock DAG against the calculus ---------------- *)

(* The plan lowers every derived clock into one shared DAG, and the
   step, the C backend and the symbolic engine all read it. Walk the
   DAG the plan exposes from each derived class's root under seeded
   random assignments of the clock variables: it must equal
   [Bdd.eval] of the class's clock in the calculus. A variable gets
   one random value per round, keyed by what the calculus says it
   means, so the walk and the BDD read the same assignment. *)
let test_dag_oracle ?file mode () =
  let module P = Polychrony.Pipeline in
  let module Calc = Clocks.Calculus in
  let src =
    match file with
    | Some f -> Test_data.read f
    | None -> Polychrony.Case_study.aadl_source
  in
  let a =
    match
      P.analyze ~registry:Polychrony.Case_study.registry_nominal ~mode src
    with
    | Ok a -> a
    | Error ds -> Alcotest.fail (Putil.Diag.list_to_string ds)
  in
  let calc = Lazy.force a.P.calc in
  let sv =
    match Compile.compile ~digest:a.P.kernel_digest a.P.kernel with
    | Ok c -> Compile.sym_view c
    | Error m -> Alcotest.fail m
  in
  let names = sv.Compile.sv_prog.Polysim.Prog.names in
  let dag = sv.Compile.sv_dag in
  let rng = Random.State.make [| 22 |] in
  let derived = ref 0 and mismatches = ref [] in
  for _ = 1 to 256 do
    let drawn = Hashtbl.create 64 in
    let value key =
      match Hashtbl.find_opt drawn key with
      | Some b -> b
      | None ->
        let b = Random.State.bool rng in
        Hashtbl.add drawn key b;
        b
    in
    let env v =
      match Calc.var_kind calc v with
      | Some (`Present c) -> value (`P c)
      | Some (`Cond x) -> value (`C x)
      | Some (`CondEq (x, k)) -> value (`E (x, k))
      | None -> false
    in
    let holds = function
      | Compile.Rpresent c -> value (`P c)
      | Compile.Rcond i -> value (`C names.(i))
      | Compile.Rcondeq (i, k) -> value (`E (names.(i), k))
    in
    let rec walk k =
      if k < 2 then k = 1
      else
        let r, hi, lo = Compile.dag_node dag k in
        walk (if holds r then hi else lo)
    in
    Array.iteri
      (fun cls -> function
        | Compile.Pderived root ->
          incr derived;
          let expected =
            Calc.with_query_lock calc (fun () ->
                Clocks.Bdd.eval (Calc.manager calc) env
                  (Calc.clock_of_class_id calc cls))
          in
          if walk root <> expected then mismatches := cls :: !mismatches
        | Compile.Pinput _ | Compile.Pprim _ | Compile.Palias _
        | Compile.Pfree -> ())
      sv.Compile.sv_pdefs
  done;
  Alcotest.(check bool) "some class is derived" true (!derived > 0);
  Alcotest.(check (list int)) "classes whose DAG walk differs" []
    (List.sort_uniq compare !mismatches)

let dag_oracles =
  List.concat_map
    (fun (name, file) ->
      List.map
        (fun (mode, m) ->
          Alcotest.test_case
            (Printf.sprintf "clock DAG = Bdd.eval, %s: %s" m name)
            `Quick (test_dag_oracle ?file mode))
        [ (Trans.System_trans.Embedded, "embedded");
          (Trans.System_trans.External, "external") ])
    [ ("case_study", None);
      ("producer_consumer", Some "../examples/producer_consumer.aadl");
      ("prodcons_replicas3", Some "../examples/prodcons_replicas3.aadl") ]

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_random_equivalence ]

(* [i] is synchronous with [y], sampled off [a] when [c]: the calculus
   derives [i]'s clock, and a stimulus of [i] that disagrees with it
   (present when [c] is false, absent when it is true) is rejected by
   the compiled step at the instant the interpreter rejects it *)
let test_input_against_derived_clock () =
  let p =
    B.proc ~name:"derived_input" ~locals:[ Ast.var "y" Types.Tint ]
      ~inputs:[ Ast.var "a" Types.Tint; Ast.var "c" Types.Tbool;
                Ast.var "i" Types.Tint ]
      ~outputs:[ Ast.var "z" Types.Tint ]
      B.[ "y" := when_ (v "a") (v "c"); "z" := v "i" + v "y" ]
  in
  let kp = N.process_exn p in
  let failing_instant = function
    | Ok _ -> None
    | Error m -> Scanf.sscanf_opt m "instant %d:" Fun.id
  in
  List.iter
    (fun (name, stimuli, expected) ->
      Alcotest.(check (option int)) (name ^ ": interpreter") expected
        (failing_instant (Engine.run kp ~stimuli));
      Alcotest.(check (option int)) (name ^ ": compiled") expected
        (failing_instant (compiled_run kp ~stimuli)))
    [ ("agreeing",
       [ [ ("a", vi 1); ("c", vb true); ("i", vi 5) ];
         [ ("a", vi 2); ("c", vb false) ]; [] ],
       None);
      ("present against the clock",
       [ [ ("a", vi 1); ("c", vb true); ("i", vi 5) ];
         [ ("a", vi 1); ("c", vb false); ("i", vi 5) ] ],
       Some 1);
      ("absent against the clock",
       [ [ ("a", vi 1); ("c", vb true) ] ],
       Some 0) ]

let suite =
  [ ("compile",
     [ Alcotest.test_case "fm equivalence" `Quick test_fm_equiv;
       Alcotest.test_case "timer equivalence" `Quick test_timer_equiv;
       Alcotest.test_case "fifo equivalence" `Quick test_fifo_equiv;
       Alcotest.test_case "in port equivalence" `Quick test_in_port_equiv;
       Alcotest.test_case "out port equivalence" `Quick test_out_port_equiv;
       Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
       Alcotest.test_case "input against its derived clock" `Quick
         test_input_against_derived_clock;
       Alcotest.test_case "case study equivalence" `Quick
         test_case_study_equiv;
       Alcotest.test_case "case study plan" `Quick
         test_case_study_plan_properties;
       Alcotest.test_case "name index sized by its own signals" `Quick
         test_name_index_own_size;
       Alcotest.test_case "sigtab indexes its own names" `Quick
         test_sigtab_own_names;
       Alcotest.test_case "trace header indexes its own names" `Quick
         test_trace_header_own_names;
       Alcotest.test_case "memoized instances independent" `Quick
         test_memoized_instances_independent ]
     @ dag_oracles @ qsuite) ]

