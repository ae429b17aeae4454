module Ast = Signal_lang.Ast
module Types = Signal_lang.Types
module K = Signal_lang.Kernel

(* Per-model analysis unit: everything the merged verdicts need from
   one model, in the model's own namespace (pure data — persistable).
   The interface summary fields abstract the model for the glue
   analysis: relations among interface signals provable from the model
   alone (sound under composition, which only adds constraints). *)
type proc_analysis = {
  pa_model : string;
  pa_consistent : bool;
  pa_conflicts : string list;
  pa_null : string list;
  pa_determinism : Analysis.Determinism.report;
  pa_deadlock : Analysis.Deadlock.report;
  pa_iface_eq : (string * string) list;   (* synchronous pairs *)
  pa_iface_le : (string * string) list;   (* subclock pairs *)
  pa_iface_ex : (string * string) list;   (* exclusive pairs *)
  pa_iface_null : string list;            (* provably never present *)
  pa_iface_dep : (string * string) list;  (* instantaneous in → out *)
}

type glue_analysis = {
  ga_consistent : bool;
  ga_conflicts : string list;
  ga_null : string list;
  ga_determinism : Analysis.Determinism.report;
  ga_deadlock : Analysis.Deadlock.report;
}

type analyzed = {
  package : Aadl.Syntax.package;
  aadl_issues : Aadl.Check.issue list;
  instance : Aadl.Instance.t;
  translation : Trans.System_trans.output;
  kernel : K.kprocess;
  kernel_digest : string;
  glue_kernel : K.kprocess;
  links : Signal_lang.Normalize.link list;
  proc_analyses : (string * proc_analysis) list;
  glue : glue_analysis;
  calc : Clocks.Calculus.t Lazy.t;
  hierarchy : Clocks.Hierarchy.t Lazy.t;
  determinism : Analysis.Determinism.report;
  deadlock : Analysis.Deadlock.report;
  typecheck_errors : Signal_lang.Typecheck.error list;
  diags : Putil.Diag.t list;
  scope : string option;
      (* the session's observation-scope label, when analyzed through a
         session: simulate/verify re-enter the same scope *)
}

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                                *)
(* ------------------------------------------------------------------ *)

(* Each stage of [analyze] is a total function of its input, so a
   session caches every stage output under a content digest of that
   input. Re-analyzing edited source reruns only the prefix whose
   digests changed: the parse, instance and translate stages key on
   the source text, but the expensive back half — typecheck,
   normalization, clock calculus and the boolean analyses — keys on
   the digests of the {e generated program}'s processes (resp. the
   kernel). With the scheduler-exogenous
   translation mode ({!Trans.System_trans.External}) a timing-only
   edit leaves the generated program byte-identical, so editing one
   thread's period reruns parse/instantiate/translate and skips
   everything downstream. The [incr.<stage>.ran] / [.skipped] metrics
   count the traffic.

   Every front-end stage, the typecheck stage and every per-process
   unit is a {!Putil.Memo} entry under its name (latest run wins): the
   session serves the edit-recheck loop, not a multi-model build
   system. The normalize and analyses stages keep a window of up to
   [window] programs instead (the key is the name), so an edit loop
   that toggles between two behaviours replays them from memory
   rather than from the store. The whole-stage memos short-circuit the
   unchanged-program case in one digest comparison, so per-process
   traffic only happens when the generated program actually changed.
   The behaviour [registry] is assumed stable across one session
   (closures cannot be digested). *)

module Memo = Putil.Memo

(* The model kernels are not in the value: the [kernels] unit memo
   (and its store) holds them, and only an analyses miss needs them. *)
type normalized = {
  n_kernel : K.kprocess;  (* fully linked top kernel *)
  n_glue : K.kprocess;
  n_links : Signal_lang.Normalize.link list;
  n_units : int;  (* model kernels linked in *)
  n_static_total : int;  (* the static-cost profile's two gauges *)
  n_static_signals : int;
  n_kdigest : string;  (* [K.digest n_kernel], computed once *)
}

type analyses = {
  a_procs : (string * proc_analysis) list;
  a_glue : glue_analysis;
  a_determinism : Analysis.Determinism.report;
  a_deadlock : Analysis.Deadlock.report;
  a_diags : Putil.Diag.t list;
}

type memos = {
  parse : (Aadl.Syntax.package * Aadl.Check.issue list) list Memo.t;
      (* each package with its legality issues *)
  instance : Aadl.Instance.t Memo.t;
  translate : (Trans.System_trans.output * Putil.Diag.t list) Memo.t;
  typecheck : Signal_lang.Typecheck.error list list Memo.t;
      (* each process's type errors, in program order *)
  tc_procs : Signal_lang.Typecheck.error list Memo.t;
  normalize : normalized Memo.t;
  kernels : K.kprocess option Memo.t;
      (* [None] records a model normalization failure: the linker falls
         back to inlining that model, reproducing the original error *)
  analyses : analyses Memo.t;
  panas : proc_analysis Memo.t;
  glue : glue_analysis Memo.t;
}

(* The store tags are part of the on-disk format: existing [.pcache]
   directories keep hitting only while they stay byte-identical.
   Instantiate and translate have no tag: their values are plain data,
   but perfbench's edit-session pins their traffic (one run on every
   reopen and every new source), so storing them waits for a benchmark
   change. A tag names its value type: [stage.parse] entries held the
   bare packages and [stage.parse.checked] ones packages without their
   shape digest ([pkg_shape]); neither may be read as the current
   value, shaped packages paired with their issues. Likewise
   [stage.normalize] entries carried the model kernels and the whole
   profile; [stage.normalize.lean] ones carry neither. And
   [stage.typecheck] and [typecheck.proc] entries paired the errors
   with typed trees; [stage.typecheck.errors] and
   [typecheck.proc.errors] ones hold the errors alone. *)

(* The normalize and analyses windows hold two programs: an edit loop
   that toggles one behaviour (perfbench's edit-session) cycles
   through exactly two. A full window is reset, like every capped
   memo. *)
let window = 2

let memos store =
  let tagged tag = Option.map (fun s -> (s, tag)) store in
  (* name-keyed, so at most one entry per stage or process *)
  let memo stage level store = Memo.create ~stage level ~cap:max_int ~store in
  (* content-keyed: at most [window] values of the stage *)
  let windowed name tag units =
    Memo.create ~stage:name (Memo.Stage (Some units)) ~cap:window
      ~store:(tagged tag)
  in
  { parse = memo "parse" (Memo.Stage None) (tagged "stage.parse.shaped");
    instance = memo "instantiate" (Memo.Stage None) None;
    translate = memo "translate" (Memo.Stage None) None;
    typecheck =
      memo "typecheck" (Memo.Stage (Some List.length))
        (tagged "stage.typecheck.errors");
    tc_procs = memo "typecheck" Memo.Unit (tagged "typecheck.proc.errors");
    normalize =
      windowed "normalize" "stage.normalize.lean" (fun n -> n.n_units);
    kernels = memo "normalize" Memo.Unit (tagged "normalize.proc");
    analyses =
      windowed "analyses" "stage.analyses" (fun an ->
          List.length an.a_procs + 1 (* glue *));
    panas = memo "analyses" Memo.Unit (tagged "analysis.proc");
    glue = memo "analyses" Memo.Unit (tagged "analysis.glue") }

type session = {
  s_label : string; (* observation-scope label: one scope per session *)
  s_memos : memos;
}

let session_seq = Atomic.make 0

let new_session ?label ?store () =
  let label =
    match label with
    | Some l -> l
    | None ->
      Printf.sprintf "session-%d" (1 + Atomic.fetch_and_add session_seq 1)
  in
  { s_label = label; s_memos = memos store }

(* without a session every stage runs: fresh memos hold nothing a
   later run can see *)
let memos_of session =
  match session with Some s -> s.s_memos | None -> memos None

let session_label s = s.s_label

(* every stage of a session runs inside the session's observation
   scope, so concurrent sessions attribute their metrics and trace
   spans per-scope (the global registry stays the roll-up) *)
let in_session_scope session f =
  match session with
  | Some s -> Putil.Obs.with_scope ~label:s.s_label f
  | None -> f ()

let in_analyzed_scope a f =
  match a.scope with
  | Some l -> Putil.Obs.with_scope ~label:l f
  | None -> f ()

(* Trust boundary: stage keys are Marshal digests of pure data. A
   closure smuggled into a key would marshal the code pointer — or
   worse, appear digest-stable across semantically different runs — so
   it is rejected loudly instead. Registries of behaviour closures
   carry a stable string id ({!Trans.Behavior.id}) that is folded into
   the key in their place. *)
let digest_of v =
  match Marshal.to_string v [ Marshal.No_sharing ] with
  | s -> Digest.to_hex (Digest.string s)
  | exception Invalid_argument _ ->
    invalid_arg
      "Pipeline.digest_of: value contains a closure (functional value); \
       stage keys must be pure data — fold a stable id into the key \
       instead (see Trans.Behavior.make)"

(* Stable codes for the defects detected by the pipeline itself. *)
let code_root =
  Putil.Diag.code "CORE-ROOT-001"
    "cannot determine a root system implementation"
let code_sim = Putil.Diag.code "SIM-001" "simulation step failed"
let code_compile =
  Putil.Diag.code "COMPILE-001"
    "clock-directed compilation failed"

let span_of_loc ?file (l : Aadl.Syntax.loc) =
  if l.Aadl.Syntax.l_line > 0 then
    Some
      (Putil.Diag.span ?file ~line:l.Aadl.Syntax.l_line
         ~col:l.Aadl.Syntax.l_col ())
  else None

(* Declaration position of [signal] inside the process named
   [proc_name], when the generated code recorded one (ports carry the
   source position of the AADL feature they translate). *)
let find_var_loc program proc_name signal =
  let rec in_proc p =
    if String.equal p.Ast.proc_name proc_name then
      let all =
        p.Ast.params @ p.Ast.inputs @ p.Ast.outputs @ p.Ast.locals
      in
      match
        List.find_opt
          (fun vd -> String.equal vd.Ast.var_name signal)
          all
      with
      | Some vd -> Ast.mark_span vd.Ast.var_mark
      | None -> None
    else List.find_map in_proc p.Ast.subprocesses
  in
  List.find_map in_proc program.Ast.processes

(* A SIGNAL type error as a located diagnostic: the span is the
   declaration that produced the offending signal; the related entry
   points back at the AADL component the process was generated for,
   via the traceability table. *)
let diag_of_type_error ?file ~translation ~instance
    (e : Signal_lang.Typecheck.error) =
  let program = translation.Trans.System_trans.program in
  let span =
    match e.Signal_lang.Typecheck.err_signal with
    | Some signal -> (
      match
        find_var_loc program e.Signal_lang.Typecheck.err_proc signal
      with
      | Some sp -> (
        match file with
        | Some f -> Some (Putil.Diag.with_file f sp)
        | None -> Some sp)
      | None -> None)
    | None -> None
  in
  let related =
    match
      Trans.Traceability.aadl_of translation.Trans.System_trans.trace
        e.Signal_lang.Typecheck.err_proc
    with
    | Some path ->
      let rel_span =
        match Aadl.Instance.find instance path with
        | Some i -> span_of_loc ?file i.Aadl.Instance.i_loc
        | None -> None
      in
      [ { Putil.Diag.rel_message =
            "in the SIGNAL model generated for " ^ path;
          rel_span } ]
    | None -> []
  in
  Putil.Diag.errorf ?span ~related ~code:e.Signal_lang.Typecheck.err_code
    "process %s: %s" e.Signal_lang.Typecheck.err_proc
    e.Signal_lang.Typecheck.err_msg

let ( let* ) = Result.bind

(* Static-cost totals ride in the metrics registry so [--stats]
   (text and JSON) reports them alongside the runtime counters. *)
let m_profile_total = Putil.Metrics.gauge "profiling.total_static"
let m_profile_signals = Putil.Metrics.gauge "profiling.signals"

let default_root pkgs =
  let impls =
    List.concat_map
      (fun pkg ->
        List.filter_map
          (function
            | Aadl.Syntax.Dimpl ci
              when ci.Aadl.Syntax.ci_category = Aadl.Syntax.System ->
              Some (pkg, ci.Aadl.Syntax.ci_name)
            | Aadl.Syntax.Dimpl _ | Aadl.Syntax.Dtype _ -> None)
          pkg.Aadl.Syntax.pkg_decls)
      pkgs
  in
  (* prefer an implementation that is not a subcomponent of another *)
  let used_as_sub name =
    List.exists
      (fun pkg ->
        List.exists
          (function
            | Aadl.Syntax.Dimpl ci ->
              List.exists
                (fun sc -> sc.Aadl.Syntax.sc_classifier = Some name)
                ci.Aadl.Syntax.ci_subcomponents
            | Aadl.Syntax.Dtype _ -> false)
          pkg.Aadl.Syntax.pkg_decls)
      pkgs
  in
  match List.filter (fun (_, n) -> not (used_as_sub n)) impls with
  | [ one ] -> Ok one
  | [] -> (
    match impls with
    | [ one ] -> Ok one
    | _ -> Error "cannot determine a root system implementation")
  | _ :: _ :: _ ->
    Error "several candidate root systems; pass ~root explicitly"

(* ------------------------------------------------------------------ *)
(* Per-process analysis units                                          *)
(* ------------------------------------------------------------------ *)

(* Interface skeleton of a process: what other processes' typecheck
   and normalization can observe of it. Keying per-process units on
   (own digest × interface environment) means a body edit in one
   process leaves every other process's key unchanged. *)
let iface_of p =
  let sig_of vd = (vd.Ast.var_name, vd.Ast.var_type) in
  ( p.Ast.proc_name,
    List.map sig_of p.Ast.params,
    List.map sig_of p.Ast.inputs,
    List.map sig_of p.Ast.outputs,
    p.Ast.pragmas )

(* Program processes referenced (transitively) from [p] via instance
   statements — the normalization dependency closure. Thread models
   only reference the built-in library, so their closure is empty. *)
let dep_closure program p =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun q -> Hashtbl.replace by_name q.Ast.proc_name q)
    program.Ast.processes;
  let seen = Hashtbl.create 16 in
  let rec names_of acc p =
    let rec of_stmt acc s =
      match Ast.desc s with Ast.Sinstance i -> i.Ast.inst_proc :: acc | _ -> acc
    and of_proc acc p =
      let acc = List.fold_left of_stmt acc p.Ast.body in
      List.fold_left of_proc acc p.Ast.subprocesses
    in
    let refs = of_proc [] p in
    List.fold_left
      (fun acc n ->
        if Hashtbl.mem seen n then acc
        else begin
          Hashtbl.replace seen n ();
          match Hashtbl.find_opt by_name n with
          | Some q -> names_of (n :: acc) q
          | None -> acc
        end)
      acc refs
  in
  let deps = List.sort_uniq compare (names_of [] p) in
  List.filter_map (fun n -> Hashtbl.find_opt by_name n) deps

(* [proc_digest] answers with the translation's per-process
   digests, so no process is marshalled again here *)
let model_key program proc_digest m =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map proc_digest (m :: dep_closure program m))))

(* Analyze one model kernel standalone (inputs free) and summarize its
   interface for the glue analysis. Everything asserted about the
   interface is provable from the model alone, hence sound under any
   composition (composition only adds constraints). *)
let proc_analysis_of ?digest km =
  let calc = Clocks.Calculus.analyze ?digest km in
  let det = Analysis.Determinism.analyze calc km in
  let dl = Analysis.Deadlock.analyze ~calc km in
  let nulls = Clocks.Calculus.null_signals calc in
  let iface =
    List.map (fun vd -> vd.Ast.var_name) (km.K.kinputs @ km.K.koutputs)
  in
  let eq = ref [] and le = ref [] and ex = ref [] in
  let rec pairs = function
    | [] | [ _ ] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if Clocks.Calculus.same_class calc a b then eq := (a, b) :: !eq
          else begin
            if Clocks.Calculus.subclock calc a b then le := (a, b) :: !le;
            if Clocks.Calculus.subclock calc b a then le := (b, a) :: !le;
            if Clocks.Calculus.exclusive calc a b then ex := (a, b) :: !ex
          end)
        rest;
      pairs rest
  in
  pairs iface;
  let graph = Analysis.Deadlock.dependency_graph km in
  let ins = List.map (fun vd -> vd.Ast.var_name) km.K.kinputs in
  let outs = List.map (fun vd -> vd.Ast.var_name) km.K.koutputs in
  let deps =
    List.concat_map
      (fun i ->
        let r = Analysis.Digraph.reachable graph i in
        List.filter_map
          (fun o -> if List.mem o r then Some (i, o) else None)
          outs)
      ins
  in
  { pa_model = km.K.kname;
    pa_consistent = Clocks.Calculus.consistent calc;
    pa_conflicts = Clocks.Calculus.conflicts calc;
    pa_null = nulls;
    pa_determinism = det;
    pa_deadlock = dl;
    pa_iface_eq = List.rev !eq;
    pa_iface_le = List.rev !le;
    pa_iface_ex = List.rev !ex;
    pa_iface_null = List.filter (fun x -> List.mem x nulls) iface;
    pa_iface_dep = deps }

let renamer (link : Signal_lang.Normalize.link) =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (a, b) -> Hashtbl.replace tbl a b) link.Signal_lang.Normalize.l_rename;
  fun x -> match Hashtbl.find_opt tbl x with Some y -> y | None -> x

(* Glue kernel with per-instance interface summaries injected: the
   relations each model proves about its own interface become
   constraints over the host signals it is linked to, and provably
   null interface signals are pinned null ([Cex (x, x)] forces an
   empty clock). *)
let glue_with_summaries glue (links : Signal_lang.Normalize.link list) pas =
  let extra_constraints = ref [] and extra_edges = ref [] in
  List.iter
    (fun (l : Signal_lang.Normalize.link) ->
      match List.assoc_opt l.Signal_lang.Normalize.l_model pas with
      | None -> ()  (* model was inlined: its content is inside glue *)
      | Some pa ->
        let rn = renamer l in
        List.iter
          (fun (a, b) ->
            extra_constraints := K.Ceq (rn a, rn b) :: !extra_constraints)
          pa.pa_iface_eq;
        List.iter
          (fun (a, b) ->
            extra_constraints := K.Cle (rn a, rn b) :: !extra_constraints)
          pa.pa_iface_le;
        List.iter
          (fun (a, b) ->
            extra_constraints := K.Cex (rn a, rn b) :: !extra_constraints)
          pa.pa_iface_ex;
        List.iter
          (fun x ->
            extra_constraints := K.Cex (rn x, rn x) :: !extra_constraints)
          pa.pa_iface_null;
        List.iter
          (fun (a, b) -> extra_edges := (rn a, rn b) :: !extra_edges)
          pa.pa_iface_dep)
    links;
  ( { glue with
      K.kconstraints = glue.K.kconstraints @ List.rev !extra_constraints },
    List.rev !extra_edges )

let glue_analysis_of ?digest glue extra_edges =
  let calc = Clocks.Calculus.analyze ?digest glue in
  { ga_consistent = Clocks.Calculus.consistent calc;
    ga_conflicts = Clocks.Calculus.conflicts calc;
    ga_null = Clocks.Calculus.null_signals calc;
    ga_determinism = Analysis.Determinism.analyze calc glue;
    ga_deadlock = Analysis.Deadlock.analyze ~calc ~extra_edges glue }

(* Merge the per-instance units and the glue unit into the
   whole-system verdicts, renaming model-local signal names into the
   linked namespace. Diagnostics are regenerated from the renamed
   structured data (instance order, then glue) — same codes and
   wording as the monolithic analysis produced. *)
let merge_analyses ~stubbed (links : Signal_lang.Normalize.link list) pas ga =
  let instance_units =
    List.filter_map
      (fun (l : Signal_lang.Normalize.link) ->
        Option.map
          (fun pa -> (l, renamer l, pa))
          (List.assoc_opt l.Signal_lang.Normalize.l_model pas))
      links
  in
  let det_issues =
    List.concat_map
      (fun (_, rn, pa) ->
        List.map
          (fun (i : Analysis.Determinism.issue) ->
            { i with
              Analysis.Determinism.signal = rn i.Analysis.Determinism.signal;
              branch_a = rn i.Analysis.Determinism.branch_a;
              branch_b = rn i.Analysis.Determinism.branch_b })
          pa.pa_determinism.Analysis.Determinism.issues)
      instance_units
    @ ga.ga_determinism.Analysis.Determinism.issues
  in
  let determinism =
    { Analysis.Determinism.issues = det_issues;
      deterministic = det_issues = [] }
  in
  let cycles =
    List.concat_map
      (fun (_, rn, pa) ->
        List.map
          (fun (c : Analysis.Deadlock.cycle) ->
            { c with
              Analysis.Deadlock.signals =
                List.map rn c.Analysis.Deadlock.signals })
          pa.pa_deadlock.Analysis.Deadlock.cycles)
      instance_units
    @ ga.ga_deadlock.Analysis.Deadlock.cycles
  in
  let deadlock =
    { Analysis.Deadlock.cycles;
      deadlock_free =
        not (List.exists (fun c -> c.Analysis.Deadlock.feasible) cycles) }
  in
  let conflicts =
    List.concat_map
      (fun ((l : Signal_lang.Normalize.link), _, pa) ->
        List.map
          (fun m ->
            Printf.sprintf "in instance %s: %s"
              l.Signal_lang.Normalize.l_label m)
          pa.pa_conflicts)
      instance_units
    @ ga.ga_conflicts
  in
  let consistent =
    ga.ga_consistent
    && List.for_all (fun (_, _, pa) -> pa.pa_consistent) instance_units
  in
  let nulls =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else begin
          Hashtbl.replace seen x ();
          true
        end)
      (List.concat_map
         (fun (_, rn, pa) -> List.map rn pa.pa_null)
         instance_units
      @ ga.ga_null)
  in
  let diags =
    let c = Putil.Diag.collector () in
    List.iter
      (fun m ->
        Putil.Diag.add c
          (Putil.Diag.errorf ~code:Clocks.Calculus.code_conflict "%s" m))
      conflicts;
    if not consistent then
      Putil.Diag.add c
        (Putil.Diag.errorf ~code:Clocks.Calculus.code_inconsistent
           "clock constraint system is unsatisfiable: no behaviour has \
            any signal present");
    (* a failed schedule or task extraction is stubbed with
       never-present events, so null-clock notes would only echo a
       defect already reported — drop them then *)
    if not stubbed then
      List.iter
        (fun x ->
          Putil.Diag.add c
            (Putil.Diag.notef ~code:Clocks.Calculus.code_null
               "signal %s has a provably empty clock (never present)" x))
        nulls;
    Putil.Diag.result c
    @ Analysis.Determinism.diags_of_report determinism
    @ Analysis.Deadlock.diags_of_report deadlock
  in
  { a_procs = pas; a_glue = ga; a_determinism = determinism;
    a_deadlock = deadlock; a_diags = diags }

(* Every layer contributes to one collector, so independent defects —
   an AADL legality error, a type error in the generated program and an
   infeasible thread set — are all reported in a single run. The
   result is [Error] only when a stage failure prevents building the
   full record; the accumulated diagnostics (including warnings and
   notes from the analyses) otherwise ride in [analyzed.diags].

   Each stage key is derived from keys already known: the front end's
   from the source key, the back end's from the per-process digests
   the translation took once. No key marshals the AADL AST, the
   instance or the generated program. *)
let analyze ?session ?(registry = Trans.Behavior.empty) ?policy ?mode ?root
    ?file src =
  in_session_scope session @@ fun () ->
  let m = memos_of session in
  let src_key =
    Digest.to_hex
      (Digest.string (Option.value ~default:"" file ^ "\x00" ^ src))
  in
  (* legality is a function of the packages, so it rides in the parse
     value and a parse hit replays it, as it does each package's shape
     digest (the parser's) *)
  let* checked =
    Memo.find m.parse ~name:"parse" ~key:src_key (fun () ->
        Result.map
          (List.map (fun pkg -> (pkg, Aadl.Check.check_package pkg)))
          (Aadl.Parser.parse_packages_diag ?file src))
  in
  let pkgs = List.map fst checked in
  let* pkg, root =
    match root with
    | Some r -> (
      (* find the package defining the root *)
      let tname = Aadl.Syntax.impl_base_name r in
      match
        List.find_opt
          (fun p -> Aadl.Syntax.find_type p tname <> None)
          pkgs
      with
      | Some p -> Ok (p, r)
      | None -> (
        match pkgs with
        | p :: _ -> Ok (p, r)
        | [] ->
          Error [ Putil.Diag.errorf ~code:code_root "no package" ]))
    | None ->
      Result.map_error
        (fun m -> [ Putil.Diag.errorf ~code:code_root "%s" m ])
        (default_root pkgs)
  in
  Putil.Tracing.with_span "pipeline.analyze"
    ~args:[ ("root", Putil.Tracing.Astr root) ]
  @@ fun () ->
  let diags = Putil.Diag.collector () in
  let fail () = Error (Putil.Diag.result diags) in
  (* the root's package first, then the others in source order *)
  let own, others = List.partition (fun (p, _) -> p == pkg) checked in
  let aadl_issues = List.concat_map snd (own @ others) in
  let context = List.map fst others in
  Putil.Diag.add_list diags (Aadl.Check.to_diags ?file aadl_issues);
  match
    Memo.find m.instance ~name:"instantiate" ~key:(src_key ^ ":" ^ root)
      (fun () -> Aadl.Instance.instantiate_diag ?file ~context pkg ~root)
  with
  | Error ds ->
    Putil.Diag.add_list diags ds;
    fail ()
  | Ok instance -> (
    match
      Memo.find m.translate ~name:"translate"
        ~key:
          (digest_of (src_key, root, policy, mode, Trans.Behavior.id registry))
        (fun () ->
          match
            Trans.System_trans.translate_diag ?file ~registry ?policy
              ?mode instance
          with
          | Some translation, tdiags -> Ok (translation, tdiags)
          | None, tdiags -> Error tdiags)
    with
    | Error tdiags ->
      Putil.Diag.add_list diags tdiags;
      fail ()
    | Ok (translation, tdiags) -> (
      Putil.Diag.add_list diags tdiags;
      let program = translation.Trans.System_trans.program in
      let digests = translation.Trans.System_trans.process_digests in
      let program_key = digest_of (program.Ast.prog_name, digests) in
      let top = translation.Trans.System_trans.top in
      let typecheck_errors =
        List.concat
          (Memo.get m.typecheck ~name:"typecheck" ~key:program_key
             (fun () ->
               (* keyed on (own body × interface environment): a body
                  edit in one process reruns only that process's check *)
               let iface_key =
                 digest_of (List.map iface_of program.Ast.processes)
               in
               List.map2
                 (fun p digest ->
                   Memo.get m.tc_procs ~name:p.Ast.proc_name
                     ~key:(Digest.to_hex digest ^ ":" ^ iface_key)
                     (fun () -> Signal_lang.Typecheck.check_process ~program p))
                 program.Ast.processes digests))
      in
      Putil.Diag.add_list diags
        (List.map
           (diag_of_type_error ?file ~translation ~instance)
           typecheck_errors);
      (* each model is normalized once, keyed on its dependency
         closure *)
      let proc_digest =
        let by_proc = List.combine program.Ast.processes digests in
        fun p -> List.assq p by_proc
      in
      let kernel_key model = model_key program proc_digest model in
      let model_kernel model =
        Memo.get m.kernels ~name:model.Ast.proc_name ~key:(kernel_key model)
          (fun () ->
            Result.to_option (Signal_lang.Normalize.process ~program model))
      in
      let normalize_key = program_key ^ ":" ^ top.Ast.proc_name in
      match
        Memo.find m.normalize ~name:normalize_key ~key:normalize_key
          (fun () ->
            (* link the cached model kernels into the host *)
            let models =
              List.filter
                (fun p ->
                  (not (String.equal p.Ast.proc_name top.Ast.proc_name))
                  && p.Ast.params = [])
                program.Ast.processes
            in
            let precomputed =
              List.filter_map
                (fun model ->
                  Option.map
                    (fun k -> (model.Ast.proc_name, k))
                    (model_kernel model))
                models
            in
            Result.map
              (fun (lk : Signal_lang.Normalize.linked) ->
                let kernel = lk.Signal_lang.Normalize.lk_kernel in
                (* the profile gauges and the kernel digest ride in the
                   stage value so replays (window or store) never
                   recompute them *)
                let profile = Analysis.Profiling.static_costs kernel in
                { n_kernel = kernel;
                  n_glue = lk.Signal_lang.Normalize.lk_glue;
                  n_links = lk.Signal_lang.Normalize.lk_links;
                  n_units = List.length precomputed;
                  n_static_total = profile.Analysis.Profiling.total_static;
                  n_static_signals =
                    List.length profile.Analysis.Profiling.per_signal;
                  n_kdigest = K.digest kernel })
              (Signal_lang.Normalize.process_linked ~program ~precomputed
                 top))
      with
      | Error d ->
        Putil.Diag.add diags d;
        fail ()
      | Ok n ->
        let kernel = n.n_kernel in
        Putil.Metrics.set m_profile_total n.n_static_total;
        Putil.Metrics.set m_profile_signals n.n_static_signals;
        let stubbed = Putil.Diag.has_errors tdiags in
        (* A model's kernel, for an analyses miss: from the kernels
           memo, which a normalize run has just filled and a replayed
           one has already counted, so it is read without counting;
           only a kernel gone from both the session and the store is
           normalized again. *)
        let kernel_of name =
          match
            List.find_opt
              (fun p -> String.equal p.Ast.proc_name name)
              program.Ast.processes
          with
          | None -> None
          | Some model -> (
            match Memo.peek m.kernels ~name ~key:(kernel_key model) with
            | Some k -> k
            | None -> model_kernel model)
        in
        let an =
          let key = n.n_kdigest ^ if stubbed then ":stub" else "" in
          Memo.get m.analyses ~name:key ~key
            (fun () ->
              let model_names =
                List.sort_uniq compare
                  (List.map
                     (fun (l : Signal_lang.Normalize.link) ->
                       l.Signal_lang.Normalize.l_model)
                     n.n_links)
              in
              let pas =
                List.filter_map
                  (fun name ->
                    Option.map
                      (fun km ->
                        let digest = K.digest km in
                        ( name,
                          Memo.get m.panas ~name ~key:digest
                            (fun () -> proc_analysis_of ~digest km) ))
                      (kernel_of name))
                  model_names
              in
              let glue', extra_edges =
                glue_with_summaries n.n_glue n.n_links pas
              in
              let digest = K.digest glue' in
              let ga =
                Memo.get m.glue ~name:"glue"
                  ~key:(digest_of (digest, extra_edges))
                  (fun () -> glue_analysis_of ~digest glue' extra_edges)
              in
              merge_analyses ~stubbed n.n_links pas ga)
        in
        Putil.Diag.add_list diags an.a_diags;
        (* bound outside the lazy, which must not capture [n] *)
        let kernel_digest = n.n_kdigest in
        let calc =
          lazy (Clocks.Calculus.analyze ~digest:kernel_digest kernel)
        in
        let hierarchy = lazy (Clocks.Hierarchy.build (Lazy.force calc)) in
        Ok
          { package = pkg; aadl_issues; instance; translation; kernel;
            kernel_digest; glue_kernel = n.n_glue; links = n.n_links;
            proc_analyses = an.a_procs; glue = an.a_glue; calc; hierarchy;
            determinism = an.a_determinism; deadlock = an.a_deadlock;
            typecheck_errors; diags = Putil.Diag.result diags;
            scope = Option.map (fun s -> s.s_label) session }))

(* Schedulers on different processors may use different base ticks;
   simulation advances on their gcd and pulses each processor's tick at
   its own cadence. *)
let global_base_us a =
  match a.translation.Trans.System_trans.schedules with
  | [] -> 1
  | scheds ->
    let g =
      Putil.Mathx.gcd_list
        (List.map (fun (_, s) -> s.Sched.Static_sched.base_us) scheds)
    in
    max 1 g

let global_hyper_us a =
  match a.translation.Trans.System_trans.schedules with
  | [] -> 1
  | scheds -> (
    match
      Putil.Mathx.lcm_list
        (List.map (fun (_, s) -> s.Sched.Static_sched.hyperperiod_us) scheds)
    with
    | hp -> hp
    | exception Putil.Mathx.Overflow m ->
      invalid_arg ("Pipeline.global_hyper_us: " ^ m))

let base_ticks_per_hyperperiod a = global_hyper_us a / global_base_us a

let default_env a t =
  if t = 0 then
    List.map
      (fun n -> (n, 1))
      a.translation.Trans.System_trans.env_inputs
  else []

(* Static reaction cost of one thread: its signals are exactly those
   prefixed by its local name in the generated program. *)
let thread_cost a =
  let costs = (Analysis.Profiling.static_costs a.kernel).Analysis.Profiling.per_signal in
  fun task_name ->
    let prefix =
      Trans.System_trans.local_name
        a.instance.Aadl.Instance.root.Aadl.Instance.i_path task_name
      ^ "_"
    in
    List.fold_left
      (fun acc (s, c) ->
        if String.length s >= String.length prefix
           && String.sub s 0 (String.length prefix) = prefix
        then acc + c
        else acc)
      0 costs

(* Name-based stimulus generator for one run: ticks at each
   processor's base cadence, External-mode ctl events from the
   schedule tables, plus the environment arrivals. *)
let stimulus_at_fn a env =
  let gbase = global_base_us a in
  (* tick inputs are generated in schedule order; pulse each at its
     processor's base cadence (External mode declares no ticks) *)
  let ticks =
    let rec zip tks ss =
      match tks, ss with
      | tk :: tks, (_, s) :: ss ->
        (tk, s.Sched.Static_sched.base_us / gbase) :: zip tks ss
      | _, _ -> []
    in
    zip a.translation.Trans.System_trans.tick_inputs
      a.translation.Trans.System_trans.schedules
  in
  (* External-mode ctl inputs are driven straight from the schedule
     tables, replicating the Embedded scheduler process semantics: at
     processor base tick m, an event with offset tk fires iff m >= tk
     and m ≡ tk (mod horizon) *)
  let ctls =
    List.map
      (fun (n, spec) ->
        let stride =
          match
            List.assoc_opt spec.Trans.System_trans.cs_cpu
              a.translation.Trans.System_trans.schedules
          with
          | Some s -> max 1 (s.Sched.Static_sched.base_us / gbase)
          | None -> 1
        in
        ( n, stride,
          Array.of_list spec.Trans.System_trans.cs_ticks,
          spec.Trans.System_trans.cs_horizon ))
      a.translation.Trans.System_trans.ctl_inputs
  in
  fun t ->
    List.filter_map
      (fun (tk, every) ->
        if t mod every = 0 then Some (tk, Types.Vevent) else None)
      ticks
    @ List.filter_map
        (fun (n, stride, offs, horizon) ->
          if t mod stride <> 0 then None
          else
            let m = t / stride in
            if
              Array.exists
                (fun tk -> m >= tk && (m - tk) mod horizon = 0)
                offs
            then Some (n, Types.Vevent)
            else None)
        ctls
    @ List.map (fun (n, v) -> (n, Types.Vint v)) (env t)

(* The compiled driver of {!simulate} (K = 1) and {!simulate_scenarios}:
   [horizon] instants of [scenarios] lockstep copies, scenario [s]
   reading its named stimuli from [stimulus_of s]. An unknown stimulus
   name fails through the stepping call like any step error, so both
   entries report SIM-001 at the instant it happened. A plan that
   cannot be built is COMPILE-001, and nothing else is: {!simulate}
   falls back on that code. *)
let run_compiled a ~horizon ~scenarios stimulus_of =
  match
    Polysim.Compile.compile_scenarios ~digest:a.kernel_digest a.kernel
      ~scenarios
  with
  | Error m ->
    Error [ Putil.Diag.errorf ~code:code_compile "compile: %s" m ]
  | Ok c -> (
    let stim_of = Array.init scenarios stimulus_of in
    let fill c s t =
      List.iter
        (fun (x, v) -> Polysim.Compile.set_stim_named c x v)
        (stim_of.(s) t)
    in
    let rec go t =
      if t >= horizon then
        Ok (Array.init scenarios (Polysim.Compile.trace_of c))
      else
        match Polysim.Compile.step_many c ~fill:(fun c s -> fill c s t) with
        | Ok () -> go (t + 1)
        | Error m ->
          Error [ Putil.Diag.errorf ~code:code_sim "instant %d: %s" t m ]
    in
    go 0)

let simulate ?compiled ?env ?(hyperperiods = 2) a =
  in_analyzed_scope a @@ fun () ->
  let env = Option.value ~default:(default_env a) env in
  let horizon = base_ticks_per_hyperperiod a * hyperperiods in
  Putil.Tracing.with_span "pipeline.simulate"
    ~args:
      [ ("compiled", Putil.Tracing.Abool (compiled <> Some false));
        ("horizon_ticks", Putil.Tracing.Aint horizon) ]
  @@ fun () ->
  let gbase = global_base_us a in
  let stimulus_at = stimulus_at_fn a env in
  let finish tr =
    if Putil.Tracing.enabled () then
      Timeline.emit ~cost:(thread_cost a)
        ~root_path:a.instance.Aadl.Instance.root.Aadl.Instance.i_path
        ~base_us:gbase ~horizon_ticks:horizon
        ~schedules:a.translation.Trans.System_trans.schedules
        ~tasks:a.translation.Trans.System_trans.tasks tr;
    tr
  in
  let interpret () =
    let engine = Polysim.Engine.create a.kernel in
    let rec go t =
      if t >= horizon then Ok (finish (Polysim.Engine.trace engine))
      else
        match Polysim.Engine.step engine ~stimulus:(stimulus_at t) with
        | Ok _ -> go (t + 1)
        | Error m ->
          Error [ Putil.Diag.errorf ~code:code_sim "instant %d: %s" t m ]
    in
    go 0
  in
  if compiled = Some false then interpret ()
  else
    match run_compiled a ~horizon ~scenarios:1 (fun _ -> stimulus_at) with
    | Ok traces -> Ok (finish traces.(0))
    | Error [ d ] when compiled = None && d.Putil.Diag.code = code_compile ->
      (* no plan: the default falls back on the interpreter, counted
         and marked in the trace *)
      Putil.Metrics.incr (Putil.Metrics.counter "pipeline.simulate_fallbacks");
      Putil.Tracing.instant "pipeline.simulate_fallback"
        ~args:[ ("reason", Putil.Tracing.Astr d.Putil.Diag.message) ];
      interpret ()
    | Error _ as e -> e

(* Per-scenario default environment: scenario [s] delays every
   environment arrival by [s] base ticks (mod the horizon), so a sweep
   covers the arrival phases of the environment; scenario 0 is exactly
   {!default_env}. *)
let scenario_env a ~horizon s t =
  if t = s mod horizon then
    List.map (fun n -> (n, 1)) a.translation.Trans.System_trans.env_inputs
  else []

let simulate_scenarios ?envs ?(hyperperiods = 2) ~scenarios a =
  in_analyzed_scope a @@ fun () ->
  let horizon = base_ticks_per_hyperperiod a * hyperperiods in
  let envs =
    match envs with
    | Some f -> f
    | None -> scenario_env a ~horizon
  in
  Putil.Tracing.with_span "pipeline.simulate_scenarios"
    ~args:
      [ ("scenarios", Putil.Tracing.Aint scenarios);
        ("horizon_ticks", Putil.Tracing.Aint horizon) ]
  @@ fun () ->
  (* a bad argument, not a plan failure: SIM-001, never COMPILE-001,
     and decided before anything is allocated *)
  match Polysim.Compile.check_scenarios a.kernel scenarios with
  | Error m -> Error [ Putil.Diag.errorf ~code:code_sim "%s" m ]
  | Ok () ->
    run_compiled a ~horizon ~scenarios (fun s -> stimulus_at_fn a (envs s))

(* ------------------------------------------------------------------ *)
(* Bounded verification                                                *)

type verify_engine = [ `Explicit | `Symbolic | `Auto ]

let verify_inputs a =
  let tr = a.translation in
  (* ticks always present; every environment input may arrive (value
     1) or stay silent at each instant *)
  List.map
    (fun tk -> (tk, [ Some Signal_lang.Types.Vevent ]))
    tr.Trans.System_trans.tick_inputs
  @ List.map
      (fun e -> (e, [ None; Some (Signal_lang.Types.Vint 1) ]))
      tr.Trans.System_trans.env_inputs

let verify_kernel ?(depth = 8) ?jobs ?(engine = `Auto) ~never ~inputs kp =
  let prop = Polysim.Symbolic.Never_present never in
  let explicit () =
    match
      Polysim.Explore.check ~depth ?jobs ~inputs
        ~safe:(Polysim.Symbolic.safe_of_prop prop) kp
    with
    | Ok (v, n) -> Ok (v, n, `Explicit)
    | Error d -> Error d
  in
  let symbolic () =
    match Polysim.Explore.check_symbolic ~depth ~inputs ~prop kp with
    | Ok (v, n) -> Ok (v, n, `Symbolic)
    | Error d -> Error d
  in
  match engine with
  | `Explicit -> explicit ()
  | `Symbolic -> symbolic ()
  | `Auto -> (
    match symbolic () with
    | Error d when d.Putil.Diag.code = Polysim.Symbolic.code_unsupported ->
      explicit ()
    | r -> r)

let verify ?depth ?jobs ?engine ~never a =
  in_analyzed_scope a @@ fun () ->
  verify_kernel ?depth ?jobs ?engine ~never ~inputs:(verify_inputs a)
    a.kernel

let vcd_of_trace ?signals a tr =
  let module_name = a.translation.Trans.System_trans.top.Ast.proc_name in
  (* one logical instant = one global base tick; dump real model time
     so VCD cursors line up with the schedule tables *)
  Polysim.Vcd.to_string ?signals ~module_name ~instant_us:(global_base_us a) tr

let with_tracing ?(format = `Chrome) ~trace_file f =
  Putil.Tracing.reset ();
  Putil.Tracing.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Putil.Tracing.set_enabled false;
      Putil.Tracing.write ~format trace_file)
    f

let pp_summary ppf a =
  Format.fprintf ppf "@[<v>== AADL legality ==@,";
  (match a.aadl_issues with
   | [] -> Format.fprintf ppf "no issues@,"
   | issues ->
     List.iter
       (fun i -> Format.fprintf ppf "%a@," Aadl.Check.pp_issue i)
       issues);
  Format.fprintf ppf "@,== schedules ==@,";
  List.iter
    (fun (cpu, s) ->
      Format.fprintf ppf "processor %s:@,%a@," cpu
        Sched.Static_sched.pp_schedule s)
    a.translation.Trans.System_trans.schedules;
  Format.fprintf ppf "@,== clock calculus ==@,%a@," Clocks.Calculus.pp_summary
    (Lazy.force a.calc);
  Format.fprintf ppf "clock hierarchy roots: %d, depth: %d@,"
    (List.length (Clocks.Hierarchy.roots (Lazy.force a.hierarchy)))
    (Clocks.Hierarchy.depth (Lazy.force a.hierarchy));
  Format.fprintf ppf "@,== determinism ==@,%a@,"
    Analysis.Determinism.pp_report a.determinism;
  Format.fprintf ppf "@,== deadlock ==@,%a@," Analysis.Deadlock.pp_report
    a.deadlock;
  (match Polysim.Compile.compile ~digest:a.kernel_digest a.kernel with
   | Ok c ->
     let free = Polysim.Compile.free_classes c in
     if free = 0 then
       Format.fprintf ppf
         "@,endochrony: every clock is derivable — the program runs on \
          its synthesized tick@,"
     else
       Format.fprintf ppf
         "@,endochrony: %d free synchronization class(es): %s@," free
         (String.concat ", " (Polysim.Compile.free_class_members c))
   | Error m -> Format.fprintf ppf "@,not compilable: %s@," m);
  (match a.typecheck_errors with
   | [] -> Format.fprintf ppf "@,SIGNAL program is well-typed@,"
   | errs ->
     Format.fprintf ppf "@,SIGNAL type errors:@,";
     List.iter
       (fun e ->
         Format.fprintf ppf "  %s@," (Signal_lang.Typecheck.error_to_string e))
       errs);
  Format.fprintf ppf "@,== run metrics ==@,%a@," Putil.Metrics.pp
    Putil.Metrics.global;
  Format.fprintf ppf "@]"

let pp_stats ppf () =
  Format.fprintf ppf "@[<v>== run metrics ==@,%a@]" Putil.Metrics.pp
    Putil.Metrics.global

let stats_json () = Putil.Metrics.to_json Putil.Metrics.global
