open Ast
open Kernel

let code_norm =
  Putil.Diag.code "SIG-NORM-001"
    "generated SIGNAL program cannot be normalized"

(* Internal control flow only; [process] catches it and builds the
   coded diagnostic. The span is the nearest marked source construct
   (expression, statement, or declaration) to where flattening gave
   up, so "cannot normalize" points at source instead of nowhere. *)
exception Error of Putil.Diag.span option * string

exception Normalize_error of Putil.Diag.t

let () =
  Printexc.register_printer (function
    | Normalize_error d -> Some (Putil.Diag.to_string d)
    | _ -> None)

let errf fmt = Format.kasprintf (fun m -> raise (Error (None, m))) fmt

let errf_at sp fmt = Format.kasprintf (fun m -> raise (Error (sp, m))) fmt

type state = {
  mutable counter : int;
  used : (string, unit) Hashtbl.t;
  mutable locals : vardecl list;   (* reversed; parsed phase while building *)
  mutable eqs : keq list;          (* reversed *)
  mutable constraints : kconstraint list;
  mutable instances : kinstance list;
  mutable partials : (ident * ident list) list;
}

(* Fresh temporaries inherit the span of the source expression they
   flatten, so kernel-level diagnostics can still point at source. *)
let fresh st ?(hint = "t") ?span typ =
  let rec pick () =
    st.counter <- st.counter + 1;
    let name = Printf.sprintf "_%s%d" hint st.counter in
    if Hashtbl.mem st.used name then pick () else name
  in
  let name = pick () in
  Hashtbl.replace st.used name ();
  st.locals <-
    { var_name = name; var_type = typ; var_mark = Mparsed span } :: st.locals;
  name

let emit st eq = st.eqs <- eq :: st.eqs

(* A typing + renaming environment for the scope being normalized. *)
type scope = {
  rename : ident -> ident;
  tenv : ident -> Types.styp option;
  subst : (ident * Types.value) list;  (* static parameters *)
}

let type_of scope e =
  match Typecheck.type_of_expr scope.tenv e with
  | Ok t -> t
  | Error m -> errf_at (span e) "%s" m

(* Substitute static parameters by their constant values. *)
let rec subst_params subst (e : expr) : expr =
  let d, m = e in
  match d with
  | Econst _ -> e
  | Evar x -> (
    match List.assoc_opt x subst with
    | Some v -> (Econst v, m)
    | None -> e)
  | Eunop (op, e1) -> (Eunop (op, subst_params subst e1), m)
  | Ebinop (op, e1, e2) ->
    (Ebinop (op, subst_params subst e1, subst_params subst e2), m)
  | Eif (c, t, f) ->
    ( Eif (subst_params subst c, subst_params subst t, subst_params subst f),
      m )
  | Edelay (e1, v) -> (Edelay (subst_params subst e1, v), m)
  | Ewhen (e1, b) -> (Ewhen (subst_params subst e1, subst_params subst b), m)
  | Edefault (e1, e2) ->
    (Edefault (subst_params subst e1, subst_params subst e2), m)
  | Eclock e1 -> (Eclock (subst_params subst e1), m)

let atom_ident st ?span typ = function
  | Avar x -> x
  | Aconst v ->
    let t = fresh st ~hint:"c" ?span typ in
    emit st (Kfunc { dst = t; op = Pid; args = [ Aconst v ] });
    t

(* Flatten an expression to an atom, emitting kernel equations. *)
let rec norm_expr st scope e =
  let e = subst_params scope.subst e in
  let sp = span e in
  match desc e with
  | Econst v -> Aconst v
  | Evar x -> Avar (scope.rename x)
  | Eunop (op, e1) ->
    let t = type_of scope e in
    let a = norm_expr st scope e1 in
    let dst = fresh st ?span:sp t in
    emit st (Kfunc { dst; op = Punop op; args = [ a ] });
    Avar dst
  | Ebinop (op, e1, e2) ->
    let t = type_of scope e in
    let a1 = norm_expr st scope e1 in
    let a2 = norm_expr st scope e2 in
    let dst = fresh st ?span:sp t in
    emit st (Kfunc { dst; op = Pbinop op; args = [ a1; a2 ] });
    Avar dst
  | Eif (c, e1, e2) ->
    let t = type_of scope e in
    let ac = norm_expr st scope c in
    let a1 = norm_expr st scope e1 in
    let a2 = norm_expr st scope e2 in
    let dst = fresh st ?span:sp t in
    emit st (Kfunc { dst; op = Pif; args = [ ac; a1; a2 ] });
    Avar dst
  | Edelay (e1, init) ->
    let t = type_of scope e in
    let a = norm_expr st scope e1 in
    let src = atom_ident st ?span:sp t a in
    let dst = fresh st ?span:sp t in
    emit st (Kdelay { dst; src; init });
    Avar dst
  | Ewhen (e1, b) ->
    let t = type_of scope e in
    let a = norm_expr st scope e1 in
    let ab = norm_expr st scope b in
    let dst = fresh st ?span:sp t in
    emit st (Kwhen { dst; src = a; cond = ab });
    Avar dst
  | Edefault (e1, e2) ->
    let t = type_of scope e in
    let a1 = norm_expr st scope e1 in
    let a2 = norm_expr st scope e2 in
    let dst = fresh st ?span:sp t in
    emit st (Kdefault { dst; left = a1; right = a2 });
    Avar dst
  | Eclock e1 ->
    let a = norm_expr st scope e1 in
    let dst = fresh st ?span:sp Types.Tevent in
    emit st (Kfunc { dst; op = Pclock; args = [ a ] });
    Avar dst

let norm_expr_ident st scope e =
  let e' = subst_params scope.subst e in
  let typ = type_of scope e' in
  atom_ident st ?span:(span e') typ (norm_expr st scope e)

(* Copy an atom into a named destination. *)
let assign st dst a = emit st (Kfunc { dst; op = Pid; args = [ a ] })

let scope_env p params_bound =
  let module SMap = Map.Make (String) in
  let add acc vd = SMap.add vd.var_name vd.var_type acc in
  let env = List.fold_left add SMap.empty p.params in
  let env = List.fold_left add env p.inputs in
  let env = List.fold_left add env p.outputs in
  let env = List.fold_left add env p.locals in
  fun x ->
    match SMap.find_opt x env with
    | Some t -> Some t
    | None -> Option.map Types.type_of_value (List.assoc_opt x params_bound)

let resolve_model ~program ~host name =
  match find_subprocess host name with
  | Some p -> Some p
  | None -> (
    match Option.bind program (fun prog -> find_process prog name) with
    | Some p -> Some p
    | None ->
      List.find_opt (fun p -> String.equal p.proc_name name) Stdproc.all)

(* Link-time splicing of precomputed per-model kernels.

   [process_linked] assembles a host kernel from already-normalized
   model kernels instead of re-normalizing every model body: an
   instance of a precomputed model is satisfied by renaming the cached
   kernel into the host namespace (locals ["label__name"], nested
   instance labels ["label__inner"]) and splicing its equations in
   place. The rename map of every splice is returned so per-model
   analysis results can be translated into the host namespace too.

   In [opaque] mode the same traversal *omits* the spliced content and
   keeps only the host-side glue: actual-input computations, data
   FIFOs, host equations and constraints. The resulting "glue kernel"
   is the host abstraction that per-process incremental analysis runs
   on (the caller injects interface summaries as extra constraints). *)
type link = {
  l_label : string;
  l_model : string;
  l_rename : (ident * ident) list;
}

type link_mode = {
  lm_pre : (string * kprocess) list;
  lm_opaque : bool;
  mutable lm_links : link list;  (* reversed *)
}

(* Normalize the body of [p] in the given scope, recursing into
   instances. [stack] guards against recursive models. *)
let rec norm_body st ~program ~stack ~lm p scope =
  let partials : (ident, Types.styp * ident list) Hashtbl.t =
    Hashtbl.create 4
  in
  let do_stmt (stmt : stmt) =
    match desc stmt with
    | Sdef (x, e) ->
      let dst = scope.rename x in
      let a = norm_expr st scope e in
      assign st dst a
    | Spartial (x, e) ->
      let dst = scope.rename x in
      let e' = subst_params scope.subst e in
      let typ = type_of scope e' in
      let a = norm_expr st scope e in
      let t = atom_ident st ?span:(span e') typ a in
      let prev =
        match Hashtbl.find_opt partials dst with
        | Some (_, l) -> l
        | None -> []
      in
      Hashtbl.replace partials dst (typ, t :: prev)
    | Sclk_eq (e1, e2) ->
      let x1 = norm_expr_ident st scope e1 in
      let x2 = norm_expr_ident st scope e2 in
      st.constraints <- Ceq (x1, x2) :: st.constraints
    | Sclk_le (e1, e2) ->
      let x1 = norm_expr_ident st scope e1 in
      let x2 = norm_expr_ident st scope e2 in
      st.constraints <- Cle (x1, x2) :: st.constraints
    | Sclk_ex (e1, e2) ->
      let x1 = norm_expr_ident st scope e1 in
      let x2 = norm_expr_ident st scope e2 in
      st.constraints <- Cex (x1, x2) :: st.constraints
    | Sinstance inst ->
      norm_instance st ~program ~stack ~lm ~sp:(span stmt) p scope inst
  in
  List.iter do_stmt p.body;
  (* Materialize partial definitions as a recorded merge. *)
  Hashtbl.iter
    (fun dst (typ, sources) ->
      let sources = List.rev sources in
      st.partials <- (dst, sources) :: st.partials;
      match sources with
      | [] -> ()
      | [ one ] -> assign st dst (Avar one)
      | first :: rest ->
        (* dst := s1 default s2 default ... *)
        let merged =
          List.fold_left
            (fun acc src ->
              let t = fresh st ~hint:"m" typ in
              emit st (Kdefault { dst = t; left = Avar acc; right = Avar src });
              t)
            first rest
        in
        assign st dst (Avar merged))
    partials

and norm_instance st ~program ~stack ~lm ~sp host scope inst =
  match Stdproc.primitive_of_name inst.inst_proc with
  | Some prim ->
    let ins = List.map (norm_expr_ident st scope) inst.inst_ins in
    let outs = List.map scope.rename inst.inst_outs in
    st.instances <-
      { ki_label = inst.inst_label; ki_prim = prim; ki_ins = ins;
        ki_outs = outs; ki_params = inst.inst_params }
      :: st.instances
  | None -> (
    match lm with
    | Some l
      when inst.inst_params = []
           && find_subprocess host inst.inst_proc = None
           && List.mem_assoc inst.inst_proc l.lm_pre ->
      (* Precomputed model, not shadowed by a subprocess and with no
         static parameters to substitute: splice the cached kernel. *)
      splice st ~sp l scope inst (List.assoc inst.inst_proc l.lm_pre)
    | _ -> (
      match resolve_model ~program ~host inst.inst_proc with
      | None -> errf_at sp "unknown process model %s" inst.inst_proc
      | Some model ->
        if List.mem model.proc_name stack then
          errf_at sp "recursive instantiation of process %s" model.proc_name;
        inline st ~program ~stack:(model.proc_name :: stack) ~lm ~sp scope
          inst model))

(* Splice a precomputed model kernel at an instance site: bind its
   interface to the actuals (same binding discipline as [inline]),
   rename its locals and nested instance labels into the host
   namespace, and replay its equations, constraints, instances and
   partial merges in order. In opaque mode only the actual-input
   computations (host-side) are kept. *)
and splice st ~sp lm outer_scope inst kp =
  if List.length inst.inst_ins <> List.length kp.kinputs then
    errf_at sp "instance %s of %s: bad input arity" inst.inst_label kp.kname;
  if List.length inst.inst_outs <> List.length kp.koutputs then
    errf_at sp "instance %s of %s: bad output arity" inst.inst_label kp.kname;
  let in_bindings =
    List.map2
      (fun vd actual ->
        let a = norm_expr st outer_scope actual in
        match a with
        | Avar x -> (vd.var_name, x)
        | Aconst _ ->
          let x = atom_ident st ?span:(span actual) vd.var_type a in
          (vd.var_name, x))
      kp.kinputs inst.inst_ins
  in
  let out_bindings =
    List.map2
      (fun vd actual -> (vd.var_name, outer_scope.rename actual))
      kp.koutputs inst.inst_outs
  in
  let local_bindings =
    if lm.lm_opaque then []
    else
      List.map
        (fun vd ->
          let rec pick k =
            let name =
              if k = 0 then
                Printf.sprintf "%s__%s" inst.inst_label vd.var_name
              else
                Printf.sprintf "%s__%s_%d" inst.inst_label vd.var_name k
            in
            if Hashtbl.mem st.used name then pick (k + 1) else name
          in
          let name = pick 0 in
          Hashtbl.replace st.used name ();
          st.locals <-
            { var_name = name; var_type = vd.var_type;
              var_mark = Mparsed (mark_span vd.var_mark) }
            :: st.locals;
          (vd.var_name, name))
        kp.klocals
  in
  let renaming = in_bindings @ out_bindings @ local_bindings in
  let tbl = Hashtbl.create (2 * List.length renaming) in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) renaming;
  let rn x = match Hashtbl.find_opt tbl x with Some y -> y | None -> x in
  let rn_atom = function Avar x -> Avar (rn x) | Aconst _ as a -> a in
  if not lm.lm_opaque then begin
    List.iter
      (fun eq ->
        emit st
          (match eq with
           | Kfunc f ->
             Kfunc { f with dst = rn f.dst; args = List.map rn_atom f.args }
           | Kdelay d -> Kdelay { d with dst = rn d.dst; src = rn d.src }
           | Kwhen w ->
             Kwhen { dst = rn w.dst; src = rn_atom w.src;
                     cond = rn_atom w.cond }
           | Kdefault d ->
             Kdefault { dst = rn d.dst; left = rn_atom d.left;
                        right = rn_atom d.right }))
      kp.keqs;
    List.iter
      (fun c ->
        st.constraints <-
          (match c with
           | Ceq (a, b) -> Ceq (rn a, rn b)
           | Cle (a, b) -> Cle (rn a, rn b)
           | Cex (a, b) -> Cex (rn a, rn b))
          :: st.constraints)
      kp.kconstraints;
    List.iter
      (fun ki ->
        st.instances <-
          { ki with ki_label = inst.inst_label ^ "__" ^ ki.ki_label;
            ki_ins = List.map rn ki.ki_ins;
            ki_outs = List.map rn ki.ki_outs }
          :: st.instances)
      kp.kinstances;
    List.iter
      (fun (d, srcs) ->
        st.partials <- (rn d, List.map rn srcs) :: st.partials)
      kp.kpartials
  end;
  lm.lm_links <-
    { l_label = inst.inst_label; l_model = kp.kname; l_rename = renaming }
    :: lm.lm_links

(* Inline a non-primitive instance: bind actual inputs/outputs, rename
   locals with a fresh prefix, substitute static parameters. *)
and inline st ~program ~stack ~lm ~sp outer_scope inst model =
  if List.length inst.inst_ins <> List.length model.inputs then
    errf_at sp "instance %s of %s: bad input arity" inst.inst_label
      model.proc_name;
  if List.length inst.inst_outs <> List.length model.outputs then
    errf_at sp "instance %s of %s: bad output arity" inst.inst_label
      model.proc_name;
  if List.length inst.inst_params <> List.length model.params then
    errf_at sp "instance %s of %s: bad parameter arity" inst.inst_label
      model.proc_name;
  let params_bound =
    List.map2 (fun vd v -> (vd.var_name, v)) model.params inst.inst_params
  in
  (* Bind each formal input to a signal carrying the actual value. *)
  let in_bindings =
    List.map2
      (fun vd actual ->
        let a = norm_expr st outer_scope actual in
        match a with
        | Avar x -> (vd.var_name, x)
        | Aconst _ ->
          let x = atom_ident st ?span:(span actual) vd.var_type a in
          (vd.var_name, x))
      model.inputs inst.inst_ins
  in
  let out_bindings =
    List.map2
      (fun vd actual -> (vd.var_name, outer_scope.rename actual))
      model.outputs inst.inst_outs
  in
  (* Fresh names for locals; the renamed declaration keeps the model
     declaration's span. *)
  let local_bindings =
    List.map
      (fun vd ->
        let rec pick k =
          let name =
            if k = 0 then Printf.sprintf "%s__%s" inst.inst_label vd.var_name
            else Printf.sprintf "%s__%s_%d" inst.inst_label vd.var_name k
          in
          if Hashtbl.mem st.used name then pick (k + 1) else name
        in
        let name = pick 0 in
        Hashtbl.replace st.used name ();
        st.locals <-
          { var_name = name; var_type = vd.var_type;
            var_mark = Mparsed (mark_span vd.var_mark) }
          :: st.locals;
        (vd.var_name, name))
      model.locals
  in
  let renaming = in_bindings @ out_bindings @ local_bindings in
  let rename x =
    match List.assoc_opt x renaming with
    | Some y -> y
    | None -> x  (* parameters are substituted, not renamed *)
  in
  let inner_scope =
    { rename;
      tenv = scope_env model params_bound;
      subst = params_bound }
  in
  norm_body st ~program ~stack ~lm model inner_scope

let process_gen ?program ?(params = []) ~lm p =
  let st =
    { counter = 0; used = Hashtbl.create 64; locals = []; eqs = [];
      constraints = []; instances = []; partials = [] }
  in
  try
    if List.length params <> List.length p.params then
      errf "process %s expects %d static parameters, %d given" p.proc_name
        (List.length p.params) (List.length params);
    let params_bound =
      List.map2 (fun vd v -> (vd.var_name, v)) p.params params
    in
    List.iter
      (fun vd -> Hashtbl.replace st.used vd.var_name ())
      (p.inputs @ p.outputs @ p.locals);
    st.locals <- List.rev p.locals;
    let scope =
      { rename = (fun x -> x); tenv = scope_env p params_bound;
        subst = params_bound }
    in
    norm_body st ~program ~stack:[ p.proc_name ] ~lm p scope;
    (* Generated temporaries were prepended; declared locals were seeded
       first, so a single reverse restores declaration order. *)
    let declared = Hashtbl.create (List.length p.locals) in
    List.iter (fun vd -> Hashtbl.replace declared vd.var_name ()) p.locals;
    let gen_locals =
      List.filter (fun vd -> not (Hashtbl.mem declared vd.var_name)) st.locals
    in
    Ok
      { kname = p.proc_name;
        kinputs = List.map remark_norm p.inputs;
        koutputs = List.map remark_norm p.outputs;
        klocals = List.map remark_norm (p.locals @ List.rev gen_locals);
        keqs = List.rev st.eqs;
        kconstraints = List.rev st.constraints;
        kinstances = List.rev st.instances;
        kpartials = List.rev st.partials }
  with Error (sp, m) ->
    Error
      (Putil.Diag.errorf ?span:sp ~code:code_norm "normalize %s: %s"
         p.proc_name m)

let process ?program ?params p = process_gen ?program ?params ~lm:None p

type linked = {
  lk_kernel : kprocess;
  lk_glue : kprocess;
  lk_links : link list;
}

let process_linked ?program ~precomputed p =
  let run ~opaque :
      (kprocess * link list, Putil.Diag.t) result =
    let lm = { lm_pre = precomputed; lm_opaque = opaque; lm_links = [] } in
    match process_gen ?program ~lm:(Some lm) p with
    | Ok kp -> Ok (kp, List.rev lm.lm_links)
    | Error d -> Error d
  in
  match run ~opaque:false with
  | Error d -> Stdlib.Error d
  | Ok (kernel, links) -> (
    (* The glue traversal repeats only the host-side work; host temp
       numbering is identical in both runs, so interface bindings in
       [links] are valid for the glue kernel too. *)
    match run ~opaque:true with
    | Error d -> Stdlib.Error d
    | Ok (glue, _) ->
      Ok { lk_kernel = kernel; lk_glue = glue; lk_links = links })

let process_exn ?program ?params p =
  match process ?program ?params p with
  | Ok kp -> kp
  | Error d -> raise (Normalize_error d)
