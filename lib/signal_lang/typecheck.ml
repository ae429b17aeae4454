open Ast

type error = {
  err_proc : string;
  err_msg : string;
  err_code : string;
  err_signal : string option;
}

(* Stable SIGNAL typing codes. *)
let code_dup_decl =
  Putil.Diag.code "SIG-TYPE-001" "duplicate declaration in a process interface"
let code_undeclared =
  Putil.Diag.code "SIG-TYPE-002" "undeclared signal referenced or defined"
let code_def_input =
  Putil.Diag.code "SIG-TYPE-003" "definition of an input or parameter"
let code_multi_def =
  Putil.Diag.code "SIG-TYPE-004" "conflicting definitions of a signal"
let code_expr = Putil.Diag.code "SIG-TYPE-005" "ill-typed expression"
let code_instance =
  Putil.Diag.code "SIG-TYPE-006" "ill-formed process instance"
let code_undefined =
  Putil.Diag.code "SIG-TYPE-007" "output or local signal is never defined"

let pp_error ppf e =
  Format.fprintf ppf "process %s: %s" e.err_proc e.err_msg

let error_to_string e = Format.asprintf "%a" pp_error e

(* [event] promotes to [boolean]. *)
let compatible expected actual =
  expected = actual || (expected = Types.Tbool && actual = Types.Tevent)

let join t1 t2 =
  if t1 = t2 then Some t1
  else
    match t1, t2 with
    | Types.Tbool, Types.Tevent | Types.Tevent, Types.Tbool -> Some Types.Tbool
    | _ -> None

let type_of_expr env expr =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let rec infer e =
    match desc e with
    | Econst v -> Ok (Types.type_of_value v)
    | Evar x -> (
      match env x with
      | Some t -> Ok t
      | None -> err "undeclared signal %s" x)
    | Eunop (Not, e) ->
      let* t = infer e in
      if compatible Types.Tbool t then Ok Types.Tbool
      else err "operand of 'not' has type %s" (Types.styp_to_string t)
    | Eunop (Neg, e) ->
      let* t = infer e in
      (match t with
       | Types.Tint | Types.Treal -> Ok t
       | _ -> err "operand of unary '-' has type %s" (Types.styp_to_string t))
    | Ebinop ((Add | Sub | Mul | Div | Mod) as op, e1, e2) ->
      let* t1 = infer e1 in
      let* t2 = infer e2 in
      (match t1, t2 with
       | Types.Tint, Types.Tint -> Ok Types.Tint
       | Types.Treal, Types.Treal when op <> Mod -> Ok Types.Treal
       | _ ->
         err "arithmetic on %s and %s"
           (Types.styp_to_string t1) (Types.styp_to_string t2))
    | Ebinop ((And | Or | Xor), e1, e2) ->
      let* t1 = infer e1 in
      let* t2 = infer e2 in
      if compatible Types.Tbool t1 && compatible Types.Tbool t2 then
        Ok Types.Tbool
      else
        err "boolean operator on %s and %s"
          (Types.styp_to_string t1) (Types.styp_to_string t2)
    | Ebinop ((Eq | Neq | Lt | Le | Gt | Ge), e1, e2) ->
      let* t1 = infer e1 in
      let* t2 = infer e2 in
      (match join t1 t2 with
       | Some _ -> Ok Types.Tbool
       | None ->
         err "comparison of %s and %s"
           (Types.styp_to_string t1) (Types.styp_to_string t2))
    | Eif (c, t, f) ->
      let* tc = infer c in
      if not (compatible Types.Tbool tc) then
        err "condition of 'if' has type %s" (Types.styp_to_string tc)
      else
        let* tt = infer t in
        let* tf = infer f in
        (match join tt tf with
         | Some ty -> Ok ty
         | None ->
           err "branches of 'if' have types %s and %s"
             (Types.styp_to_string tt) (Types.styp_to_string tf))
    | Edelay (e, init) ->
      let* t = infer e in
      let ti = Types.type_of_value init in
      (match join t ti with
       | Some ty -> Ok ty
       | None ->
         err "delay of %s initialised with %s"
           (Types.styp_to_string t) (Types.styp_to_string ti))
    | Ewhen (e, b) ->
      let* tb = infer b in
      if not (compatible Types.Tbool tb) then
        err "sampling condition has type %s" (Types.styp_to_string tb)
      else infer e
    | Edefault (e1, e2) ->
      let* t1 = infer e1 in
      let* t2 = infer e2 in
      (match join t1 t2 with
       | Some ty -> Ok ty
       | None ->
         err "merge of %s and %s"
           (Types.styp_to_string t1) (Types.styp_to_string t2))
    | Eclock _ -> Ok Types.Tevent
  in
  infer expr

module SMap = Map.Make (String)

let declared_env p =
  let add acc vd = SMap.add vd.var_name vd.var_type acc in
  let env = List.fold_left add SMap.empty p.params in
  let env = List.fold_left add env p.inputs in
  let env = List.fold_left add env p.outputs in
  List.fold_left add env p.locals

(* Resolve a process-model name: local subprocesses shadow global
   models, which shadow the AADL2SIGNAL library. *)
let resolve_model ~program ~host name =
  match find_subprocess host name with
  | Some p -> Some p
  | None -> (
    match Option.bind program (fun prog -> find_process prog name) with
    | Some p -> Some p
    | None -> List.find_opt (fun p -> String.equal p.proc_name name) Stdproc.all)

let rec check_process ?program p =
  let errors = ref [] in
  let err ?signal ~code fmt =
    Format.kasprintf
      (fun m ->
        errors :=
          { err_proc = p.proc_name; err_msg = m; err_code = code;
            err_signal = signal }
          :: !errors)
      fmt
  in
  (* 1. distinct declarations *)
  let all_decls = p.params @ p.inputs @ p.outputs @ p.locals in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun vd ->
      if Hashtbl.mem seen vd.var_name then
        err ~signal:vd.var_name ~code:code_dup_decl
          "duplicate declaration of %s" vd.var_name
      else Hashtbl.add seen vd.var_name ())
    all_decls;
  let env = declared_env p in
  let lookup x = SMap.find_opt x env in
  let is_input x =
    List.exists (fun vd -> String.equal vd.var_name x) p.inputs
    || List.exists (fun vd -> String.equal vd.var_name x) p.params
  in
  (* 2. definition discipline *)
  let total = Hashtbl.create 16 and partial = Hashtbl.create 16 in
  let record_def ~partial:is_partial x =
    if not (SMap.mem x env) then
      err ~signal:x ~code:code_undeclared
        "definition of undeclared signal %s" x
    else if is_input x then
      err ~signal:x ~code:code_def_input
        "definition of input or parameter %s" x
    else if is_partial then Hashtbl.replace partial x ()
    else if Hashtbl.mem total x then
      err ~signal:x ~code:code_multi_def "signal %s defined twice" x
    else Hashtbl.replace total x ()
  in
  let check_expr e =
    match type_of_expr lookup e with
    | Ok _ -> ()
    | Error m -> err ~code:code_expr "%s" m
  in
  let check_expr_against ?signal ~what expected e =
    match type_of_expr lookup e with
    | Ok t ->
      if not (compatible expected t || join expected t <> None) then
        err ?signal ~code:code_expr "%s: expected %s, got %s" what
          (Types.styp_to_string expected) (Types.styp_to_string t)
    | Error m -> err ?signal ~code:code_expr "%s" m
  in
  let check_stmt (st : stmt) =
    match desc st with
    | Sdef (x, e) ->
      record_def ~partial:false x;
      (match lookup x with
       | Some tx ->
         check_expr_against ~signal:x ~what:("definition of " ^ x) tx e
       | None -> check_expr e)
    | Spartial (x, e) ->
      record_def ~partial:true x;
      (match lookup x with
       | Some tx ->
         check_expr_against ~signal:x
           ~what:("partial definition of " ^ x) tx e
       | None -> check_expr e)
    | Sclk_eq (e1, e2) | Sclk_le (e1, e2) | Sclk_ex (e1, e2) ->
      check_expr e1; check_expr e2
    | Sinstance inst -> (
      List.iter check_expr inst.inst_ins;
      List.iter (fun x -> record_def ~partial:false x) inst.inst_outs;
      match resolve_model ~program ~host:p inst.inst_proc with
      | None ->
        err ~code:code_instance "instance %s: unknown process %s"
          inst.inst_label inst.inst_proc
      | Some model ->
        if List.length inst.inst_ins <> List.length model.inputs then
          err ~code:code_instance
            "instance %s of %s: %d inputs given, %d expected"
            inst.inst_label inst.inst_proc
            (List.length inst.inst_ins) (List.length model.inputs);
        if List.length inst.inst_outs <> List.length model.outputs then
          err ~code:code_instance
            "instance %s of %s: %d outputs given, %d expected"
            inst.inst_label inst.inst_proc
            (List.length inst.inst_outs) (List.length model.outputs);
        if List.length inst.inst_params <> List.length model.params then
          err ~code:code_instance
            "instance %s of %s: %d params given, %d expected"
            inst.inst_label inst.inst_proc
            (List.length inst.inst_params) (List.length model.params);
        List.iteri
          (fun k e ->
            match List.nth_opt model.inputs k with
            | Some vd ->
              check_expr_against
                ~what:(Printf.sprintf "instance %s input %s" inst.inst_label
                         vd.var_name)
                vd.var_type e
            | None -> ())
          inst.inst_ins;
        List.iteri
          (fun k x ->
            match List.nth_opt model.outputs k, lookup x with
            | Some vd, Some tx ->
              if join vd.var_type tx = None then
                err ~signal:x ~code:code_instance
                  "instance %s output %s: %s connected to %s of type %s"
                  inst.inst_label vd.var_name
                  (Types.styp_to_string vd.var_type) x (Types.styp_to_string tx)
            | _, None | None, _ -> ())
          inst.inst_outs)
  in
  List.iter check_stmt p.body;
  (* 3. totality: every output/local is defined somehow; primitive
     models (simulator-native value semantics) are exempt *)
  let is_primitive = List.mem_assoc "primitive" p.pragmas in
  let is_defined x = Hashtbl.mem total x || Hashtbl.mem partial x in
  if not is_primitive then begin
    List.iter
      (fun vd ->
        if not (is_defined vd.var_name) then
          err ~signal:vd.var_name ~code:code_undefined
            "output %s is never defined" vd.var_name)
      p.outputs;
    List.iter
      (fun vd ->
        if not (is_defined vd.var_name) then
          err ~signal:vd.var_name ~code:code_undefined
            "local %s is never defined" vd.var_name)
      p.locals
  end;
  Hashtbl.iter
    (fun x () ->
      if Hashtbl.mem partial x then
        err ~signal:x ~code:code_multi_def
          "signal %s has both total and partial definitions" x)
    total;
  (* 4. recurse into local models *)
  let sub_errors =
    List.concat_map (fun sub -> check_process ?program sub) p.subprocesses
  in
  List.rev !errors @ sub_errors

let check_program prog =
  List.concat_map (fun p -> check_process ~program:prog p) prog.processes

(* ------------------------- type annotation ------------------------ *)

(* Mark-transforming elaboration: re-mark a parsed tree as [typed],
   attaching the inferred type to every expression node. Best-effort
   and total — ill-typed nodes get [None]; the error list comes from
   [check_process]. *)

let rec annotate env (e : expr) : typed gexpr =
  let sp = span e in
  let ty e' = mark_ty (mark e') in
  match desc e with
  | Econst v -> (Econst v, Mtyped (sp, Some (Types.type_of_value v)))
  | Evar x -> (Evar x, Mtyped (sp, env x))
  | Eunop (op, e1) ->
    let e1' = annotate env e1 in
    let t =
      match op with
      | Not -> Some Types.Tbool
      | Neg -> ty e1'
    in
    (Eunop (op, e1'), Mtyped (sp, t))
  | Ebinop (op, e1, e2) ->
    let e1' = annotate env e1 and e2' = annotate env e2 in
    let t =
      match op with
      | Add | Sub | Mul | Div | Mod -> (
        match ty e1', ty e2' with
        | Some Types.Tint, Some Types.Tint -> Some Types.Tint
        | Some Types.Treal, Some Types.Treal when op <> Mod ->
          Some Types.Treal
        | _ -> None)
      | And | Or | Xor -> Some Types.Tbool
      | Eq | Neq | Lt | Le | Gt | Ge -> Some Types.Tbool
    in
    (Ebinop (op, e1', e2'), Mtyped (sp, t))
  | Eif (c, t, f) ->
    let c' = annotate env c and t' = annotate env t and f' = annotate env f in
    let tt =
      match ty t', ty f' with
      | Some a, Some b -> join a b
      | _ -> None
    in
    (Eif (c', t', f'), Mtyped (sp, tt))
  | Edelay (e1, init) ->
    let e1' = annotate env e1 in
    let t =
      match ty e1' with
      | Some a -> join a (Types.type_of_value init)
      | None -> None
    in
    (Edelay (e1', init), Mtyped (sp, t))
  | Ewhen (e1, b) ->
    let e1' = annotate env e1 and b' = annotate env b in
    (Ewhen (e1', b'), Mtyped (sp, ty e1'))
  | Edefault (e1, e2) ->
    let e1' = annotate env e1 and e2' = annotate env e2 in
    let t =
      match ty e1', ty e2' with
      | Some a, Some b -> join a b
      | Some a, None | None, Some a -> Some a
      | None, None -> None
    in
    (Edefault (e1', e2'), Mtyped (sp, t))
  | Eclock e1 ->
    (Eclock (annotate env e1), Mtyped (sp, Some Types.Tevent))

let annotate_stmt env (st : stmt) : typed gstmt =
  let sp = span st in
  let d =
    match desc st with
    | Sdef (x, e) -> Sdef (x, annotate env e)
    | Spartial (x, e) -> Spartial (x, annotate env e)
    | Sclk_eq (e1, e2) -> Sclk_eq (annotate env e1, annotate env e2)
    | Sclk_le (e1, e2) -> Sclk_le (annotate env e1, annotate env e2)
    | Sclk_ex (e1, e2) -> Sclk_ex (annotate env e1, annotate env e2)
    | Sinstance i ->
      Sinstance
        { inst_label = i.inst_label; inst_proc = i.inst_proc;
          inst_ins = List.map (annotate env) i.inst_ins;
          inst_outs = i.inst_outs; inst_params = i.inst_params }
  in
  (d, Mtyped (sp, None))

let annotate_vardecl (vd : vardecl) : typed gvardecl =
  { var_name = vd.var_name; var_type = vd.var_type;
    var_mark = Mtyped (mark_span vd.var_mark, Some vd.var_type) }

let rec type_process (p : process) : typed gprocess =
  let env = declared_env p in
  let lookup x = SMap.find_opt x env in
  { proc_name = p.proc_name;
    params = List.map annotate_vardecl p.params;
    inputs = List.map annotate_vardecl p.inputs;
    outputs = List.map annotate_vardecl p.outputs;
    locals = List.map annotate_vardecl p.locals;
    body = List.map (annotate_stmt lookup) p.body;
    subprocesses = List.map type_process p.subprocesses;
    pragmas = p.pragmas }
