open Syntax

type instance = {
  i_name : string;
  i_path : string;
  i_category : category;
  i_classifier : string;
  i_features : feature list;
  i_props : property_assoc list;
  i_modes : mode list;
  i_transitions : mode_transition list;
  i_children : instance list;
  i_loc : loc;
}

type conn_inst = {
  ci_kind : connection_kind;
  ci_src : string;
  ci_dst : string;
  ci_immediate : bool;
}

type t = {
  root : instance;
  connections : conn_inst list;
  bindings : (string * string) list;
  shape : string;
}

exception Inst_error of string

(* Stable instantiation error codes. *)
let code_unknown_package =
  Putil.Diag.code "AADL-INST-001" "unknown package in a qualified classifier"
let code_unresolved =
  Putil.Diag.code "AADL-INST-002"
    "classifier does not resolve to a component type or implementation"
let code_category =
  Putil.Diag.code "AADL-INST-003"
    "subcomponent category differs from its classifier's category"
let code_no_classifier =
  Putil.Diag.code "AADL-INST-004" "subcomponent without a classifier"

(* Internal carrier keeping the code and declaration position; the
   public Inst_error keeps its message-only shape for compatibility. *)
exception Ierror of string * string * Syntax.loc

let errf ?(code = code_unresolved) ?(loc = Syntax.no_loc) fmt =
  Format.kasprintf (fun m -> raise (Ierror (code, m, loc))) fmt

(* A resolution environment: the package being elaborated plus every
   other package in scope ([with] imports are not enforced — any
   package passed as context is visible under its qualified name). *)
type env = {
  current : package;
  context : package list;
}

(* Split "Pkg::name" into its package and the local classifier. *)
let split_qualified name =
  match String.index_opt name ':' with
  | Some i when i + 1 < String.length name && name.[i + 1] = ':' ->
    Some
      ( String.sub name 0 i,
        String.sub name (i + 2) (String.length name - i - 2) )
  | Some _ | None -> None

(* Resolve a classifier name to (defining package, type, impl option);
   subcomponents of a library component resolve within that library. *)
let resolve_classifier ?loc env name =
  let pkg, local =
    match split_qualified name with
    | None -> (env.current, name)
    | Some (pkg_name, local) -> (
      match
        List.find_opt
          (fun p ->
            String.lowercase_ascii p.pkg_name
            = String.lowercase_ascii pkg_name)
          (env.current :: env.context)
      with
      | Some p -> (p, local)
      | None ->
        errf ~code:code_unknown_package ?loc
          "unknown package %s in classifier %s" pkg_name name)
  in
  let tname = impl_base_name local in
  let ct =
    match find_type pkg tname with
    | Some ct -> ct
    | None -> errf ?loc "unknown component type %s" local
  in
  let ci =
    if String.contains local '.' then
      match find_impl pkg local with
      | Some ci -> Some ci
      | None -> errf ?loc "unknown component implementation %s" local
    else find_impl pkg (local ^ ".impl")
    (* a bare type name resolves to its ".impl" when it exists, the
       OSATE convention for default implementations *)
  in
  (pkg, ct, ci)

let rec build env ~loc ~path ~name ~category:cat ~classifier ~extra_props =
  let def_pkg, ct, ci = resolve_classifier ~loc env classifier in
  let env = { env with current = def_pkg } in
  if ct.ct_category <> cat then
    errf ~code:code_category ~loc
      "subcomponent %s: category mismatch (%s declared, %s classifier)"
      name
      (category_to_string cat)
      (category_to_string ct.ct_category);
  let impl_props = match ci with Some ci -> ci.ci_properties | None -> [] in
  let props = ct.ct_properties @ impl_props @ extra_props in
  let children =
    match ci with
    | None -> []
    | Some ci ->
      List.map
        (fun sc ->
          let sub_classifier =
            match sc.sc_classifier with
            | Some c -> c
            | None when sc.sc_category = Data ->
              (* anonymous data subcomponent: synthesize an int cell *)
              "__anonymous_data__"
            | None ->
              errf ~code:code_no_classifier ~loc:sc.sc_loc
                "subcomponent %s.%s has no classifier" name sc.sc_name
          in
          if sub_classifier = "__anonymous_data__" then
            { i_name = sc.sc_name;
              i_path = path ^ "." ^ sc.sc_name;
              i_category = Data;
              i_classifier = "";
              i_features = [];
              i_props = sc.sc_properties;
              i_modes = [];
              i_transitions = [];
              i_children = [];
              i_loc = sc.sc_loc }
          else
            build env ~loc:sc.sc_loc
              ~path:(path ^ "." ^ sc.sc_name)
              ~name:sc.sc_name ~category:sc.sc_category
              ~classifier:sub_classifier ~extra_props:sc.sc_properties)
        ci.ci_subcomponents
  in
  { i_name = name; i_path = path; i_category = cat;
    i_classifier = classifier; i_features = ct.ct_features;
    i_props = props; i_modes = ct.ct_modes;
    i_transitions = ct.ct_transitions; i_children = children;
    (* prefer the subcomponent declaration site; fall back to the
       classifier's component type *)
    i_loc = (if loc <> no_loc then loc else ct.ct_loc) }

(* Collect declared connections of every implementation level, with
   endpoints turned into absolute paths. *)
let rec collect_connections env inst acc =
  let ci =
    if inst.i_classifier = "" then None
    else
      let _, _, ci = resolve_classifier env inst.i_classifier in
      ci
  in
  let acc =
    match ci with
    | None -> acc
    | Some ci ->
      List.fold_left
        (fun acc conn ->
          let absolutize endpoint = inst.i_path ^ "." ^ endpoint in
          { ci_kind = conn.conn_kind;
            ci_src = absolutize conn.conn_src;
            ci_dst = absolutize conn.conn_dst;
            ci_immediate = conn.immediate }
          :: acc)
        acc ci.ci_connections
  in
  List.fold_left (fun acc child -> collect_connections env child acc) acc
    inst.i_children

let rec collect_bindings inst acc =
  let own =
    List.map
      (fun (part, cpu) -> (inst.i_path ^ "." ^ part, inst.i_path ^ "." ^ cpu))
      (Props.processor_bindings inst.i_props)
  in
  List.fold_left (fun acc child -> collect_bindings child acc)
    (own @ acc) inst.i_children

let instantiate_raw ?(context = []) pkg ~root =
  let env = { current = pkg; context } in
  let cat =
    let _, ct, _ = resolve_classifier env root in
    ct.ct_category
  in
  let name =
    let local =
      match split_qualified root with Some (_, l) -> l | None -> root
    in
    impl_base_name local
  in
  let inst =
    build env ~loc:Syntax.no_loc ~path:name ~name ~category:cat
      ~classifier:root ~extra_props:[]
  in
  let connections = List.rev (collect_connections env inst []) in
  let bindings = collect_bindings inst [] in
  (* the instance is a function of the root and these packages; the
     shapes are fixed-length digests, so the root goes first *)
  let shape =
    Digest.string
      (String.concat ""
         ((root ^ "\x00") :: List.map (fun p -> p.pkg_shape) (pkg :: context)))
  in
  { root = inst; connections; bindings; shape }

let instantiate_exn ?context pkg ~root =
  try instantiate_raw ?context pkg ~root
  with Ierror (_, m, _) -> raise (Inst_error m)

let instantiate ?context pkg ~root =
  match instantiate_exn ?context pkg ~root with
  | t -> Ok t
  | exception Inst_error m -> Error m

let instantiate_diag ?file ?context pkg ~root =
  Putil.Tracing.with_span "aadl.instantiate"
    ~args:[ ("root", Putil.Tracing.Astr root) ]
  @@ fun () ->
  match instantiate_raw ?context pkg ~root with
  | t -> Ok t
  | exception Ierror (code, m, loc) ->
    let span =
      if loc.l_line > 0 then
        Some (Putil.Diag.span ?file ~line:loc.l_line ~col:loc.l_col ())
      else None
    in
    Error [ Putil.Diag.errorf ?span ~code "%s" m ]

let rec walk inst acc = inst :: List.fold_right walk inst.i_children acc

let all_instances t = walk t.root []

let find t path =
  List.find_opt (fun i -> String.equal i.i_path path) (all_instances t)

let instances_of_category t cat =
  List.filter (fun i -> i.i_category = cat) (all_instances t)

let threads t = instances_of_category t Thread

(* Split "a.b.c.f" into component path "a.b.c" and feature "f". *)
let split_feature_path path =
  match String.rindex_opt path '.' with
  | None -> None
  | Some i ->
    Some (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))

let feature_of_path t path =
  match split_feature_path path with
  | None -> None
  | Some (comp, fname) -> (
    match find t comp with
    | None -> None
    | Some inst ->
      List.find_opt
        (fun f -> String.equal (feature_name f) fname)
        inst.i_features
      |> Option.map (fun f -> (inst, f)))

(* A feature path is terminal when no declared connection continues the
   chain from it (in the direction of data flow). *)
let semantic_connections t =
  let continues_from src =
    List.filter (fun c -> String.equal c.ci_src src) t.connections
  in
  let is_chain_start c =
    (* no connection ends at this connection's source *)
    not (List.exists (fun c' -> String.equal c'.ci_dst c.ci_src) t.connections)
  in
  let rec chase c =
    match continues_from c.ci_dst with
    | [] -> [ c ]
    | nexts ->
      List.concat_map
        (fun n ->
          chase
            { ci_kind = c.ci_kind;
              ci_src = c.ci_src;
              ci_dst = n.ci_dst;
              ci_immediate = c.ci_immediate && n.ci_immediate })
        nexts
  in
  List.concat_map chase (List.filter is_chain_start t.connections)

let rec pp_instance ppf ~indent inst =
  let pad = String.make indent ' ' in
  Format.fprintf ppf "%s%s %s"
    pad
    (category_to_string inst.i_category)
    inst.i_name;
  if inst.i_classifier <> "" && inst.i_classifier <> inst.i_name then
    Format.fprintf ppf " : %s" inst.i_classifier;
  (match Props.period_us inst.i_props with
   | Some p -> Format.fprintf ppf "  [period %d us]" p
   | None -> ());
  Format.fprintf ppf "@,";
  List.iter
    (fun f ->
      Format.fprintf ppf "%s  . %s@," pad (feature_name f))
    inst.i_features;
  List.iter (pp_instance ppf ~indent:(indent + 2)) inst.i_children

let pp_tree ppf t =
  Format.fprintf ppf "@[<v>";
  pp_instance ppf ~indent:0 t.root;
  List.iter
    (fun c ->
      Format.fprintf ppf "conn %s %s %s@," c.ci_src
        (if c.ci_immediate then "->" else "->>")
        c.ci_dst)
    t.connections;
  List.iter
    (fun (part, cpu) -> Format.fprintf ppf "binding %s on %s@," part cpu)
    t.bindings;
  Format.fprintf ppf "@]"
