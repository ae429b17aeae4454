open Syntax

exception Parse_error of string * int * int

(* Stable parser error codes (registered in Putil.Diag's registry). *)
let code_syntax = Putil.Diag.code "AADL-PARSE-001" "AADL syntax error"
let code_trailing =
  Putil.Diag.code "AADL-PARSE-002" "trailing input after a complete package"
let code_mismatched_end =
  Putil.Diag.code "AADL-PARSE-003"
    "'end' name does not match the declaration it closes"
let code_empty =
  Putil.Diag.code "AADL-PARSE-004" "source contains no package"
let code_lex = Putil.Diag.code "AADL-LEX-001" "AADL lexical error"

(* Internal error carrier keeping the code alongside the position; the
   public Parse_error drops the code for compatibility. *)
exception Perror of string * string * int * int

type state = {
  toks : Lexer.positioned array;
  mutable idx : int;
}

let cur st = st.toks.(st.idx)

let peek_tok st = (cur st).Lexer.tok

let loc_of st =
  let { Lexer.line; col; _ } = cur st in
  Syntax.loc ~line ~col

let advance st = if st.idx < Array.length st.toks - 1 then st.idx <- st.idx + 1

let error ?(code = code_syntax) st fmt =
  let { Lexer.line; col; tok; _ } = cur st in
  Format.kasprintf
    (fun m ->
      raise
        (Perror
           (code,
            Printf.sprintf "%s (at '%s')" m (Lexer.token_to_string tok),
            line, col)))
    fmt

let expect st tok =
  if peek_tok st = tok then advance st
  else error st "expected '%s'" (Lexer.token_to_string tok)

(* Case-insensitive keyword handling. *)
let kw_eq a b = String.lowercase_ascii a = String.lowercase_ascii b

let peek_kw st =
  match peek_tok st with
  | Lexer.IDENT s -> Some (String.lowercase_ascii s)
  | _ -> None

let accept_kw st kw =
  match peek_tok st with
  | Lexer.IDENT s when kw_eq s kw ->
    advance st;
    true
  | _ -> false

let expect_kw st kw =
  if not (accept_kw st kw) then error st "expected keyword '%s'" kw

let ident st =
  match peek_tok st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> error st "expected identifier"

(* qualified name: a::b::c *)
let qname st =
  let first = ident st in
  let rec go acc =
    if peek_tok st = Lexer.COLONCOLON then begin
      advance st;
      let next = ident st in
      go (acc ^ "::" ^ next)
    end
    else acc
  in
  go first

(* dot path: a.b.c *)
let dot_path st =
  let first = qname st in
  let rec go acc =
    if peek_tok st = Lexer.DOT then begin
      advance st;
      let next = ident st in
      go (acc ^ "." ^ next)
    end
    else acc
  in
  go first

(* ------------------------------------------------------------------ *)
(* Categories                                                          *)
(* ------------------------------------------------------------------ *)

(* Try to read a component category at the cursor (multi-word ones
   included). Does not consume on failure. *)
let try_category st =
  match peek_kw st with
  | Some "system" -> advance st; Some System
  | Some "process" -> advance st; Some Process
  | Some "thread" ->
    advance st;
    if accept_kw st "group" then Some Thread_group else Some Thread
  | Some "subprogram" -> advance st; Some Subprogram
  | Some "data" -> advance st; Some Data
  | Some "processor" -> advance st; Some Processor
  | Some "memory" -> advance st; Some Memory
  | Some "bus" -> advance st; Some Bus
  | Some "device" -> advance st; Some Device
  | Some "virtual" ->
    advance st;
    if accept_kw st "processor" then Some Virtual_processor
    else if accept_kw st "bus" then Some Virtual_bus
    else error st "expected 'processor' or 'bus' after 'virtual'"
  | _ -> None

let category st =
  match try_category st with
  | Some c -> c
  | None -> error st "expected component category"

(* ------------------------------------------------------------------ *)
(* Property values                                                     *)
(* ------------------------------------------------------------------ *)

let rec property_value st =
  let base =
    match peek_tok st with
    | Lexer.INT n ->
      advance st;
      (* a unit is any identifier except the 'applies' keyword *)
      let unit_ =
        match peek_kw st with
        | Some u when u <> "applies" ->
          advance st;
          Some u
        | _ -> None
      in
      Pint (n, unit_)
    | Lexer.REAL r ->
      advance st;
      let unit_ =
        match peek_kw st with
        | Some u when u <> "applies" ->
          advance st;
          Some u
        | _ -> None
      in
      Preal (r, unit_)
    | Lexer.STRING s ->
      advance st;
      Pstring s
    | Lexer.LPAREN ->
      advance st;
      if peek_tok st = Lexer.RPAREN then begin
        advance st;
        Plist []
      end
      else begin
        let first = property_value st in
        let rec items acc =
          if peek_tok st = Lexer.COMMA then begin
            advance st;
            let v = property_value st in
            items (v :: acc)
          end
          else acc
        in
        let vs = List.rev (items [ first ]) in
        expect st Lexer.RPAREN;
        match vs with
        | [ _one ] -> Plist vs  (* keep singleton lists as lists *)
        | _ -> Plist vs
      end
    | Lexer.LBRACKET ->
      (* record values, e.g. [Time => Start; Offset => 0 ms .. 0 ms;] —
         we keep only the Time field as a name, a simplification of the
         AADL timing record *)
      advance st;
      let fields = ref [] in
      let rec go () =
        match peek_tok st with
        | Lexer.RBRACKET -> advance st
        | Lexer.IDENT _ ->
          let fname = ident st in
          expect st Lexer.ASSOC;
          let v = property_value st in
          fields := (String.lowercase_ascii fname, v) :: !fields;
          if peek_tok st = Lexer.SEMI then advance st;
          go ()
        | _ -> error st "expected field or ']' in record value"
      in
      go ();
      (match List.assoc_opt "time" !fields with
       | Some v -> v
       | None -> Plist (List.map snd !fields))
    | Lexer.IDENT s when kw_eq s "true" ->
      advance st;
      Pbool true
    | Lexer.IDENT s when kw_eq s "false" ->
      advance st;
      Pbool false
    | Lexer.IDENT s when kw_eq s "reference" ->
      advance st;
      expect st Lexer.LPAREN;
      let p = dot_path st in
      expect st Lexer.RPAREN;
      Preference p
    | Lexer.IDENT s when kw_eq s "classifier" ->
      advance st;
      expect st Lexer.LPAREN;
      let p = dot_path st in
      expect st Lexer.RPAREN;
      Pclassifier p
    | Lexer.IDENT _ ->
      let n = dot_path st in
      Pname n
    | _ -> error st "expected property value"
  in
  if peek_tok st = Lexer.DOTDOT then begin
    advance st;
    let hi = property_value st in
    Prange (base, hi)
  end
  else base

let property_assoc st =
  let pa_loc = loc_of st in
  let pname = qname st in
  (match peek_tok st with
   | Lexer.ASSOC | Lexer.PLUS_ASSOC -> advance st
   | _ -> error st "expected '=>'");
  let pvalue = property_value st in
  let applies_to =
    if accept_kw st "applies" then begin
      expect_kw st "to";
      let first = dot_path st in
      let rec go acc =
        if peek_tok st = Lexer.COMMA then begin
          advance st;
          let p = dot_path st in
          go (p :: acc)
        end
        else List.rev acc
      in
      go [ first ]
    end
    else []
  in
  expect st Lexer.SEMI;
  { pname; pvalue; applies_to; pa_loc }

(* properties section: 'properties' (assoc ';')* or 'none ;' *)
let properties_section st =
  if accept_kw st "none" then begin
    expect st Lexer.SEMI;
    []
  end
  else begin
    let rec go acc =
      match peek_tok st with
      | Lexer.IDENT s
        when not
               (List.mem (String.lowercase_ascii s)
                  [ "end"; "features"; "subcomponents"; "connections";
                    "properties"; "calls"; "flows"; "modes"; "annex" ]) ->
        let pa = property_assoc st in
        go (pa :: acc)
      | _ -> List.rev acc
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Features                                                            *)
(* ------------------------------------------------------------------ *)

let direction st =
  if accept_kw st "in" then
    if accept_kw st "out" then Dinout else Din
  else if accept_kw st "out" then Dout
  else error st "expected port direction"

let feature st =
  let floc = loc_of st in
  let fname = ident st in
  expect st Lexer.COLON;
  let f =
    let is_requires = accept_kw st "requires" in
    let is_provides = (not is_requires) && accept_kw st "provides" in
    if is_requires || is_provides then begin
      let provided = is_provides in
      if accept_kw st "data" then begin
        expect_kw st "access";
        let dtype =
          match peek_tok st with
          | Lexer.IDENT _ -> Some (dot_path st)
          | _ -> None
        in
        let right = ref Read_write in
        if peek_tok st = Lexer.LBRACE then begin
          advance st;
          let rec go () =
            match peek_tok st with
            | Lexer.RBRACE -> advance st
            | _ ->
              let pa = property_assoc st in
              (if kw_eq pa.pname "Access_Right" then
                 match pa.pvalue with
                 | Pname n when kw_eq n "read_only" -> right := Read_only
                 | Pname n when kw_eq n "write_only" -> right := Write_only
                 | _ -> ());
              go ()
          in
          go ()
        end;
        Data_access { fname; dtype; right = !right; provided; floc }
      end
      else if accept_kw st "subprogram" then begin
        expect_kw st "access";
        let spec =
          match peek_tok st with
          | Lexer.IDENT _ -> Some (dot_path st)
          | _ -> None
        in
        Subprogram_access { fname; spec; provided; floc }
      end
      else error st "expected 'data access' or 'subprogram access'"
    end
    else begin
      let dir = direction st in
      let kind =
        if accept_kw st "event" then
          if accept_kw st "data" then begin
            expect_kw st "port";
            Event_data_port
          end
          else begin
            expect_kw st "port";
            Event_port
          end
        else if accept_kw st "data" then begin
          expect_kw st "port";
          Data_port
        end
        else error st "expected port kind"
      in
      let dtype =
        match peek_tok st with
        | Lexer.IDENT s
          when not (kw_eq s "applies") ->
          Some (dot_path st)
        | _ -> None
      in
      (* optional property block *)
      let fprops = ref [] in
      if peek_tok st = Lexer.LBRACE then begin
        advance st;
        let rec go () =
          match peek_tok st with
          | Lexer.RBRACE -> advance st
          | _ ->
            let pa = property_assoc st in
            fprops := pa :: !fprops;
            go ()
        in
        go ()
      end;
      Port { fname; dir; kind; dtype; fprops = List.rev !fprops; floc }
    end
  in
  expect st Lexer.SEMI;
  f

let features_section st =
  if accept_kw st "none" then begin
    expect st Lexer.SEMI;
    []
  end
  else begin
    let rec go acc =
      match peek_tok st, peek_kw st with
      | Lexer.IDENT _, Some kw
        when not
               (List.mem kw
                  [ "end"; "properties"; "subcomponents"; "connections";
                    "flows"; "modes"; "annex" ]) ->
        let f = feature st in
        go (f :: acc)
      | _ -> List.rev acc
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Subcomponents and connections                                       *)
(* ------------------------------------------------------------------ *)

let subcomponent st =
  let sc_loc = loc_of st in
  let sc_name = ident st in
  expect st Lexer.COLON;
  let sc_category = category st in
  let sc_classifier =
    match peek_tok st with
    | Lexer.IDENT s when not (kw_eq s "applies") -> Some (dot_path st)
    | _ -> None
  in
  let sc_properties = ref [] in
  if peek_tok st = Lexer.LBRACE then begin
    advance st;
    let rec go () =
      match peek_tok st with
      | Lexer.RBRACE -> advance st
      | _ ->
        let pa = property_assoc st in
        sc_properties := pa :: !sc_properties;
        go ()
    in
    go ()
  end;
  expect st Lexer.SEMI;
  { sc_name; sc_category; sc_classifier;
    sc_properties = List.rev !sc_properties; sc_loc }

let subcomponents_section st =
  if accept_kw st "none" then begin
    expect st Lexer.SEMI;
    []
  end
  else begin
    let rec go acc =
      match peek_tok st, peek_kw st with
      | Lexer.IDENT _, Some kw
        when not
               (List.mem kw
                  [ "end"; "properties"; "connections"; "calls"; "flows";
                    "modes"; "annex" ]) ->
        let sc = subcomponent st in
        go (sc :: acc)
      | _ -> List.rev acc
    in
    go []
  end

let connection st =
  let conn_loc = loc_of st in
  let conn_name = ident st in
  expect st Lexer.COLON;
  let conn_kind =
    if accept_kw st "port" then Port_connection
    else if accept_kw st "data" then begin
      expect_kw st "access";
      Access_connection
    end
    else if accept_kw st "bus" then begin
      expect_kw st "access";
      Access_connection
    end
    else error st "expected 'port', 'data access' or 'bus access'"
  in
  let conn_src = dot_path st in
  let immediate =
    match peek_tok st with
    | Lexer.ARROW ->
      advance st;
      true
    | Lexer.DARROW ->
      advance st;
      false
    | _ -> error st "expected '->' or '->>'"
  in
  let conn_dst = dot_path st in
  let conn_properties = ref [] in
  if peek_tok st = Lexer.LBRACE then begin
    advance st;
    let rec go () =
      match peek_tok st with
      | Lexer.RBRACE -> advance st
      | _ ->
        let pa = property_assoc st in
        conn_properties := pa :: !conn_properties;
        go ()
    in
    go ()
  end;
  expect st Lexer.SEMI;
  { conn_name; conn_kind; conn_src; conn_dst; immediate;
    conn_properties = List.rev !conn_properties; conn_loc }

let connections_section st =
  if accept_kw st "none" then begin
    expect st Lexer.SEMI;
    []
  end
  else begin
    let rec go acc =
      match peek_tok st, peek_kw st with
      | Lexer.IDENT _, Some kw
        when not
               (List.mem kw
                  [ "end"; "properties"; "flows"; "modes"; "annex" ]) ->
        let c = connection st in
        go (c :: acc)
      | _ -> List.rev acc
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Modes (SIGNAL-automata extension)                                   *)
(* ------------------------------------------------------------------ *)

(* modes
     Nominal: initial mode;
     Degraded: mode;
     t1: Nominal -[ pFault ]-> Degraded;
   A transition with several triggers expands to one transition per
   trigger (any of them fires it). *)
let modes_section st =
  let modes = ref [] and transitions = ref [] in
  let rec go () =
    match peek_tok st, peek_kw st with
    | Lexer.IDENT _, Some kw
      when not
             (List.mem kw
                [ "end"; "features"; "properties"; "subcomponents";
                  "connections"; "flows"; "annex" ]) ->
      let item_loc = loc_of st in
      let name = ident st in
      expect st Lexer.COLON;
      (if accept_kw st "initial" then begin
         expect_kw st "mode";
         modes := { m_name = name; m_initial = true; m_loc = item_loc } :: !modes
       end
       else if accept_kw st "mode" then
         modes := { m_name = name; m_initial = false; m_loc = item_loc } :: !modes
       else begin
         let src = ident st in
         expect st Lexer.TRANS_L;
         let first = ident st in
         let rec triggers acc =
           if peek_tok st = Lexer.COMMA then begin
             advance st;
             let t = ident st in
             triggers (t :: acc)
           end
           else List.rev acc
         in
         let trigs = triggers [ first ] in
         expect st Lexer.RBRACKET;
         (match peek_tok st with
          | Lexer.ARROW -> advance st
          | _ -> error st "expected ']->' in mode transition");
         let dst = ident st in
         List.iter
           (fun trig ->
             transitions :=
               { mt_name = name; mt_src = src; mt_trigger = trig;
                 mt_dst = dst; mt_loc = item_loc }
               :: !transitions)
           trigs
       end);
      expect st Lexer.SEMI;
      go ()
    | _ -> ()
  in
  go ();
  (List.rev !modes, List.rev !transitions)

(* annex subclauses: accepted and skipped (the paper defers the
   behaviour annex to SIGNAL automata, which modes cover) *)
let annex_clause st =
  let _name = ident st in
  (match peek_tok st with
   | Lexer.ANNEX_BLOB _ -> advance st
   | _ -> error st "expected an {** ... **} annex blob");
  expect st Lexer.SEMI

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let declaration st =
  let decl_loc = loc_of st in
  let cat = category st in
  if accept_kw st "implementation" then begin
    let tname = ident st in
    expect st Lexer.DOT;
    let iname = ident st in
    let full = tname ^ "." ^ iname in
    let ci_extends =
      if accept_kw st "extends" then Some (dot_path st) else None
    in
    let subs = ref [] and conns = ref [] and props = ref [] in
    let rec sections () =
      if accept_kw st "subcomponents" then begin
        subs := subcomponents_section st;
        sections ()
      end
      else if accept_kw st "connections" then begin
        conns := connections_section st;
        sections ()
      end
      else if accept_kw st "properties" then begin
        props := properties_section st;
        sections ()
      end
      else if accept_kw st "annex" then begin
        annex_clause st;
        sections ()
      end
      else if accept_kw st "calls" then begin
        (* accept and skip call sequences up to the next section *)
        let rec skip () =
          match peek_kw st with
          | Some ("end" | "properties" | "connections" | "subcomponents") -> ()
          | _ ->
            advance st;
            skip ()
        in
        skip ();
        sections ()
      end
    in
    sections ();
    expect_kw st "end";
    let e_tname = ident st in
    expect st Lexer.DOT;
    let e_iname = ident st in
    if not (kw_eq e_tname tname && kw_eq e_iname iname) then
      error ~code:code_mismatched_end st
        "mismatched 'end %s.%s' for implementation %s" e_tname e_iname full;
    expect st Lexer.SEMI;
    Dimpl
      { ci_name = full; ci_type = tname; ci_category = cat; ci_extends;
        ci_subcomponents = !subs; ci_connections = !conns;
        ci_properties = !props; ci_loc = decl_loc }
  end
  else begin
    let ct_name = ident st in
    let ct_extends =
      if accept_kw st "extends" then Some (dot_path st) else None
    in
    let feats = ref [] and props = ref [] in
    let modes = ref [] and transitions = ref [] in
    let rec sections () =
      if accept_kw st "features" then begin
        feats := features_section st;
        sections ()
      end
      else if accept_kw st "properties" then begin
        props := properties_section st;
        sections ()
      end
      else if accept_kw st "modes" then begin
        let ms, ts = modes_section st in
        modes := ms;
        transitions := ts;
        sections ()
      end
      else if accept_kw st "annex" then begin
        annex_clause st;
        sections ()
      end
    in
    sections ();
    expect_kw st "end";
    let e_name = ident st in
    if not (kw_eq e_name ct_name) then
      error ~code:code_mismatched_end st
        "mismatched 'end %s' for component type %s" e_name ct_name;
    expect st Lexer.SEMI;
    Dtype
      { ct_name; ct_category = cat; ct_extends; ct_features = !feats;
        ct_properties = !props; ct_modes = !modes;
        ct_transitions = !transitions; ct_loc = decl_loc }
  end

(* The package without its scheduler-owned property associations, on
   every type, implementation, subcomponent, connection and port *)
let timing_free pkg =
  let pas = List.filter (fun pa -> not (Props.is_scheduler_owned pa.pname)) in
  let feature = function
    | Port p -> Port { p with fprops = pas p.fprops }
    | (Data_access _ | Subprogram_access _) as f -> f
  in
  let decl = function
    | Dtype ct ->
      Dtype
        { ct with
          ct_features = List.map feature ct.ct_features;
          ct_properties = pas ct.ct_properties }
    | Dimpl ci ->
      Dimpl
        { ci with
          ci_subcomponents =
            List.map
              (fun sc -> { sc with sc_properties = pas sc.sc_properties })
              ci.ci_subcomponents;
          ci_connections =
            List.map
              (fun c -> { c with conn_properties = pas c.conn_properties })
              ci.ci_connections;
          ci_properties = pas ci.ci_properties }
  in
  { pkg with pkg_decls = List.map decl pkg.pkg_decls; pkg_shape = "" }

(* The translation reuses what it generated from a model without its
   scheduler-owned properties, keyed on this digest: one marshal per
   parsed package, replayed with the parse. Locations stay in, since
   the generated ports carry them. *)
let shape_digest pkg =
  Digest.string (Marshal.to_string (timing_free pkg) [ Marshal.No_sharing ])

let package_body st =
  expect_kw st "package";
  let pkg_name = qname st in
  let _ = accept_kw st "public" in
  let imports = ref [] in
  while accept_kw st "with" do
    let first = qname st in
    imports := first :: !imports;
    while peek_tok st = Lexer.COMMA do
      advance st;
      let n = qname st in
      imports := n :: !imports
    done;
    expect st Lexer.SEMI
  done;
  let decls = ref [] in
  let rec go () =
    match peek_kw st with
    | Some "end" -> ()
    | Some _ ->
      let d = declaration st in
      decls := d :: !decls;
      go ()
    | None -> error st "expected declaration or 'end'"
  in
  go ();
  expect_kw st "end";
  let e_name = qname st in
  if not (kw_eq e_name pkg_name) then
    error ~code:code_mismatched_end st "mismatched 'end %s' for package %s"
      e_name pkg_name;
  expect st Lexer.SEMI;
  let pkg =
    { pkg_name; pkg_imports = List.rev !imports; pkg_decls = List.rev !decls;
      pkg_shape = "" }
  in
  { pkg with pkg_shape = shape_digest pkg }

let with_state src f =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; idx = 0 } in
  let r = f st in
  (match peek_tok st with
   | Lexer.EOF -> ()
   | _ -> error ~code:code_trailing st "trailing input after package");
  r

let parse_package_exn src =
  try with_state src package_body with
  | Perror (_, m, l, c) -> raise (Parse_error (m, l, c))
  | Lexer.Lex_error (m, l, c) -> raise (Parse_error (m, l, c))

let parse_package src =
  match parse_package_exn src with
  | pkg -> Ok pkg
  | exception Parse_error (m, l, c) ->
    Error (Printf.sprintf "parse error at %d:%d: %s" l c m)

(* property set Name is ... end Name; — accepted and skimmed: the
   declared property names are free-form and our typed accessors match
   by (unqualified) name anyway *)
let property_set st =
  expect_kw st "property";
  expect_kw st "set";
  let name = ident st in
  expect_kw st "is";
  let rec skim () =
    match peek_tok st with
    | Lexer.EOF -> error st "unterminated property set %s" name
    | Lexer.IDENT s when kw_eq s "end" -> (
      (* only the matching "end <name> ;" closes the set *)
      match st.toks.(st.idx + 1).Lexer.tok, st.toks.(st.idx + 2).Lexer.tok with
      | Lexer.IDENT n, Lexer.SEMI when kw_eq n name ->
        advance st; advance st; advance st
      | _ ->
        advance st;
        skim ())
    | _ ->
      advance st;
      skim ()
  in
  skim ()

let packages_body st =
  let rec go acc =
    match peek_tok st, peek_kw st with
    | Lexer.EOF, _ -> List.rev acc
    | _, Some "property" ->
      property_set st;
      go acc
    | _, _ -> go (package_body st :: acc)
  in
  match go [] with
  | [] -> error ~code:code_empty st "expected at least one package"
  | pkgs -> pkgs

let parse_packages src =
  Putil.Tracing.with_span "aadl.parse"
    ~args:[ ("bytes", Putil.Tracing.Aint (String.length src)) ]
  @@ fun () ->
  match with_state src packages_body with
  | pkgs -> Ok pkgs
  | exception Perror (_, m, l, c) ->
    Error (Printf.sprintf "parse error at %d:%d: %s" l c m)
  | exception Lexer.Lex_error (m, l, c) ->
    Error (Printf.sprintf "parse error at %d:%d: %s" l c m)

let diag_of ?file code m l c =
  Putil.Diag.errorf ~span:(Putil.Diag.span ?file ~line:l ~col:c ())
    ~code "%s" m

let parse_packages_diag ?file src =
  Putil.Tracing.with_span "aadl.parse"
    ~args:[ ("bytes", Putil.Tracing.Aint (String.length src)) ]
  @@ fun () ->
  match with_state src packages_body with
  | pkgs -> Ok pkgs
  | exception Perror (code, m, l, c) -> Error [ diag_of ?file code m l c ]
  | exception Lexer.Lex_error (m, l, c) -> Error [ diag_of ?file code_lex m l c ]

let parse_package_diag ?file src =
  match with_state src package_body with
  | pkg -> Ok pkg
  | exception Perror (code, m, l, c) -> Error [ diag_of ?file code m l c ]
  | exception Lexer.Lex_error (m, l, c) -> Error [ diag_of ?file code_lex m l c ]

let parse_property_value src =
  try
    let toks = Array.of_list (Lexer.tokenize src) in
    let st = { toks; idx = 0 } in
    let v = property_value st in
    (match peek_tok st with
     | Lexer.EOF -> Ok v
     | _ -> Error "trailing input after property value")
  with
  | Perror (_, m, l, c) | Lexer.Lex_error (m, l, c) ->
    Error (Printf.sprintf "parse error at %d:%d: %s" l c m)
