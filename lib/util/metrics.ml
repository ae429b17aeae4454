(* Counters, gauges and timers are one record ([instrument]) with one
   get-or-create path, one scope resolver and one write helper. All
   writes are lock-free atomics, so the instrumented hot paths
   (compiled step, explorer workers) can be driven from several
   domains without losing events.

   Registries publish their name table as an immutable map in one
   [Atomic]: lookups are a plain load + map find (lock-free), creation
   takes a per-registry mutex, re-checks, and republishes the extended
   map — so scopes can mint per-request registries concurrently.

   Ambient scopes: [ambient_push]/[ambient_pop] maintain a domain-local
   stack of registries (driven by [Obs.with_scope]). A write to an
   instrument of the [global] registry also lands in the same-named
   instrument of the innermost ambient registry, so instrumented
   libraries attribute per-scope without any call-site change. When no
   scope is active anywhere the extra cost is one atomic load. *)

module StrMap = Map.Make (String)

type kind = Kcounter | Kgauge | Ktimer

type registry = {
  map : instrument StrMap.t Atomic.t;
  mu : Mutex.t; (* guards instrument creation; lookups are lock-free *)
}

and instrument = {
  name : string;
  kind : kind;
  value : int Atomic.t; (* count, level, or timer span count *)
  total_ns : int Atomic.t; (* timer duration; 0 for the other kinds *)
  ambient : bool; (* lives in [global]: writes roll into the scope *)
  scoped : (registry * instrument) option Atomic.t; (* last scope resolve *)
}

type counter = instrument
type gauge = instrument
type timer = instrument

let create () : registry =
  { map = Atomic.make StrMap.empty; mu = Mutex.create () }

let global : registry = create ()

(* ------------------------------------------------------------------ *)
(* Ambient scope stack (driven by Obs)                                 *)
(* ------------------------------------------------------------------ *)

(* total frames currently pushed across all domains; the write fast
   path reads only this when no scope is active anywhere *)
let ambient_active = Atomic.make 0

let dls_ambient : registry list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let ambient_stack () = Domain.DLS.get dls_ambient

(* the one place the stack changes: [ambient_active] moves by exactly
   the number of frames gained or lost, so a pop of an empty stack is a
   no-op instead of hiding every later scope *)
let set_ambient_stack st =
  let old = Domain.DLS.get dls_ambient in
  Domain.DLS.set dls_ambient st;
  let d = List.length st - List.length old in
  if d <> 0 then ignore (Atomic.fetch_and_add ambient_active d)

let ambient_push reg = set_ambient_stack (reg :: ambient_stack ())

let ambient_pop () =
  match ambient_stack () with
  | _ :: rest -> set_ambient_stack rest
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Ktimer -> "timer"

let get_or_create kind (reg : registry) name =
  let check i =
    if i.kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics.%s: %S already registered as a %s"
           (kind_name kind) name (kind_name i.kind));
    i
  in
  match StrMap.find_opt name (Atomic.get reg.map) with
  | Some i -> check i
  | None ->
      Mutex.protect reg.mu (fun () ->
          (* re-check under the lock: another domain may have won *)
          match StrMap.find_opt name (Atomic.get reg.map) with
          | Some i -> check i
          | None ->
              let i =
                { name; kind; value = Atomic.make 0; total_ns = Atomic.make 0;
                  ambient = reg == global; scoped = Atomic.make None }
              in
              Atomic.set reg.map (StrMap.add name i (Atomic.get reg.map));
              i)

let counter ?(registry = global) name = get_or_create Kcounter registry name
let gauge ?(registry = global) name = get_or_create Kgauge registry name
let timer ?(registry = global) name = get_or_create Ktimer registry name

(* Resolve the same-named instrument in the innermost ambient registry.
   The last (registry, instrument) pair is cached in one Atomic on the
   global handle, so steady-state scoped writes cost a load + physical
   equality instead of a map lookup. The pair is immutable: a stale
   cache can never mix one scope's registry with another's cell. *)
let scoped top i =
  match Atomic.get i.scoped with
  | Some (r, i') when r == top -> i'
  | _ ->
      let i' = get_or_create i.kind top i.name in
      Atomic.set i.scoped (Some (top, i'));
      i'

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type op = Add | Set | Max | Span

let rec max_cell cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then max_cell cell v

let[@inline] apply op i v =
  match op with
  | Add -> ignore (Atomic.fetch_and_add i.value v)
  | Set -> Atomic.set i.value v
  | Max -> max_cell i.value v
  | Span ->
      ignore (Atomic.fetch_and_add i.value 1);
      ignore (Atomic.fetch_and_add i.total_ns (max 0 v))

(* Apply [op] to the instrument and, for a [global] instrument under an
   active scope, to its twin in the innermost ambient registry. Inlined
   with a constant [op], so each write function below compiles to its
   own straight-line atomic update. *)
let[@inline] write op i v =
  apply op i v;
  if i.ambient && Atomic.get ambient_active > 0 then
    match Domain.DLS.get dls_ambient with
    | [] -> ()
    | top :: _ -> apply op (scoped top i) v

let incr ?(by = 1) c = write Add c by
let set g v = write Set g v
let max_gauge g v = write Max g v
let add_span_ns t ns = write Span t ns

(* Monotonic, so NTP steps cannot produce negative or inflated span
   durations; the same clock feeds Tracing's host-time spans. *)
let time t f =
  let t0 = Clock.now_ns () in
  Fun.protect ~finally:(fun () -> add_span_ns t (Clock.now_ns () - t0)) f

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type stat =
  | Counter of int
  | Gauge of int
  | Timer of { spans : int; total_ns : int }

let stat_of i =
  match i.kind with
  | Kcounter -> Counter (Atomic.get i.value)
  | Kgauge -> Gauge (Atomic.get i.value)
  | Ktimer ->
      Timer { spans = Atomic.get i.value; total_ns = Atomic.get i.total_ns }

let snapshot reg =
  StrMap.fold
    (fun name i acc -> (name, stat_of i) :: acc)
    (Atomic.get reg.map) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find reg name =
  Option.map stat_of (StrMap.find_opt name (Atomic.get reg.map))

let counter_value reg name =
  match find reg name with
  | Some (Counter n) | Some (Gauge n) -> n
  | _ -> 0

let reset reg =
  StrMap.iter
    (fun _ i ->
      Atomic.set i.value 0;
      Atomic.set i.total_ns 0)
    (Atomic.get reg.map)

let prefix_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let pp_ns ppf ns =
  let f = float_of_int ns in
  if f < 1e3 then Format.fprintf ppf "%d ns" ns
  else if f < 1e6 then Format.fprintf ppf "%.1f us" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.1f ms" (f /. 1e6)
  else Format.fprintf ppf "%.2f s" (f /. 1e9)

let pp_stat ppf = function
  | Counter n -> Format.fprintf ppf "%d" n
  | Gauge n -> Format.fprintf ppf "%d" n
  | Timer { spans; total_ns } ->
      if spans = 0 then Format.fprintf ppf "0 spans"
      else begin
        Format.fprintf ppf "%d spans, %a total, %a/span" spans pp_ns total_ns
          pp_ns (total_ns / spans);
        if total_ns > 0 then
          Format.fprintf ppf ", %.0f/s"
            (float_of_int spans /. (float_of_int total_ns /. 1e9))
      end

let pp ppf reg =
  let stats = snapshot reg in
  if stats = [] then Format.fprintf ppf "(no metrics recorded)@."
  else begin
    let last_prefix = ref "" in
    List.iter
      (fun (name, st) ->
        let p = prefix_of name in
        if p <> !last_prefix then begin
          if !last_prefix <> "" then Format.fprintf ppf "@,";
          Format.fprintf ppf "[%s]@," p;
          last_prefix := p
        end;
        Format.fprintf ppf "  %-32s %a@," name pp_stat st)
      stats
  end

let pp ppf reg = Format.fprintf ppf "@[<v>%a@]" pp reg

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
        else Buffer.add_string buf "null"
    | String s -> escape_string buf s
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            write buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_string buf k;
            Buffer.add_char buf ':';
            write buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  (* Minimal RFC 8259 parser, enough to read back the records this
     module writes (bench baselines, metric snapshots). Numbers with a
     fraction or exponent parse as [Float], bare integers as [Int]. *)
  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex c =
               match c with
               | '0' .. '9' -> Char.code c - Char.code '0'
               | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
               | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
               | _ -> fail "bad \\u escape"
             in
             let code = ref 0 in
             for k = 0 to 3 do
               code := (16 * !code) + hex s.[!pos + k]
             done;
             let code = !code in
             pos := !pos + 4;
             (* escape to UTF-8; surrogate pairs are not recombined,
                which is fine for the ASCII metric names we emit *)
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> fail "bad escape");
          go ())
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let rec go () =
        match peek () with
        | Some ('0' .. '9' | '-' | '+') -> advance (); go ()
        | Some ('.' | 'e' | 'E') -> is_float := true; advance (); go ()
        | _ -> ()
      in
      go ();
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> String (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (items [])
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | Some ('-' | '0' .. '9') -> parse_number ()
      | _ -> fail "unexpected character"
    in
    match parse_value () with
    | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
      else Ok v
    | exception Parse_error m -> Error m

  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let to_float = function
    | Some (Float f) -> Some f
    | Some (Int i) -> Some (float_of_int i)
    | _ -> None
end

let json_of_stat = function
  | Counter n -> Json.Obj [ ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge n -> Json.Obj [ ("type", Json.String "gauge"); ("value", Json.Int n) ]
  | Timer { spans; total_ns } ->
      let extra =
        if spans = 0 then []
        else
          [ ("mean_ns", Json.Int (total_ns / spans));
            ( "rate_per_s",
              if total_ns = 0 then Json.Null
              else
                Json.Float
                  (float_of_int spans /. (float_of_int total_ns /. 1e9)) ) ]
      in
      Json.Obj
        ([ ("type", Json.String "timer");
           ("spans", Json.Int spans);
           ("total_ns", Json.Int total_ns) ]
        @ extra)

let to_json reg =
  Json.Obj (List.map (fun (name, st) -> (name, json_of_stat st)) (snapshot reg))

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition                                         *)
(* ------------------------------------------------------------------ *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
   (the dots of our dotted names included) becomes '_'. *)
let om_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

(* label values escape backslash, double quote and line feed *)
let om_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let om_labels = function
  | [] -> ""
  | kvs ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> om_name k ^ "=\"" ^ om_escape v ^ "\"") kvs)
      ^ "}"

let om_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* Merged exposition over several (labels, registry) pairs: each metric
   family is declared once ([# HELP] + [# TYPE]) followed by one sample
   set per labelled registry that carries it. If two dotted names
   sanitize to the same family only the first (in sorted dotted-name
   order) is exposed; a kind clash across registries drops the
   mismatching sample rather than corrupting the family. *)
let openmetrics pairs =
  let buf = Buffer.create 4096 in
  let names =
    List.concat_map
      (fun (_, reg) ->
        StrMap.fold (fun name _ acc -> name :: acc) (Atomic.get reg.map) [])
      pairs
    |> List.sort_uniq String.compare
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let om = om_name name in
      if not (Hashtbl.mem seen om) then begin
        Hashtbl.add seen om ();
        let insts =
          List.filter_map
            (fun (lbls, reg) ->
              Option.map
                (fun i -> (lbls, i))
                (StrMap.find_opt name (Atomic.get reg.map)))
            pairs
        in
        match insts with
        | [] -> ()
        | (_, first) :: _ ->
            let typ =
              match first.kind with
              | Kcounter -> "counter"
              | Kgauge -> "gauge"
              | Ktimer -> "summary"
            in
            Buffer.add_string buf
              (Printf.sprintf "# HELP %s %s\n" om (om_escape name));
            Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" om typ);
            List.iter
              (fun (lbls, i) ->
                let l = om_labels lbls in
                (* a kind clash across registries skips the sample *)
                if i.kind = first.kind then
                  match i.kind with
                  | Kcounter ->
                      Buffer.add_string buf
                        (Printf.sprintf "%s_total%s %d\n" om l
                           (Atomic.get i.value))
                  | Kgauge ->
                      Buffer.add_string buf
                        (Printf.sprintf "%s%s %d\n" om l (Atomic.get i.value))
                  | Ktimer ->
                      Buffer.add_string buf
                        (Printf.sprintf "%s_count%s %d\n" om l
                           (Atomic.get i.value));
                      Buffer.add_string buf
                        (Printf.sprintf "%s_sum%s %s\n" om l
                           (om_float
                              (float_of_int (Atomic.get i.total_ns) /. 1e9))))
              insts
      end)
    names;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let to_openmetrics ?(labels = []) reg = openmetrics [ (labels, reg) ]
