module Types = Signal_lang.Types

(* VCD identifier codes: printable ASCII 33..126, possibly multi-char. *)
let code_of_index i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

type kind = Kwire1 | Kvec32 | Kreal | Kstring

let kind_of_type = function
  | Types.Tevent | Types.Tbool -> Kwire1
  | Types.Tint -> Kvec32
  | Types.Treal -> Kreal
  | Types.Tstring -> Kstring

let bits32 n =
  if n = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let n = n land 0xFFFFFFFF in
    let started = ref false in
    for i = 31 downto 0 do
      let b = (n lsr i) land 1 in
      if b = 1 then started := true;
      if !started then Buffer.add_char buf (if b = 1 then '1' else '0')
    done;
    Buffer.contents buf
  end

(* String values travel on a space-delimited line ([sVALUE code]), so
   whitespace, '%' and control characters are percent-encoded; the
   literal value "x" is encoded too, else it would collide with the
   absent marker [sx]. [Vcd_reader] reverses this. *)
let escape_string s =
  if s = "x" then "%78"
  else begin
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        let n = Char.code c in
        if c = '%' || c = ' ' || n < 0x21 || n = 0x7F then
          Buffer.add_string buf (Printf.sprintf "%%%02X" n)
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let dump_value buf code kind v =
  match kind, v with
  | Kwire1, Some value ->
    let b =
      match value with
      | Types.Vevent -> true
      | Types.Vbool b -> b
      | Types.Vint n -> n <> 0
      | Types.Vreal r -> r <> 0.0
      | Types.Vstring s -> s <> ""
    in
    Buffer.add_string buf (Printf.sprintf "%c%s\n" (if b then '1' else '0') code)
  | Kwire1, None -> Buffer.add_string buf (Printf.sprintf "x%s\n" code)
  | Kvec32, Some (Types.Vint n) ->
    Buffer.add_string buf (Printf.sprintf "b%s %s\n" (bits32 n) code)
  | Kvec32, Some _ -> Buffer.add_string buf (Printf.sprintf "bx %s\n" code)
  | Kvec32, None -> Buffer.add_string buf (Printf.sprintf "bx %s\n" code)
  | Kreal, Some (Types.Vreal r) ->
    Buffer.add_string buf (Printf.sprintf "r%.17g %s\n" r code)
  | Kreal, (Some _ | None) ->
    (* explicit absent marker — [r0] would be indistinguishable from a
       present 0.0 *)
    Buffer.add_string buf (Printf.sprintf "rx %s\n" code)
  | Kstring, Some (Types.Vstring s) ->
    Buffer.add_string buf (Printf.sprintf "s%s %s\n" (escape_string s) code)
  | Kstring, (Some _ | None) ->
    Buffer.add_string buf (Printf.sprintf "sx %s\n" code)

let sanitize name =
  String.map (fun c -> if c = ' ' || c = '.' then '_' else c) name

(* distinct trace names can sanitize to the same identifier ("a.b" and
   "a b" both become "a_b"); suffix later arrivals so every $var keeps
   a distinct declared name *)
let uniquify names =
  let seen = Hashtbl.create 16 in
  List.map
    (fun n ->
      match Hashtbl.find_opt seen n with
      | None ->
        Hashtbl.replace seen n 1;
        n
      | Some k ->
        let rec fresh k =
          let cand = Printf.sprintf "%s__%d" n (k + 1) in
          if Hashtbl.mem seen cand then fresh (k + 1)
          else begin
            Hashtbl.replace seen n (k + 1);
            Hashtbl.replace seen cand 1;
            cand
          end
        in
        fresh k)
    names

let to_string ?signals ?(module_name = "top") ?(timescale = "1 ms")
    ?instant_us tr =
  (* arbitrary multipliers ("2000 us") are illegal VCD timescales, so a
     real tick duration is rendered as "1 us" with scaled timestamps *)
  let timescale, scale =
    match instant_us with
    | Some k when k > 0 -> ("1 us", k)
    | Some k ->
      invalid_arg
        (Printf.sprintf "Vcd.to_string: instant_us must be positive (%d)" k)
    | None -> (timescale, 1)
  in
  let names = match signals with Some l -> l | None -> Trace.observable tr in
  let types = Trace.signals tr in
  let ids = uniquify (List.map sanitize names) in
  let entries =
    List.mapi
      (fun i (name, id) ->
        let typ =
          Option.value ~default:Types.Tint (List.assoc_opt name types)
        in
        (* resolve the trace index once; per-instant sampling below is
           then index-based (undeclared signals stay absent) *)
        (id, code_of_index i, kind_of_type typ, Trace.index_of tr name))
      (List.combine names ids)
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date\n  polychrony-aadl simulation\n$end\n";
  Buffer.add_string buf "$version\n  polysim VCD writer\n$end\n";
  Buffer.add_string buf (Printf.sprintf "$timescale %s $end\n" timescale);
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" module_name);
  List.iter
    (fun (id, code, kind, _) ->
      let decl =
        match kind with
        | Kwire1 -> Printf.sprintf "$var wire 1 %s %s $end\n" code id
        | Kvec32 ->
          Printf.sprintf "$var wire 32 %s %s [31:0] $end\n" code id
        | Kreal -> Printf.sprintf "$var real 64 %s %s $end\n" code id
        | Kstring ->
          Printf.sprintf "$var string 1 %s %s $end\n" code id
      in
      Buffer.add_string buf decl)
    entries;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  (* initial values: everything absent *)
  Buffer.add_string buf "$dumpvars\n";
  List.iter (fun (_, code, kind, _) -> dump_value buf code kind None) entries;
  Buffer.add_string buf "$end\n";
  let entries = Array.of_list entries in
  let prev = Array.make (Array.length entries) None in
  for i = 0 to Trace.length tr - 1 do
    let changed = ref false in
    Array.iteri
      (fun k (_, code, kind, xi) ->
        let now =
          match xi with Some xi -> Trace.get_idx tr i xi | None -> None
        in
        if now <> prev.(k) then begin
          prev.(k) <- now;
          if not !changed then begin
            changed := true;
            Buffer.add_string buf (Printf.sprintf "#%d\n" (i * scale))
          end;
          dump_value buf code kind now
        end)
      entries
  done;
  Buffer.add_string buf (Printf.sprintf "#%d\n" (Trace.length tr * scale));
  Buffer.contents buf

let to_file ?signals ?module_name ?timescale ?instant_us path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (to_string ?signals ?module_name ?timescale ?instant_us tr))
