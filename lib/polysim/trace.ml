module Ast = Signal_lang.Ast
module Types = Signal_lang.Types

(* Steps live in a growable array so random access is O(1); traces of
   hundreds of thousands of instants appear in the benches.

   Rows are recorded against dense signal indices (declaration order),
   not names: the simulators record each present signal straight from
   their per-instant arrays, in the same pass that checks it has a
   value, and names are only materialized by the printing and dumping
   layers.

   A row is unboxed: one int key per present signal, ascending, that
   packs the signal index, the constructor of its value and where the
   value's payload lives. The constructor is the one recorded, not
   the signal's declared type, so a [Vbool] under an [event] signal
   reads back as [Vbool]. Events and booleans are their key alone; an
   int's payload is a slot of [ints]; a real or a string is kept as
   the recorded value in [boxed], which is the shared empty array on
   rows without one. Point lookups are a binary search over the keys.

   Everything that depends on the declarations alone lives in a
   [header] that many traces share: the compiled stepper builds one
   per plan, so a K-scenario instance builds its names and name
   lookup once, not K times. *)

type row = {
  keys : int array;  (* (index lsl 31) lor (aux lsl 3) lor code *)
  ints : int array;
  boxed : Types.value array;
}

let c_event = 0
let c_false = 1
let c_true = 2
let c_int = 3 (* aux: slot of [ints] *)
let c_boxed = 4 (* aux: slot of [boxed] *)

(* an aux is a rank among a row's present signals, so with the index
   it stays below the header's signal count: 28 bits *)
let max_signals = 1 lsl 28

let key i aux code = (i lsl 31) lor (aux lsl 3) lor code
let key_index k = k lsr 31
let key_aux k = (k lsr 3) land (max_signals - 1)
let key_code k = k land 7

let v_true = Types.Vbool true
let v_false = Types.Vbool false

let decode r k =
  match key_code k (* the codes above *) with
  | 0 -> Types.Vevent
  | 1 -> v_false
  | 2 -> v_true
  | 3 -> Types.Vint r.ints.(key_aux k)
  | _ -> r.boxed.(key_aux k)

let empty_row = { keys = [||]; ints = [||]; boxed = [||] }

type header = {
  names : string array;
  types : Types.styp array;
  lookup : (string, int) Hashtbl.t; (* name -> index *)
}

type t = {
  h : header;
  mutable steps : row array;
  mutable len : int;
}

let header decl_list =
  let decls = Array.of_list decl_list in
  if Array.length decls >= max_signals then
    invalid_arg "Trace.header: too many signals";
  let names = Array.map (fun vd -> vd.Ast.var_name) decls in
  let lookup = Hashtbl.create (Array.length decls) in
  Array.iteri (fun i name -> Hashtbl.replace lookup name i) names;
  let types = Array.map (fun vd -> vd.Ast.var_type) decls in
  { names; types; lookup }

let of_header h = { h; steps = Array.make 16 empty_row; len = 0 }

let create decl_list = of_header (header decl_list)

let signals t =
  List.init (Array.length t.h.names) (fun i -> (t.h.names.(i), t.h.types.(i)))

let index_of t x = Hashtbl.find_opt t.h.lookup x

let name_of t i = t.h.names.(i)

(* ---- recording ---- *)

type recorder = {
  r_keys : int array;
  r_ints : int array;
  r_boxed : Types.value array;
  mutable nk : int;
  mutable ni : int;
  mutable nb : int;
}

let recorder h =
  let n = Array.length h.names in
  { r_keys = Array.make n 0; r_ints = Array.make n 0;
    r_boxed = Array.make n Types.Vevent; nk = 0; ni = 0; nb = 0 }

let clear r =
  r.nk <- 0;
  r.ni <- 0;
  r.nb <- 0

let add r i aux code =
  r.r_keys.(r.nk) <- key i aux code;
  r.nk <- r.nk + 1

let record_event r i = add r i 0 c_event
let record_bool r i b = add r i 0 (if b then c_true else c_false)

let record_int r i n =
  r.r_ints.(r.ni) <- n;
  add r i r.ni c_int;
  r.ni <- r.ni + 1

let record r i = function
  | Types.Vevent -> record_event r i
  | Types.Vbool b -> record_bool r i b
  | Types.Vint n -> record_int r i n
  | (Types.Vreal _ | Types.Vstring _) as v ->
    r.r_boxed.(r.nb) <- v;
    add r i r.nb c_boxed;
    r.nb <- r.nb + 1

let take r =
  let row =
    { keys = Array.sub r.r_keys 0 r.nk;
      ints = Array.sub r.r_ints 0 r.ni;
      boxed = Array.sub r.r_boxed 0 r.nb }
  in
  clear r;
  row

let push_row t row =
  if t.len >= Array.length t.steps then begin
    let bigger = Array.make (2 * Array.length t.steps) empty_row in
    Array.blit t.steps 0 bigger 0 t.len;
    t.steps <- bigger
  end;
  t.steps.(t.len) <- row;
  t.len <- t.len + 1

let push t present =
  (* compat path: resolve names and dedupe (last occurrence wins, as
     the previous hashtable representation did) *)
  let n = Array.length t.h.names in
  let tmp = Array.make n None in
  List.iter
    (fun (x, v) ->
      match index_of t x with
      | Some i -> tmp.(i) <- Some v
      | None -> ())
    present;
  let r = recorder t.h in
  Array.iteri (fun i o -> Option.iter (record r i) o) tmp;
  push_row t (take r)

let length t = t.len

(* position of signal [i]'s key in the row, or -1 when absent *)
let row_find row i =
  let keys = row.keys in
  let lo = ref 0 and hi = ref (Array.length keys - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let j = key_index keys.(mid) in
    if j = i then begin
      found := mid;
      lo := !hi + 1
    end
    else if j < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let row_get row i =
  let k = row_find row i in
  if k < 0 then None else Some (decode row row.keys.(k))

let step_row t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: instant out of range";
  t.steps.(i)

let get_idx t i x = row_get (step_row t i) x

let get t i x =
  match index_of t x with
  | Some xi -> get_idx t i xi
  | None -> None

let values_of t x =
  match index_of t x with
  | None -> []
  | Some xi ->
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      match row_get t.steps.(i) xi with
      | Some v -> acc := v :: !acc
      | None -> ()
    done;
    !acc

let tick_instants t x =
  match index_of t x with
  | None -> []
  | Some xi ->
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      if row_find t.steps.(i) xi >= 0 then acc := i :: !acc
    done;
    !acc

let present_count t x = List.length (tick_instants t x)

(* an event or boolean key is its value; any other pair of cells of
   the same signal compares as values, so an event equals [true] *)
let cell_equal ra rb k =
  let ka = ra.keys.(k) and kb = rb.keys.(k) in
  (ka = kb && key_code ka <= c_true)
  || key_index ka = key_index kb
     && Types.equal_value (decode ra ka) (decode rb kb)

let row_equal ra rb =
  let n = Array.length ra.keys in
  n = Array.length rb.keys
  &&
  let rec cells k = k >= n || (cell_equal ra rb k && cells (k + 1)) in
  cells 0

let equal a b =
  a.len = b.len
  && a.h.names = b.h.names
  &&
  let rec rows i =
    i >= a.len || (row_equal a.steps.(i) b.steps.(i) && rows (i + 1))
  in
  rows 0

let is_temp name =
  String.length name > 0
  && (name.[0] = '_'
      ||
      let rec has_dunder i =
        i + 1 < String.length name
        && ((name.[i] = '_' && name.[i + 1] = '_') || has_dunder (i + 1))
      in
      has_dunder 0)

let observable t =
  List.filter (fun x -> not (is_temp x)) (Array.to_list t.h.names)

let cell_of_value = function
  | Types.Vevent -> "!"
  | Types.Vbool true -> "T"
  | Types.Vbool false -> "F"
  | Types.Vint n -> string_of_int n
  | Types.Vreal r -> Printf.sprintf "%g" r
  | Types.Vstring s -> s

let chronogram ?signals ?(from_instant = 0) ?until_instant ppf t =
  let names = match signals with Some l -> l | None -> observable t in
  let hi = Option.value ~default:t.len until_instant in
  let hi = min hi t.len in
  let lo = max 0 from_instant in
  let width = ref 1 in
  let cells =
    List.map
      (fun x ->
        let row =
          List.init (hi - lo) (fun k ->
              match get t (lo + k) x with
              | None -> "."
              | Some v -> cell_of_value v)
        in
        List.iter (fun c -> width := max !width (String.length c)) row;
        (x, row))
      names
  in
  let name_w =
    List.fold_left (fun acc (x, _) -> max acc (String.length x)) 0 cells
  in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let lpad w s = String.make (max 0 (w - String.length s)) ' ' ^ s in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (x, row) ->
      Format.fprintf ppf "%s |" (pad name_w x);
      List.iter (fun c -> Format.fprintf ppf " %s" (lpad !width c)) row;
      Format.fprintf ppf "@,")
    cells;
  Format.fprintf ppf "@]"
