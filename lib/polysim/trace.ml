module Ast = Signal_lang.Ast
module Types = Signal_lang.Types

(* Steps live in a growable array so random access is O(1); traces of
   hundreds of thousands of instants appear in the benches.

   Rows are recorded against dense signal indices (declaration order),
   not names: the simulators push int-indexed rows straight from their
   per-instant arrays and names are only materialized by the printing
   and dumping layers. Each row is sorted by index, so point lookups
   are a binary search over the present signals of that instant.

   Everything that depends on the declarations alone lives in a
   [header] that many traces share: the compiled stepper builds one
   per plan, so a K-scenario instance builds its names and name
   lookup once, not K times. The header also interns the row cells
   of the boolean and event signals (most of a row, and most of them
   repeat from instant to instant), so recording allocates cells only
   for int, real and string values (and for a value whose kind is not
   the signal's declared type, which then gets a cell of its own). *)

type cell = int * Types.value
type row = cell array

type header = {
  names : string array;
  types : Types.styp array;
  lookup : (string, int) Hashtbl.t; (* name -> index *)
  cells : cell array;
      (* [2i] and [2i+1]: the false and true cells of bool signal [i],
         [2i+1] the cell of event signal [i] *)
}

type t = {
  h : header;
  mutable steps : row array;
  mutable len : int;
}

let empty_row : row = [||]
let empty_cell : cell = (0, Types.Vint 0)

let header decl_list =
  let decls = Array.of_list decl_list in
  let names = Array.map (fun vd -> vd.Ast.var_name) decls in
  let lookup = Hashtbl.create (Array.length decls) in
  Array.iteri (fun i name -> Hashtbl.replace lookup name i) names;
  let types = Array.map (fun vd -> vd.Ast.var_type) decls in
  let cells = Array.make (2 * Array.length decls) empty_cell in
  Array.iteri
    (fun i -> function
      | Types.Tbool ->
        cells.(2 * i) <- (i, Types.Vbool false);
        cells.((2 * i) + 1) <- (i, Types.Vbool true)
      | Types.Tevent -> cells.((2 * i) + 1) <- (i, Types.Vevent)
      | Types.Tint | Types.Treal | Types.Tstring -> ())
    types;
  { names; types; lookup; cells }

let cell h i v =
  match v, h.types.(i) with
  | Types.Vbool b, Types.Tbool -> h.cells.((2 * i) + Bool.to_int b)
  | Types.Vevent, Types.Tevent -> h.cells.((2 * i) + 1)
  | _ -> (i, v)

let of_header h = { h; steps = Array.make 16 empty_row; len = 0 }

let create decl_list = of_header (header decl_list)

(* marks are not kept: traces record names, types and values only *)
let declarations t =
  List.init (Array.length t.h.names) (fun i ->
      { Ast.var_name = t.h.names.(i); var_type = t.h.types.(i);
        var_mark = Ast.Mbare })

let index_of t x = Hashtbl.find_opt t.h.lookup x

let name_of t i = t.h.names.(i)

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
  let count =
    Array.fold_left (fun acc o -> if o = None then acc else acc + 1) 0 tmp
  in
  let row = Array.make count empty_cell in
  let k = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | Some v ->
        row.(!k) <- cell t.h i v;
        incr k
      | None -> ())
    tmp;
  push_row t row

let length t = t.len

let row_find (row : row) i =
  let lo = ref 0 and hi = ref (Array.length row - 1) in
  let found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let j, v = row.(mid) in
    if j = i then begin
      found := Some v;
      lo := !hi + 1
    end
    else if j < i then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let step_row t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: instant out of range";
  t.steps.(i)

let get_idx t i x = row_find (step_row t i) x

let get t i x =
  match index_of t x with
  | Some xi -> get_idx t i xi
  | None -> None

let present_count t x =
  match index_of t x with
  | None -> 0
  | Some xi ->
    let n = ref 0 in
    for i = 0 to t.len - 1 do
      if row_find t.steps.(i) xi <> None then incr n
    done;
    !n

let values_of t x =
  match index_of t x with
  | None -> []
  | Some xi ->
    let acc = ref [] in
    for i = t.len - 1 downto 0 do
      match row_find t.steps.(i) xi with
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
      if row_find t.steps.(i) xi <> None then acc := i :: !acc
    done;
    !acc

let equal a b =
  a.len = b.len
  && a.h.names = b.h.names
  &&
  let rows_ok = ref true in
  (try
     for i = 0 to a.len - 1 do
       let ra = a.steps.(i) and rb = b.steps.(i) in
       if Array.length ra <> Array.length rb then raise Exit;
       Array.iteri
         (fun k (ja, va) ->
           let jb, vb = rb.(k) in
           if ja <> jb || not (Types.equal_value va vb) then raise Exit)
         ra
     done
   with Exit -> rows_ok := false);
  !rows_ok

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
  List.filter_map
    (fun vd ->
      if is_temp vd.Ast.var_name then None else Some vd.Ast.var_name)
    (declarations t)

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
