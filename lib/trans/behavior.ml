module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types

type ctx = {
  start_event : Ast.expr;
  start_bool : Ast.expr;
  frozen : string -> Ast.expr;
  frozen_count : string -> Ast.expr;
  out_item : string -> string;
  read_value : string -> Ast.expr;
  pop_signal : string -> string;
  write_signal : string -> string;
  fresh_local : Types.styp -> string;
  in_mode : string -> Ast.expr;
  modes : string list;
  props : Aadl.Syntax.property_assoc list;
  in_ports : string list;
  out_ports : string list;
  read_accesses : string list;
  write_accesses : string list;
}

type t = ctx -> Ast.stmt list

type registry = { reg_id : string; reg_entries : (string * t) list }

let make ~id entries = { reg_id = id; reg_entries = entries }
let empty = make ~id:"empty" []
let id reg = reg.reg_id
let with_id ~id reg = { reg with reg_id = id }

let find reg name =
  let low = String.lowercase_ascii name in
  List.find_map
    (fun (k, b) ->
      if String.equal (String.lowercase_ascii k) low then Some b else None)
    reg.reg_entries

let job_counter ctx =
  let n = ctx.fresh_local Types.Tint in
  let stmts =
    B.[ n := delay (v n) + i 1;
        clk (v n) ^= clk ctx.start_event ]
  in
  (stmts, B.v n)

let default ctx =
  let cnt_stmts, cnt = job_counter ctx in
  let item_value =
    match ctx.in_ports with
    | p :: _ -> ctx.frozen p
    | [] -> cnt
  in
  let outs =
    List.map (fun p -> B.(ctx.out_item p := item_value)) ctx.out_ports
  in
  let writes =
    List.map (fun a -> B.(ctx.write_signal a := cnt)) ctx.write_accesses
  in
  let pops =
    List.map
      (fun a -> B.(ctx.pop_signal a := clk ctx.start_event))
      ctx.read_accesses
  in
  cnt_stmts @ outs @ writes @ pops
