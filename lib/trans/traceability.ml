(* Entries are keyed on the AADL instance paths and the generated
   SIGNAL names themselves: each direction is a table of its own
   strings, so a translation's traceability is plain data. *)

type t = {
  mutable pairs : (string * string) list;  (* reversed *)
  components : (string, string) Hashtbl.t;  (* component path -> signal *)
  ports : (string, string) Hashtbl.t;       (* feature path -> signal *)
  by_signal : (string, string) Hashtbl.t;   (* signal -> AADL path *)
}

let create () =
  { pairs = [];
    components = Hashtbl.create 16;
    ports = Hashtbl.create 16;
    by_signal = Hashtbl.create 16 }

let add tbl t ~aadl ~signal =
  t.pairs <- (aadl, signal) :: t.pairs;
  Hashtbl.replace tbl aadl signal;
  Hashtbl.replace t.by_signal signal aadl

let add_component t = add t.components t
let add_port t = add t.ports t

let signal_of t aadl =
  match Hashtbl.find_opt t.components aadl with
  | Some _ as found -> found
  | None -> Hashtbl.find_opt t.ports aadl

let aadl_of t signal = Hashtbl.find_opt t.by_signal signal

let entries t = List.rev t.pairs

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (a, s) -> Format.fprintf ppf "%-48s -> %s@," a s)
    (entries t);
  Format.fprintf ppf "@]"
