open Syntax

type dispatch_protocol =
  | Periodic
  | Aperiodic
  | Sporadic
  | Background

type io_time =
  | At_dispatch
  | At_start
  | At_complete
  | At_deadline

type queue_protocol = Fifo | Lifo

type overflow_protocol = Drop_oldest | Drop_newest | Overflow_error

let base_name name =
  match String.rindex_opt name ':' with
  | Some i when i + 1 < String.length name ->
    String.sub name (i + 1) (String.length name - i - 1)
  | Some _ | None -> name

(* Offset of [base_name s] in [s]: after the last ':' before [i],
   unless that ':' ends the name. *)
let rec base_start s i =
  if i < 0 then 0
  else if Char.equal (String.unsafe_get s i) ':' then
    if i + 1 < String.length s then i + 1 else 0
  else base_start s (i - 1)

let rec same_from a i b j n =
  n = 0
  || Char.equal
       (Char.lowercase_ascii (String.unsafe_get a i))
       (Char.lowercase_ascii (String.unsafe_get b j))
     && same_from a (i + 1) b (j + 1) (n - 1)

(* [base_name a] and [base_name b] equal up to ASCII case, compared in
   place: property lookups run it per association, so it allocates
   nothing (no substring, no lowered copy, no closure). A base name
   ends where its name does and is empty only for the empty name, so
   most pairs are told apart on their last character before either
   base name is located. *)
let name_eq a b =
  let la = String.length a and lb = String.length b in
  if la = 0 || lb = 0 then la = lb
  else
    Char.equal
      (Char.lowercase_ascii (String.unsafe_get a (la - 1)))
      (Char.lowercase_ascii (String.unsafe_get b (lb - 1)))
    &&
    let i = base_start a (la - 1) and j = base_start b (lb - 1) in
    let n = la - i in
    n = lb - j && same_from a i b j n

let find name assocs =
  List.fold_left
    (fun acc pa ->
      if pa.applies_to = [] && name_eq pa.pname name then Some pa.pvalue
      else acc)
    None assocs

let unit_factor_us = function
  | "ns" -> Some 0.001
  | "us" -> Some 1.0
  | "ms" -> Some 1000.0
  | "s" | "sec" -> Some 1_000_000.0
  | "min" -> Some 60_000_000.0
  | "hr" -> Some 3_600_000_000.0
  | _ -> None

let rec duration_us = function
  | Pint (n, u) ->
    let u = Option.value ~default:"ms" (Option.map String.lowercase_ascii u) in
    Option.map (fun f -> int_of_float (float_of_int n *. f)) (unit_factor_us u)
  | Preal (r, u) ->
    let u = Option.value ~default:"ms" (Option.map String.lowercase_ascii u) in
    Option.map (fun f -> int_of_float (r *. f)) (unit_factor_us u)
  | Prange (_, hi) -> duration_us hi
  | Pstring _ | Pbool _ | Pname _ | Preference _ | Pclassifier _ | Plist _ ->
    None

let dispatch_protocol assocs =
  match find "Dispatch_Protocol" assocs with
  | Some (Pname n) -> (
    match String.lowercase_ascii n with
    | "periodic" -> Some Periodic
    | "aperiodic" -> Some Aperiodic
    | "sporadic" -> Some Sporadic
    | "background" -> Some Background
    | _ -> None)
  | _ -> None

let duration_prop name assocs = Option.bind (find name assocs) duration_us

let period_us = duration_prop "Period"
let deadline_us = duration_prop "Deadline"

let compute_execution_time_us assocs =
  duration_prop "Compute_Execution_Time" assocs

let int_prop name assocs =
  match find name assocs with
  | Some (Pint (n, None)) -> Some n
  | _ -> None

let priority = int_prop "Priority"
let queue_size = int_prop "Queue_Size"

let queue_protocol assocs =
  match find "Queue_Processing_Protocol" assocs with
  | Some (Pname n) -> (
    match String.lowercase_ascii n with
    | "fifo" -> Some Fifo
    | "lifo" -> Some Lifo
    | _ -> None)
  | _ -> None

let overflow_protocol assocs =
  match find "Overflow_Handling_Protocol" assocs with
  | Some (Pname n) -> (
    match String.lowercase_ascii n with
    | "dropoldest" -> Some Drop_oldest
    | "dropnewest" -> Some Drop_newest
    | "error" -> Some Overflow_error
    | _ -> None)
  | _ -> None

let rec io_time_of_value = function
  | Pname n -> (
    match String.lowercase_ascii n with
    | "dispatch" -> Some At_dispatch
    | "start" -> Some At_start
    | "completion" | "complete" -> Some At_complete
    | "deadline" -> Some At_deadline
    | _ -> None)
  | Plist [ v ] -> io_time_of_value v
  | _ -> None

let input_time assocs = Option.bind (find "Input_Time" assocs) io_time_of_value
let output_time assocs =
  Option.bind (find "Output_Time" assocs) io_time_of_value

let scheduler_owned =
  [ "Dispatch_Protocol"; "Period"; "Deadline"; "Compute_Execution_Time";
    "Dispatch_Offset"; "Priority" ]

let is_scheduler_owned name = List.exists (name_eq name) scheduler_owned

let processor_bindings assocs =
  List.concat_map
    (fun pa ->
      if name_eq pa.pname "Actual_Processor_Binding" then
        let target =
          match pa.pvalue with
          | Preference p -> Some p
          | Plist [ Preference p ] -> Some p
          | _ -> None
        in
        match target with
        | Some cpu -> List.map (fun part -> (part, cpu)) pa.applies_to
        | None -> []
      else [])
    assocs

let pp_dispatch_protocol ppf p =
  Format.pp_print_string ppf
    (match p with
     | Periodic -> "Periodic"
     | Aperiodic -> "Aperiodic"
     | Sporadic -> "Sporadic"
     | Background -> "Background")

let pp_io_time ppf t =
  Format.pp_print_string ppf
    (match t with
     | At_dispatch -> "Dispatch"
     | At_start -> "Start"
     | At_complete -> "Complete"
     | At_deadline -> "Deadline")
