module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module S = Sched.Static_sched

let output_names ~prefix =
  [ prefix ^ "_dispatch"; prefix ^ "_start"; prefix ^ "_complete";
    prefix ^ "_deadline" ]

let task_names s =
  List.sort_uniq String.compare
    (List.map (fun j -> j.S.j_task.Sched.Task.t_name) s.S.jobs)

let translate ~name ~prefix_of (s : S.schedule) =
  let horizon = s.S.hyperperiod_us / s.S.base_us in
  let locals = ref [] in
  let stmts = ref [] in
  let declare n typ =
    locals := Ast.var n typ :: !locals;
    n
  in
  let emit st = stmts := st :: !stmts in
  let n = declare "n" Types.Tint in
  let ph = declare "ph" Types.Tint in
  emit B.(n := delay (v n) + i 1);
  emit B.(clk (v n) ^= clk (v "tick"));
  emit B.(ph := (v n - i 1) mod i horizon);
  let outputs = ref [] in
  let ticks_of = S.ticks s in
  List.iter
    (fun tname ->
      let prefix = prefix_of tname in
      List.iter2
        (fun out ev ->
          outputs := Ast.var out Types.Tevent :: !outputs;
          let ticks = ticks_of tname ev in
          (* an event at absolute tick T fires at every phase T mod H;
             when T ≥ H (a deadline wrapping past the hyper-period) it
             must stay silent until the tick counter actually reaches
             T, hence the extra guard *)
          let cond_of t =
            let tm = t mod horizon in
            let phase_eq = B.(v ph = i tm) in
            if t >= horizon then B.(phase_eq && (v n > i t)) else phase_eq
          in
          (* a tick set that is an arithmetic progression covering the
             hyper-period — the common case: strictly periodic events —
             collapses to one modular test instead of an OR with one
             term per firing, keeping the generated program size
             independent of the hyper-period/period ratio *)
          let progression = function
            | t0 :: (_ :: _ as rest) when List.for_all (fun t -> t < horizon) ticks ->
              let d = List.hd rest - t0 in
              let rec ap prev = function
                | [] -> true
                | t :: ts -> t - prev = d && ap t ts
              in
              if d > 0 && ap t0 rest
                 && horizon mod d = 0
                 && List.length ticks = horizon / d
              then Some (t0, d)
              else None
            | _ -> None
          in
          match ticks with
          | [] ->
            (* never fires: the empty clock *)
            emit B.(out := on (b false))
          | t0 :: rest -> (
            match progression ticks with
            | Some (t0, d) -> emit B.(out := on (v ph mod i d = i t0))
            | None ->
              let cond =
                List.fold_left (fun acc t -> B.(acc || cond_of t)) (cond_of t0)
                  rest
              in
              emit B.(out := on cond)))
        (output_names ~prefix)
        [ S.Dispatch; S.Start; S.Complete; S.Deadline ])
    (task_names s);
  { Ast.proc_name = name;
    params = [];
    inputs = [ Ast.var "tick" Types.Tevent ];
    outputs = List.rev !outputs;
    locals = List.rev !locals;
    body = List.rev !stmts;
    subprocesses = [];
    pragmas =
      [ ("scheduler",
         Printf.sprintf "policy %s, hyperperiod %d us, base %d us"
           (S.policy_to_string s.S.s_policy)
           s.S.hyperperiod_us s.S.base_us) ] }
