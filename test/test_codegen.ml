(* C code generation: the generated program, compiled with the system C
   compiler and driven with the same stimuli, must produce exactly the
   simulator's trace. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module Compile = Polysim.Compile
module Trace = Polysim.Trace

let have_cc = Sys.command "which cc > /dev/null 2> /dev/null" = 0

(* atomic mkdtemp: create the directory directly (retrying on EEXIST)
   instead of the temp_file/remove/mkdir dance, which leaves a window
   where another process can claim the path *)
let make_temp_dir prefix =
  let rng = lazy (Random.State.make_self_init ()) in
  let rec go tries =
    let cand =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s%06x" prefix
           (Random.State.int (Lazy.force rng) 0x1000000))
    in
    match Unix.mkdir cand 0o700 with
    | () -> cand
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 ->
      go (tries - 1)
  in
  go 100

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* render one stimulus line for the C program: one token per input in
   interface order *)
let stim_line inputs stimulus =
  String.concat " "
    (List.map
       (fun vd ->
         match List.assoc_opt vd.Ast.var_name stimulus with
         | None -> "-"
         | Some (Types.Vint n) -> string_of_int n
         | Some (Types.Vbool b) -> if b then "1" else "0"
         | Some Types.Vevent -> "1"
         | Some (Types.Vreal r) -> Printf.sprintf "%.17g" r
         | Some (Types.Vstring _) -> "-")
       inputs)

let parse_output_line line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | None -> None
         | Some i ->
           Some
             ( String.sub tok 0 i,
               String.sub tok (i + 1) (String.length tok - i - 1) ))

let value_matches expected got =
  match expected with
  | Types.Vint n -> int_of_string_opt got = Some n
  | Types.Vbool b -> got = (if b then "1" else "0")
  | Types.Vevent -> got = "1"
  | Types.Vreal r -> (
    match float_of_string_opt got with
    | Some f -> abs_float (f -. r) <= 1e-9 *. (1.0 +. abs_float r)
    | None -> false)
  | Types.Vstring _ -> false

(* run the C backend against the interpreter on one process *)
let differential ?(label = "prog") kp stimuli =
  let c =
    match Compile.compile kp with
    | Ok c -> c
    | Error m -> Alcotest.fail ("compile: " ^ m)
  in
  let csrc =
    match Compile.to_c c with
    | Ok s -> s
    | Error m -> Alcotest.fail ("to_c: " ^ m)
  in
  let dir = make_temp_dir ("cg_" ^ label) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c_path = Filename.concat dir "gen.c" in
  let exe = Filename.concat dir "gen.exe" in
  let in_path = Filename.concat dir "stim.txt" in
  let out_path = Filename.concat dir "out.txt" in
  let cc_log = Filename.concat dir "cc.log" in
  write_file c_path csrc;
  let rc =
    Sys.command
      (Printf.sprintf "cc -O1 -o %s %s 2> %s" (Filename.quote exe)
         (Filename.quote c_path) (Filename.quote cc_log))
  in
  if rc <> 0 then
    Alcotest.fail ("cc failed:\n" ^ String.concat "\n" (read_lines cc_log));
  write_file in_path
    (String.concat "\n" (List.map (stim_line kp.Signal_lang.Kernel.kinputs) stimuli)
     ^ "\n");
  let rc =
    Sys.command
      (Printf.sprintf "%s < %s > %s" (Filename.quote exe)
         (Filename.quote in_path) (Filename.quote out_path))
  in
  Alcotest.(check int) "C program exit code" 0 rc;
  let c_lines = read_lines out_path in
  (* reference run *)
  let tr =
    match Polysim.Engine.run kp ~stimuli with
    | Ok tr -> tr
    | Error m -> Alcotest.fail ("engine: " ^ m)
  in
  Alcotest.(check int) "same instant count" (Trace.length tr)
    (List.length c_lines);
  List.iteri
    (fun t line ->
      let got = parse_output_line line in
      (* every signal present in the reference must match; and the C
         output must not contain extra present signals *)
      List.iter
        (fun vd ->
          let x = vd.Ast.var_name in
          match Trace.get tr t x, List.assoc_opt x got with
          | Some v, Some s ->
            if not (value_matches v s) then
              Alcotest.fail
                (Printf.sprintf "instant %d, %s: simulator %s, C %s" t x
                   (Types.value_to_string v) s)
          | Some v, None ->
            Alcotest.fail
              (Printf.sprintf "instant %d: %s present (=%s) only in simulator"
                 t x (Types.value_to_string v))
          | None, Some s ->
            Alcotest.fail
              (Printf.sprintf "instant %d: %s present (=%s) only in C" t x s)
          | None, None -> ())
        (Signal_lang.Kernel.signals kp))
    c_lines

let skip_unless_cc () =
  if not have_cc then Alcotest.skip ()

let test_counter_c () =
  skip_unless_cc ();
  let p =
    B.proc ~name:"use_counter"
      ~inputs:[ Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "n" Types.Tint ]
      B.[ inst ~label:"c" "counter" [ v "e" ] [ "n" ] ]
  in
  differential ~label:"counter" (N.process_exn p)
    [ [ ("e", Types.Vevent) ]; []; [ ("e", Types.Vevent) ];
      [ ("e", Types.Vevent) ] ]

let test_fm_c () =
  skip_unless_cc ();
  let p =
    B.proc ~name:"use_fm"
      ~inputs:[ Ast.var "i" Types.Tint; Ast.var "b" Types.Tbool ]
      ~outputs:[ Ast.var "o" Types.Tint ]
      B.[ inst ~label:"mem" "fm" [ v "i"; v "b" ] [ "o" ] ]
  in
  differential ~label:"fm" (N.process_exn p)
    [ [ ("i", Types.Vint 1); ("b", Types.Vbool true) ];
      [ ("b", Types.Vbool true) ]; [ ("i", Types.Vint 2) ];
      [ ("i", Types.Vint 3); ("b", Types.Vbool false) ];
      [ ("b", Types.Vbool true) ] ]

let test_fifo_c () =
  skip_unless_cc ();
  let p =
    B.proc ~name:"use_fifo"
      ~inputs:[ Ast.var "x" Types.Tint; Ast.var "pop" Types.Tevent ]
      ~outputs:[ Ast.var "d" Types.Tint; Ast.var "s" Types.Tint ]
      B.[ inst ~params:[ Types.Vint 3; Types.Vstring "dropoldest" ]
            ~label:"q" "fifo" [ v "x"; v "pop" ] [ "d"; "s" ] ]
  in
  differential ~label:"fifo" (N.process_exn p)
    [ [ ("x", Types.Vint 1) ]; [ ("x", Types.Vint 2) ];
      [ ("pop", Types.Vevent) ];
      [ ("x", Types.Vint 3); ("pop", Types.Vevent) ];
      [ ("x", Types.Vint 4) ]; [ ("x", Types.Vint 5) ];
      [ ("x", Types.Vint 6) ]; (* overflow *)
      [ ("pop", Types.Vevent) ]; [ ("pop", Types.Vevent) ];
      [ ("pop", Types.Vevent) ] ]

let test_timer_c () =
  skip_unless_cc ();
  let p =
    B.proc ~name:"use_timer"
      ~inputs:[ Ast.var "go" Types.Tevent; Ast.var "halt" Types.Tevent;
                Ast.var "tk" Types.Tevent ]
      ~outputs:[ Ast.var "out" Types.Tevent ]
      B.[ inst ~params:[ Types.Vint 2 ] ~label:"tm" "timer"
            [ v "go"; v "halt"; v "tk" ] [ "out" ] ]
  in
  differential ~label:"timer" (N.process_exn p)
    [ [ ("go", Types.Vevent) ]; [ ("tk", Types.Vevent) ];
      [ ("tk", Types.Vevent) ]; [ ("tk", Types.Vevent) ];
      [ ("go", Types.Vevent) ]; [ ("halt", Types.Vevent) ];
      [ ("tk", Types.Vevent) ] ]

let test_case_study_c () =
  skip_unless_cc ();
  let a =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal
        Polychrony.Case_study.aadl_source
    with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let stimuli =
    List.init 48 (fun t ->
        ("tick", Types.Vevent)
        :: (if t = 0 then [ ("env_pGo", Types.Vint 1) ] else []))
  in
  differential ~label:"prodcons" a.Polychrony.Pipeline.kernel stimuli

let test_moded_c () =
  skip_unless_cc ();
  (* the modal sensor with its automaton also survives C generation *)
  let src =
    {|package M public
      thread s
        features
          f: in event port;
          r: in event port;
          o: out event data port;
        modes
          A: initial mode; Bm: mode;
          t1: A -[ f ]-> Bm;
          t2: Bm -[ r ]-> A;
        properties Dispatch_Protocol => Periodic; Period => 4 ms;
          Compute_Execution_Time => 1 ms;
      end s;
      thread implementation s.impl end s.impl;
      process q features f: in event port; r: in event port;
        o: out event data port; end q;
      process implementation q.impl
        subcomponents w: thread s.impl;
        connections
          k0: port f -> w.f; k1: port r -> w.r; k2: port w.o -> o;
      end q.impl;
      system e features f: out event port; r: out event port; end e;
      system implementation e.impl end e.impl;
      system k features o: in event data port; end k;
      system implementation k.impl end k.impl;
      system top end top;
      system implementation top.impl
        subcomponents
          env: system e.impl; sink: system k.impl;
          h: process q.impl; c0: processor pc.impl;
        connections
          s0: port env.f -> h.f; s1: port env.r -> h.r;
          s2: port h.o -> sink.o;
        properties Actual_Processor_Binding => reference (c0) applies to h;
      end top.impl;
      processor pc end pc;
      processor implementation pc.impl end pc.impl;
      end M;|}
  in
  let a =
    match Polychrony.Pipeline.analyze src with
    | Ok a -> a
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
  in
  let stimuli =
    List.init 24 (fun t ->
        ("tick", Types.Vevent)
        ::
        (if t = 5 then [ ("env_f", Types.Vint 1) ]
         else if t = 13 then [ ("env_r", Types.Vint 1) ]
         else []))
  in
  differential ~label:"moded" a.Polychrony.Pipeline.kernel stimuli

(* The plan order, and so the generated C, follows the dependency
   graph's vertex names, "P<class>" and "V<signal>" in string order
   (P10 before P2). Twelve independent chains make that order differ
   from the numeric one; the golden was generated before the graph
   moved to int vertices. *)
let test_plan_order_c () =
  let n = 12 in
  let name p k = Printf.sprintf "%s%d" p k in
  let p =
    B.proc ~name:"order"
      ~inputs:(List.init n (fun k -> Ast.var (name "x" k) Types.Tint))
      ~outputs:(List.init n (fun k -> Ast.var (name "y" k) Types.Tint))
      (List.init n (fun k -> B.(name "y" k := v (name "x" k) + i 1)))
  in
  match Compile.compile (N.process_exn p) with
  | Error m -> Alcotest.fail m
  | Ok c -> (
    match Compile.to_c c with
    | Error m -> Alcotest.fail m
    | Ok src ->
      Alcotest.(check string) "generated C"
        (Test_data.read "corpus/golden/codegen_plan_order.c") src)

(* The generated C grows with the clock DAG, not with the paths of the
   clock BDDs: the 3-replica example stays within 4x the case study's
   program (34x while every derived clock was printed as an unshared
   ?: tree). Byte counts are deterministic; no C compiler is needed. *)
let test_size_gate () =
  let c_bytes src =
    match
      Polychrony.Pipeline.analyze
        ~registry:Polychrony.Case_study.registry_nominal src
    with
    | Error m -> Alcotest.fail (Putil.Diag.list_to_string m)
    | Ok a -> (
      match Compile.compile a.Polychrony.Pipeline.kernel with
      | Error m -> Alcotest.fail m
      | Ok c -> (
        match Compile.to_c c with
        | Ok src -> String.length src
        | Error m -> Alcotest.fail m))
  in
  let one = c_bytes Polychrony.Case_study.aadl_source in
  let three = c_bytes (Test_data.read "../examples/prodcons_replicas3.aadl") in
  Alcotest.(check bool)
    (Printf.sprintf "3 replicas: %d B <= 4 x %d B" three one)
    true (three <= 4 * one)

let suite =
  [ ("codegen_c",
     [ Alcotest.test_case "counter" `Quick test_counter_c;
       Alcotest.test_case "fm memory" `Quick test_fm_c;
       Alcotest.test_case "fifo" `Quick test_fifo_c;
       Alcotest.test_case "timer" `Quick test_timer_c;
       Alcotest.test_case "full case study" `Quick test_case_study_c;
       Alcotest.test_case "mode automaton" `Quick test_moded_c;
       Alcotest.test_case "plan order follows names" `Quick
         test_plan_order_c;
       Alcotest.test_case "size grows with the clock DAG" `Quick
         test_size_gate ]) ]
