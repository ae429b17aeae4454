(* Putil.Memo: the one keyed lookup behind the pipeline's session
   stages and the process-global translate / calculus / plan memos.
   Lookup order, the successes-only rule, counter derivation, the
   whole-stage unit credit, the reset-when-full cap, a content-keyed
   window staying within its cap, the silent [peek], and a key being
   computed once when several domains ask for it together. *)

module Memo = Putil.Memo
module Cache_store = Putil.Cache_store

let counter name = Putil.Metrics.counter_value Putil.Metrics.global name

(* fresh stage names keep each test's counters apart *)
let fresh_stage =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Printf.sprintf "memo_test%d" !ctr

let with_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "memo_test_%d_%s" (Unix.getpid ()) (fresh_stage ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      match Cache_store.open_store dir with
      | Error m -> Alcotest.fail ("open_store: " ^ m)
      | Ok s -> f s)

(* a computation that counts its own runs *)
let counting v =
  let runs = ref 0 in
  (runs, fun () -> incr runs; v)

let test_error_not_recorded () =
  with_store @@ fun s ->
  let stage = fresh_stage () in
  let m = Memo.create ~stage (Memo.Stage None) ~cap:8 ~store:(Some (s, "t")) in
  let runs = ref 0 in
  let fail () = incr runs; Error "boom" in
  for _ = 1 to 2 do
    match Memo.find m ~name:"a" ~key:"k" fail with
    | Error "boom" -> ()
    | _ -> Alcotest.fail "expected the computed error"
  done;
  Alcotest.(check int) "an error is recomputed" 2 !runs;
  Alcotest.(check int) "every lookup ran" 2 (counter ("incr." ^ stage ^ ".ran"));
  Alcotest.(check int) "nothing skipped" 0
    (counter ("incr." ^ stage ^ ".skipped"));
  Alcotest.(check bool) "an error never reaches the store" false
    (Cache_store.mem s ~stage:"t" ~key:"k");
  (* an exception is not recorded either *)
  (match Memo.get m ~name:"a" ~key:"k" (fun () -> failwith "raised") with
   | _ -> Alcotest.fail "expected the exception"
   | exception Failure _ -> ());
  let runs, compute = counting 7 in
  Alcotest.(check int) "then a success" 7 (Memo.get m ~name:"a" ~key:"k" compute);
  Alcotest.(check int) "computed once" 1 !runs

let test_lookup_order () =
  with_store @@ fun s ->
  let stage = fresh_stage () in
  let hits () = (Cache_store.stats s).Cache_store.hits in
  Cache_store.put s ~stage:"t" ~key:"stored" 42;
  let m = Memo.create ~stage Memo.Unit ~cap:8 ~store:(Some (s, "t")) in
  let never () = Alcotest.fail "computed despite a stored value" in
  (* store before compute *)
  Alcotest.(check int) "store replay" 42 (Memo.get m ~name:"p" ~key:"stored" never);
  Alcotest.(check int) "one store read" 1 (hits ());
  (* table before store *)
  Alcotest.(check int) "table hit" 42 (Memo.get m ~name:"p" ~key:"stored" never);
  Alcotest.(check int) "table answered, store untouched" 1 (hits ());
  (* compute last, and its value is written through *)
  let runs, compute = counting 5 in
  Alcotest.(check int) "computed" 5 (Memo.get m ~name:"p" ~key:"fresh" compute);
  Alcotest.(check int) "ran once" 1 !runs;
  Alcotest.(check (option int)) "written to the store" (Some 5)
    (Cache_store.get s ~stage:"t" ~key:"fresh");
  (* a new key under the same name replaces the entry *)
  Alcotest.(check int) "back to the stored key" 42
    (Memo.get m ~name:"p" ~key:"stored" never);
  Alcotest.(check int) "unit hits" 3
    (counter ("incr." ^ stage ^ ".proc_skipped"));
  Alcotest.(check int) "unit runs" 1 (counter ("incr." ^ stage ^ ".proc_ran"));
  Alcotest.(check int) "a unit memo counts no stage traffic" 0
    (counter ("incr." ^ stage ^ ".ran") + counter ("incr." ^ stage ^ ".skipped"))

let test_stage_store_hit_credits_units () =
  with_store @@ fun s ->
  let stage = fresh_stage () in
  let create () =
    Memo.create ~stage (Memo.Stage (Some List.length)) ~cap:8
      ~store:(Some (s, "stage." ^ stage))
  in
  let cold = create () in
  ignore (Memo.get cold ~name:stage ~key:"k" (fun () -> [ 1; 2; 3 ]));
  Alcotest.(check int) "a compute credits no units" 0
    (counter ("incr." ^ stage ^ ".proc_skipped"));
  (* table hit: the units were already counted where they were built *)
  ignore (Memo.get cold ~name:stage ~key:"k" (fun () -> []));
  Alcotest.(check int) "a table hit credits no units" 0
    (counter ("incr." ^ stage ^ ".proc_skipped"));
  (* a fresh memo on the same store replays the whole stage *)
  let warm = create () in
  Alcotest.(check (list int)) "store replay" [ 1; 2; 3 ]
    (Memo.get warm ~name:stage ~key:"k" (fun () -> []));
  Alcotest.(check int) "units v credited" 3
    (counter ("incr." ^ stage ^ ".proc_skipped"));
  Alcotest.(check int) "ran" 1 (counter ("incr." ^ stage ^ ".ran"));
  Alcotest.(check int) "skipped" 2 (counter ("incr." ^ stage ^ ".skipped"))

let test_cap_resets_when_full () =
  let stage = fresh_stage () in
  let m = Memo.create ~stage Memo.Cache ~cap:2 ~store:None in
  let runs = Hashtbl.create 4 in
  let look k =
    Memo.get m ~name:k ~key:k (fun () ->
        Hashtbl.replace runs k (1 + Option.value ~default:0 (Hashtbl.find_opt runs k));
        String.length k)
  in
  let runs_of k = Option.value ~default:0 (Hashtbl.find_opt runs k) in
  List.iter (fun k -> ignore (look k)) [ "a"; "bb"; "a"; "bb" ];
  Alcotest.(check (list int)) "both cached below the cap" [ 1; 1 ]
    [ runs_of "a"; runs_of "bb" ];
  (* a third key finds the table full: it is cleared, then recorded *)
  ignore (look "ccc");
  ignore (look "ccc");
  Alcotest.(check int) "the new entry survives the reset" 1 (runs_of "ccc");
  ignore (look "a");
  Alcotest.(check int) "older entries were dropped" 2 (runs_of "a");
  Alcotest.(check int) "misses" 4 (counter (stage ^ ".cache_misses"));
  Alcotest.(check int) "hits" 3 (counter (stage ^ ".cache_hits"));
  Memo.clear m;
  ignore (look "a");
  Alcotest.(check int) "clear drops everything" 3 (runs_of "a")

(* A window: a stage memo whose entry name is its content key keeps at
   most [cap] values. Probing with a failing computation records
   nothing, so it shows what the table holds without changing it. *)
let test_window_bounded () =
  let stage = fresh_stage () and cap = 4 in
  let m = Memo.create ~stage (Memo.Stage None) ~cap ~store:None in
  let keys = List.init (cap + 1) (Printf.sprintf "program%d") in
  let held () =
    List.filter
      (fun k -> Result.is_ok (Memo.find m ~name:k ~key:k (fun () -> Error ())))
      keys
  in
  List.iteri
    (fun i k ->
      ignore (Memo.get m ~name:k ~key:k (fun () -> i));
      if i = cap - 1 then
        Alcotest.(check (list string)) "the first cap keys are all held"
          (List.filteri (fun j _ -> j < cap) keys)
          (held ()))
    keys;
  let after = held () in
  Alcotest.(check bool) "at most cap entries" true (List.length after <= cap);
  Alcotest.(check bool) "the newest key is held" true
    (List.mem (List.nth keys cap) after)

(* [peek] answers from the table, then the store, and never counts,
   records or computes: a store value it read is still a store read
   for the next [find]. *)
let test_peek_is_silent () =
  with_store @@ fun s ->
  let stage = fresh_stage () in
  let traffic () =
    List.map
      (fun o -> counter ("incr." ^ stage ^ "." ^ o))
      [ "proc_ran"; "proc_skipped" ]
  in
  Cache_store.put s ~stage:"t" ~key:"stored" 42;
  let m = Memo.create ~stage Memo.Unit ~cap:8 ~store:(Some (s, "t")) in
  ignore (Memo.get m ~name:"p" ~key:"mem" (fun () -> 7));
  let t0 = traffic () and hits0 = (Cache_store.stats s).Cache_store.hits in
  Alcotest.(check (option int)) "table" (Some 7) (Memo.peek m ~name:"p" ~key:"mem");
  Alcotest.(check (option int)) "store" (Some 42)
    (Memo.peek m ~name:"p" ~key:"stored");
  Alcotest.(check (option int)) "neither" None (Memo.peek m ~name:"p" ~key:"new");
  Alcotest.(check (list int)) "nothing counted" t0 (traffic ());
  Alcotest.(check int) "one store read" (hits0 + 1)
    (Cache_store.stats s).Cache_store.hits;
  Alcotest.(check (option int)) "the store value was not recorded" (Some 7)
    (Memo.peek m ~name:"p" ~key:"mem")

(* Four domains translate one instance at once: its timing-free
   structure (thread models, top process) is built exactly once and
   the other three replay it. A registry id no other test uses keeps
   the key fresh. *)
let test_translate_once_across_domains () =
  let instance = Polychrony.Case_study.instance () in
  let registry = Trans.Behavior.make ~id:"memo-test-race" [] in
  let misses0 = counter "trans.structure.cache_misses" in
  let hits0 = counter "trans.structure.cache_hits" in
  let workers = 4 in
  Putil.Domain_pool.with_pool workers (fun pool ->
      Putil.Domain_pool.run_tasks pool
        (List.init workers (fun _ () ->
             match Trans.System_trans.translate_diag ~registry instance with
             | Some _, _ -> ()
             | None, ds -> failwith (Putil.Diag.list_to_string ds))));
  Alcotest.(check int) "one structure built" 1
    (counter "trans.structure.cache_misses" - misses0);
  Alcotest.(check int) "every other request replayed" (workers - 1)
    (counter "trans.structure.cache_hits" - hits0)

let suite =
  [ ( "memo",
      [ Alcotest.test_case "error never recorded" `Quick test_error_not_recorded;
        Alcotest.test_case "table, store, compute" `Quick test_lookup_order;
        Alcotest.test_case "stage store hit credits units" `Quick
          test_stage_store_hit_credits_units;
        Alcotest.test_case "cap resets when full" `Quick
          test_cap_resets_when_full;
        Alcotest.test_case "window holds at most cap" `Quick
          test_window_bounded;
        Alcotest.test_case "peek counts and records nothing" `Quick
          test_peek_is_silent;
        Alcotest.test_case "translate once across domains" `Quick
          test_translate_once_across_domains ] ) ]
