(* One event type and one per-domain log. Each domain owns a record
   (found through one DLS key) holding its trace buffer, its flight
   ring and its open-span context. The recording side is wait-free: a
   domain only ever appends to its own record, so explorer workers can
   emit spans concurrently with the main domain. The reading side
   (export, reset, flight snapshot) walks every record and is only
   called once parallel sections have joined. *)

type arg =
  | Abool of bool
  | Aint of int
  | Afloat of float
  | Astr of string

type event =
  | Begin of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
      id : int;     (* process-unique span id, 0 when unknown *)
      parent : int; (* parent span id, 0 = root; may live on another
                       domain when the span was submitted through
                       Domain_pool under an observation scope *)
    }
  | End of { name : string; cat : string; ts_ns : int }
  | Inst of {
      name : string; cat : string; ts_ns : int;
      args : (string * arg) list;
    }
  | Diag of { code : string; severity : string; message : string; ts_ns : int }
  | Lane_span of {
      lane : string; name : string; cat : string;
      ts_us : int; dur_us : int; args : (string * arg) list;
    }
  | Lane_inst of {
      lane : string; name : string; cat : string; ts_us : int;
      args : (string * arg) list;
    }

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let dummy_event = End { name = ""; cat = ""; ts_ns = 0 }

(* Always-on bounded ring of the most recent span/instant/diag events:
   the writer stores into its own domain's ring, so recording is
   race-free and costs one array store; older events are overwritten
   once the ring is full. A snapshot ([flight_events]) is what gets
   attached to JSON error output so a failed run explains itself
   without re-running under --trace. *)
let flight_capacity = 256

type log = {
  dom : int;
  mutable evs : event array; (* trace buffer, grown on first push *)
  mutable len : int;
  ring : event array; (* flight ring *)
  mutable written : int; (* total events ever recorded in the ring *)
  mutable open_spans : int list; (* span context, innermost first *)
  mutable base : int; (* parent installed by [with_context] *)
}

(* every log ever created, so events survive their domain's death
   (explorer pools are shut down before export) *)
let logs : log list ref = ref []
let logs_lock = Mutex.create ()

let dls_log =
  Domain.DLS.new_key (fun () ->
      let l =
        { dom = (Domain.self () :> int); evs = [||]; len = 0;
          ring = Array.make flight_capacity dummy_event; written = 0;
          open_spans = []; base = 0 }
      in
      Mutex.protect logs_lock (fun () -> logs := l :: !logs);
      l)

let all_logs () =
  Mutex.protect logs_lock (fun () -> !logs)
  |> List.sort (fun a b -> compare a.dom b.dom)

let push l ev =
  let cap = Array.length l.evs in
  if l.len = cap then begin
    let evs = Array.make (max 256 (2 * cap)) dummy_event in
    Array.blit l.evs 0 evs 0 cap;
    l.evs <- evs
  end;
  l.evs.(l.len) <- ev;
  l.len <- l.len + 1

let record l ev =
  l.ring.(l.written mod flight_capacity) <- ev;
  l.written <- l.written + 1

let reset () = List.iter (fun l -> l.len <- 0) (all_logs ())

let flight_reset () =
  List.iter
    (fun l ->
      Array.fill l.ring 0 flight_capacity dummy_event;
      l.written <- 0)
    (all_logs ())

(* ------------------------------------------------------------------ *)
(* Span identity and cross-domain parenting                            *)
(* ------------------------------------------------------------------ *)

(* Span ids are process-unique so a worker span can name its parent on
   another domain. Each domain tracks its open-span stack plus a [base]
   context installed by [with_context] — the parent a pool worker
   inherits from the submitting domain. *)
let span_seq = Atomic.make 0

type context = int

let no_context : context = 0

let parent_of l = match l.open_spans with id :: _ -> id | [] -> l.base
let current_context () = parent_of (Domain.DLS.get dls_log)

let with_context ctx f =
  let l = Domain.DLS.get dls_log in
  let saved_base = l.base and saved_stack = l.open_spans in
  l.base <- ctx;
  l.open_spans <- [];
  Fun.protect
    ~finally:(fun () ->
      l.base <- saved_base;
      l.open_spans <- saved_stack)
    f

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* Each event is built once and stored in the flight ring, and also in
   the trace buffer when tracing is on. Whether a span is traced is
   decided when it opens, so its End lands wherever its Begin did. *)
let with_span ?(cat = "toolchain") ?(args = []) name f =
  let l = Domain.DLS.get dls_log in
  let traced = Atomic.get enabled_flag in
  let id = if traced then 1 + Atomic.fetch_and_add span_seq 1 else 0 in
  let parent = if traced then parent_of l else 0 in
  let b = Begin { name; cat; ts_ns = Clock.now_ns (); args; id; parent } in
  record l b;
  if traced then begin
    push l b;
    l.open_spans <- id :: l.open_spans
  end;
  Fun.protect
    ~finally:(fun () ->
      let e = End { name; cat; ts_ns = Clock.now_ns () } in
      record l e;
      if traced then begin
        (match l.open_spans with _ :: rest -> l.open_spans <- rest | [] -> ());
        push l e
      end)
    f

let instant ?(cat = "toolchain") ?(args = []) name =
  let l = Domain.DLS.get dls_log in
  let ev = Inst { name; cat; ts_ns = Clock.now_ns (); args } in
  record l ev;
  if Atomic.get enabled_flag then push l ev

(* diagnostics feed the flight recorder (never the trace buffers: diag
   emission must not depend on tracing being enabled) *)
let flight_diag ~severity ~code message =
  record (Domain.DLS.get dls_log)
    (Diag { code; severity; message; ts_ns = Clock.now_ns () })

let lane_span ~lane ?(cat = "schedule") ?(args = []) ~ts_us ~dur_us name =
  if Atomic.get enabled_flag then
    push (Domain.DLS.get dls_log)
      (Lane_span { lane; name; cat; ts_us; dur_us; args })

let lane_instant ~lane ?(cat = "schedule") ?(args = []) ~ts_us name =
  if Atomic.get enabled_flag then
    push (Domain.DLS.get dls_log) (Lane_inst { lane; name; cat; ts_us; args })

let events () =
  List.filter_map
    (fun l ->
      if l.len = 0 then None
      else Some (l.dom, Array.to_list (Array.sub l.evs 0 l.len)))
    (all_logs ())

let flight_events () =
  List.filter_map
    (fun l ->
      if l.written = 0 then None
      else begin
        let kept = min l.written flight_capacity in
        let first = l.written - kept in
        Some
          ( l.dom, first,
            List.init kept (fun k -> l.ring.((first + k) mod flight_capacity)) )
      end)
    (all_logs ())

(* ------------------------------------------------------------------ *)
(* Chrome trace-event sink                                             *)
(* ------------------------------------------------------------------ *)

module J = Metrics.Json

let json_of_arg = function
  | Abool b -> J.Bool b
  | Aint n -> J.Int n
  | Afloat f -> J.Float f
  | Astr s -> J.String s

let json_args args =
  if args = [] then []
  else [ ("args", J.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) args)) ]

let host_pid = 1
let sched_pid = 2

(* ts in fractional µs relative to the earliest host event, so traces
   open near t=0 regardless of system uptime *)
let rel_us t0 ts_ns = float_of_int (ts_ns - t0) /. 1e3

let chrome_events () =
  let per_domain = events () in
  let t0 =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left
          (fun acc ev ->
            match ev with
            | Begin { ts_ns; _ } | Inst { ts_ns; _ } -> min acc ts_ns
            | End _ | Diag _ | Lane_span _ | Lane_inst _ -> acc)
          acc evs)
      max_int per_domain
  in
  let t0 = if t0 = max_int then 0 else t0 in
  let out = ref [] in
  let emit ev = out := ev :: !out in
  (* lanes are interned in first-emission order: deterministic for a
     deterministic simulation *)
  let lane_tids = Hashtbl.create 16 in
  let lane_order = ref [] in
  let lane_tid lane =
    match Hashtbl.find_opt lane_tids lane with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length lane_tids + 1 in
      Hashtbl.add lane_tids lane tid;
      lane_order := (lane, tid) :: !lane_order;
      tid
  in
  let domains_seen = ref [] in
  List.iter
    (fun (dom, evs) ->
      let hosted = ref false in
      (* pair Begin/End into X complete events with an explicit stack;
         an unclosed span (export mid-run) closes at the last event *)
      let last_ts =
        List.fold_left
          (fun acc ev ->
            match ev with
            | Begin { ts_ns; _ } | Inst { ts_ns; _ } | End { ts_ns; _ } ->
              max acc ts_ns
            | Diag _ | Lane_span _ | Lane_inst _ -> acc)
          t0 evs
      in
      let stack = ref [] in
      (* span identity rides along in args so cross-domain parent links
         (pool workers under a submitting scope) survive the export *)
      let id_args id parent args =
        let ids =
          if id = 0 then []
          else if parent = 0 then [ ("span_id", Aint id) ]
          else [ ("span_id", Aint id); ("parent_span_id", Aint parent) ]
        in
        ids @ args
      in
      List.iter
        (fun ev ->
          match ev with
          | Begin { name; cat; ts_ns; args; id; parent } ->
            hosted := true;
            stack := (name, cat, ts_ns, id_args id parent args) :: !stack
          | End { ts_ns; _ } -> (
            match !stack with
            | [] -> ()
            | (name, cat, b_ts, args) :: rest ->
              stack := rest;
              emit
                (J.Obj
                   ([ ("name", J.String name);
                      ("cat", J.String cat);
                      ("ph", J.String "X");
                      ("ts", J.Float (rel_us t0 b_ts));
                      ("dur", J.Float (rel_us b_ts ts_ns));
                      ("pid", J.Int host_pid);
                      ("tid", J.Int dom) ]
                   @ json_args args)))
          | Inst { name; cat; ts_ns; args } ->
            hosted := true;
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "i");
                    ("s", J.String "t");
                    ("ts", J.Float (rel_us t0 ts_ns));
                    ("pid", J.Int host_pid);
                    ("tid", J.Int dom) ]
                 @ json_args args))
          | Lane_span { lane; name; cat; ts_us; dur_us; args } ->
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "X");
                    ("ts", J.Int ts_us);
                    ("dur", J.Int dur_us);
                    ("pid", J.Int sched_pid);
                    ("tid", J.Int (lane_tid lane)) ]
                 @ json_args args))
          | Lane_inst { lane; name; cat; ts_us; args } ->
            emit
              (J.Obj
                 ([ ("name", J.String name);
                    ("cat", J.String cat);
                    ("ph", J.String "i");
                    ("s", J.String "t");
                    ("ts", J.Int ts_us);
                    ("pid", J.Int sched_pid);
                    ("tid", J.Int (lane_tid lane)) ]
                 @ json_args args))
          | Diag _ -> (* flight ring only *) ())
        evs;
      (* close any still-open spans so the export is always well-formed *)
      List.iter
        (fun (name, cat, b_ts, args) ->
          emit
            (J.Obj
               ([ ("name", J.String name);
                  ("cat", J.String cat);
                  ("ph", J.String "X");
                  ("ts", J.Float (rel_us t0 b_ts));
                  ("dur", J.Float (rel_us b_ts last_ts));
                  ("pid", J.Int host_pid);
                  ("tid", J.Int dom) ]
               @ json_args args)))
        !stack;
      if !hosted then domains_seen := dom :: !domains_seen)
    per_domain;
  (* metadata: name the two processes and every lane *)
  let meta name pid tid value =
    J.Obj
      [ ("name", J.String name);
        ("ph", J.String "M");
        ("pid", J.Int pid);
        ("tid", J.Int tid);
        ("args", J.Obj [ ("name", J.String value) ]) ]
  in
  let metas =
    meta "process_name" host_pid 0 "toolchain (host time)"
    :: meta "process_name" sched_pid 0 "schedule (logical time, us)"
    :: List.rev_map
         (fun dom ->
           meta "thread_name" host_pid dom (Printf.sprintf "domain %d" dom))
         !domains_seen
    @ List.rev_map
        (fun (lane, tid) -> meta "thread_name" sched_pid tid lane)
        !lane_order
  in
  metas @ List.rev !out

let to_chrome () =
  J.to_string
    (J.Obj
       [ ("traceEvents", J.Arr (chrome_events ()));
         ("displayTimeUnit", J.String "ms") ])

(* ------------------------------------------------------------------ *)
(* Text sink                                                           *)
(* ------------------------------------------------------------------ *)

let pp_dur_ns ppf ns =
  let f = float_of_int ns in
  if f < 1e3 then Format.fprintf ppf "%d ns" ns
  else if f < 1e6 then Format.fprintf ppf "%.1f us" (f /. 1e3)
  else if f < 1e9 then Format.fprintf ppf "%.1f ms" (f /. 1e6)
  else Format.fprintf ppf "%.2f s" (f /. 1e9)

let pp_arg ppf (k, v) =
  match v with
  | Abool b -> Format.fprintf ppf "%s=%b" k b
  | Aint n -> Format.fprintf ppf "%s=%d" k n
  | Afloat f -> Format.fprintf ppf "%s=%g" k f
  | Astr s -> Format.fprintf ppf "%s=%s" k s

let pp_args ppf = function
  | [] -> ()
  | args ->
    Format.fprintf ppf " {%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_arg)
      args

let to_text () =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  let lanes = Hashtbl.create 16 in
  let lane_order = ref [] in
  let lane_events lane =
    match Hashtbl.find_opt lanes lane with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add lanes lane r;
      lane_order := lane :: !lane_order;
      r
  in
  List.iter
    (fun (dom, evs) ->
      let hosted =
        List.exists
          (function Begin _ | Inst _ -> true | _ -> false)
          evs
      in
      if hosted then Format.fprintf ppf "[toolchain] domain %d@." dom;
      let depth = ref 0 in
      (* duration of a span = ts of the matching End; found by scanning
         forward counting nesting *)
      let arr = Array.of_list evs in
      let end_of i =
        let rec go j d =
          if j >= Array.length arr then None
          else
            match arr.(j) with
            | Begin _ -> go (j + 1) (d + 1)
            | End { ts_ns; _ } -> if d = 0 then Some ts_ns else go (j + 1) (d - 1)
            | _ -> go (j + 1) d
        in
        go (i + 1) 0
      in
      Array.iteri
        (fun i ev ->
          match ev with
          | Begin { name; ts_ns; args; _ } ->
            let dur =
              match end_of i with
              | Some e -> e - ts_ns
              | None -> 0
            in
            Format.fprintf ppf "%s%s (%a)%a@."
              (String.make (2 * (!depth + 1)) ' ')
              name pp_dur_ns dur pp_args args;
            incr depth
          | End _ -> if !depth > 0 then decr depth
          | Diag _ -> ()
          | Inst { name; args; _ } ->
            Format.fprintf ppf "%s@%s%a@."
              (String.make (2 * (!depth + 1)) ' ')
              name pp_args args
          | Lane_span { lane; name; ts_us; dur_us; args; _ } ->
            lane_events lane
            := (ts_us,
                Format.asprintf "%d..%d us %s%a" ts_us (ts_us + dur_us) name
                  pp_args args)
               :: !(lane_events lane)
          | Lane_inst { lane; name; ts_us; args; _ } ->
            lane_events lane
            := (ts_us, Format.asprintf "%d us %s%a" ts_us name pp_args args)
               :: !(lane_events lane))
        arr)
    (events ());
  List.iter
    (fun lane ->
      Format.fprintf ppf "[schedule] %s@." lane;
      List.iter
        (fun (_, line) -> Format.fprintf ppf "  %s@." line)
        (List.stable_sort
           (fun (a, _) (b, _) -> compare a b)
           (List.rev !(Hashtbl.find lanes lane))))
    (List.rev !lane_order);
  Format.pp_print_flush ppf ();
  Buffer.contents b

let write ~format path =
  let s = match format with `Chrome -> to_chrome () | `Text -> to_text () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      if format = `Text then () else output_char oc '\n')
