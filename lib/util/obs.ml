(* Ambient observation scopes: one labelled Metrics registry + trace
   context per pipeline session (later: per daemon request). Entering a
   scope pushes its registry on the domain-local ambient stack, so
   every instrumented library attributes to the scope with zero
   call-site change; [capture]/[run_with] move the whole ambient state
   across Domain_pool so parallel workers attribute and parent
   correctly. The flight-recorder snapshot serializes Tracing's own
   events with Tracing's argument serializer. *)

type scope = {
  sc_label : string;
  sc_registry : Metrics.registry;
}

let scope_label s = s.sc_label
let scope_registry s = s.sc_registry

(* Scopes are retained for the lifetime of the process (keyed by
   label) so exposition can report a scope after its request ended; a
   long-running daemon is expected to reuse a bounded label set or
   call [reset_scopes] between exposition windows. *)
let scopes_tbl : (string, scope) Hashtbl.t = Hashtbl.create 16
let scopes_order : string list ref = ref []
let scopes_mu = Mutex.create ()
let scope_seq = Atomic.make 0

let scope label =
  Mutex.protect scopes_mu (fun () ->
      match Hashtbl.find_opt scopes_tbl label with
      | Some s -> s
      | None ->
          let s = { sc_label = label; sc_registry = Metrics.create () } in
          Hashtbl.replace scopes_tbl label s;
          scopes_order := label :: !scopes_order;
          s)

let scopes () =
  Mutex.protect scopes_mu (fun () ->
      List.rev_map (fun l -> Hashtbl.find scopes_tbl l) !scopes_order)

let reset_scopes () =
  Mutex.protect scopes_mu (fun () ->
      Hashtbl.reset scopes_tbl;
      scopes_order := [])

let fresh_label () =
  Printf.sprintf "scope-%d" (1 + Atomic.fetch_and_add scope_seq 1)

let in_scope s f =
  Metrics.ambient_push s.sc_registry;
  Fun.protect
    ~finally:(fun () -> Metrics.ambient_pop ())
    (fun () ->
      Tracing.with_span ~cat:"obs"
        ~args:[ ("scope", Tracing.Astr s.sc_label) ]
        ("scope:" ^ s.sc_label) f)

let with_scope ?label f =
  let label = match label with Some l -> l | None -> fresh_label () in
  in_scope (scope label) f

let current () =
  match Metrics.ambient_stack () with
  | [] -> None
  | top :: _ ->
      (* reverse lookup: the ambient stack stores bare registries so
         Metrics stays Obs-free; scopes are few, the scan is cheap *)
      Mutex.protect scopes_mu (fun () ->
          Hashtbl.fold
            (fun _ s acc ->
              if s.sc_registry == top then Some s else acc)
            scopes_tbl None)

(* ---- cross-domain propagation --------------------------------------- *)

type ctx = {
  cx_ambient : Metrics.registry list;
  cx_parent : Tracing.context;
}

let capture () =
  { cx_ambient = Metrics.ambient_stack ();
    cx_parent = Tracing.current_context () }

let run_with ctx f =
  let saved = Metrics.ambient_stack () in
  Metrics.set_ambient_stack ctx.cx_ambient;
  Fun.protect
    ~finally:(fun () -> Metrics.set_ambient_stack saved)
    (fun () -> Tracing.with_context ctx.cx_parent f)

(* ---- exposition ------------------------------------------------------ *)

let to_openmetrics () =
  Metrics.openmetrics
    (([], Metrics.global)
    :: List.map
         (fun s -> ([ ("scope", s.sc_label) ], s.sc_registry))
         (scopes ()))

(* ---- flight recorder snapshot ---------------------------------------- *)

module J = Metrics.Json

let event_json ts_ns kind name cat args =
  J.Obj
    ([ ("ts_ns", J.Int ts_ns);
       ("kind", J.String kind);
       ("name", J.String name);
       ("cat", J.String cat) ]
    @ Tracing.json_args args)

(* the ring holds only what [with_span], [instant] and [flight_diag]
   record; lane events never reach it *)
let flight_json : Tracing.event -> J.t option = function
  | Begin { name; cat; ts_ns; args; _ } ->
      Some (event_json ts_ns "span_begin" name cat args)
  | End { name; cat; ts_ns } -> Some (event_json ts_ns "span_end" name cat [])
  | Inst { name; cat; ts_ns; args } ->
      Some (event_json ts_ns "instant" name cat args)
  | Diag { code; severity; message; ts_ns } ->
      Some
        (event_json ts_ns "diag" code "diag"
           [ ("severity", Tracing.Astr severity);
             ("message", Tracing.Astr message) ])
  | Lane_span _ | Lane_inst _ -> None

let dump_flight_recorder () =
  J.Obj
    [ ("schema", J.String "polychrony-flight/v1");
      ("capacity", J.Int Tracing.flight_capacity);
      ( "domains",
        J.Arr
          (List.map
             (fun (dom, dropped, evs) ->
               J.Obj
                 [ ("domain", J.Int dom);
                   ("dropped", J.Int dropped);
                   ("events", J.Arr (List.filter_map flight_json evs)) ])
             (Tracing.flight_events ())) ) ]

let flight_recorder_to_string () = J.to_string (dump_flight_recorder ())
