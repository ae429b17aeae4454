(* Digraph, deadlock (causality) and determinism analyses, and the
   profiling cost model. *)

module Ast = Signal_lang.Ast
module B = Signal_lang.Builder
module Types = Signal_lang.Types
module N = Signal_lang.Normalize
module G = Analysis.Digraph
module D = Analysis.Deadlock
module Det = Analysis.Determinism
module Prof = Analysis.Profiling
module C = Clocks.Calculus

let tint = Types.Tint
let tbool = Types.Tbool

(* ----------------------------- digraph ---------------------------- *)

let test_graph_basics () =
  let g = G.create () in
  G.add_edge g "a" "b";
  G.add_edge g "b" "c";
  G.add_edge g "a" "b";
  Alcotest.(check int) "edges deduplicated" 2 (G.edge_count g);
  Alcotest.(check (list string)) "succ of a" [ "b" ] (G.successors g "a");
  Alcotest.(check (list string)) "vertices" [ "a"; "b"; "c" ] (G.vertices g)

let test_sccs () =
  let g = G.create () in
  G.add_edge g "a" "b";
  G.add_edge g "b" "c";
  G.add_edge g "c" "a";
  G.add_edge g "c" "d";
  let nt = G.nontrivial_sccs g in
  Alcotest.(check int) "one cycle" 1 (List.length nt);
  Alcotest.(check (list string)) "cycle members" [ "a"; "b"; "c" ]
    (List.sort String.compare (List.hd nt))

let test_self_loop () =
  let g = G.create () in
  G.add_edge g "a" "a";
  Alcotest.(check int) "self loop is a cycle" 1
    (List.length (G.nontrivial_sccs g))

let test_topo_sort () =
  let g = G.create () in
  G.add_edge g "a" "b";
  G.add_edge g "b" "c";
  G.add_edge g "a" "c";
  (match G.topological_sort g with
   | Ok order ->
     let pos x =
       let rec go i = function
         | [] -> -1
         | y :: rest -> if String.equal x y then i else go (i + 1) rest
       in
       go 0 order
     in
     Alcotest.(check bool) "a before b" true (pos "a" < pos "b");
     Alcotest.(check bool) "b before c" true (pos "b" < pos "c")
   | Error _ -> Alcotest.fail "acyclic graph");
  let g2 = G.create () in
  G.add_edge g2 "x" "y";
  G.add_edge g2 "y" "x";
  Alcotest.(check bool) "cycle detected" true
    (Result.is_error (G.topological_sort g2))

let test_reachable () =
  let g = G.create () in
  G.add_edge g "a" "b";
  G.add_edge g "b" "c";
  G.add_edge g "d" "a";
  Alcotest.(check (list string)) "from a" [ "b"; "c" ] (G.reachable g "a")

(* The string-keyed implementation the int-indexed one replaced, kept
   verbatim as the reference its queries must equal, order included. *)
module Ref = struct
  type t = {
    adj : (string, (string, unit) Hashtbl.t) Hashtbl.t;
    mutable edges : int;
  }

  let create () = { adj = Hashtbl.create 64; edges = 0 }

  let add_vertex g v =
    if not (Hashtbl.mem g.adj v) then Hashtbl.add g.adj v (Hashtbl.create 4)

  let add_edge g a b =
    add_vertex g a;
    add_vertex g b;
    let succ = Hashtbl.find g.adj a in
    if not (Hashtbl.mem succ b) then begin
      Hashtbl.add succ b ();
      g.edges <- g.edges + 1
    end

  let vertices g =
    Hashtbl.fold (fun v _ acc -> v :: acc) g.adj []
    |> List.sort String.compare

  let successors g v =
    match Hashtbl.find_opt g.adj v with
    | None -> []
    | Some succ ->
      Hashtbl.fold (fun w () acc -> w :: acc) succ []
      |> List.sort String.compare

  let edge_count g = g.edges

  (* Tarjan's algorithm, iterative-friendly sizes here are small so the
     recursive version is fine (depth bounded by vertex count). *)
  let sccs g =
    let index = Hashtbl.create 64 in
    let lowlink = Hashtbl.create 64 in
    let on_stack = Hashtbl.create 64 in
    let stack = ref [] in
    let counter = ref 0 in
    let components = ref [] in
    let rec strongconnect v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ();
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (successors g v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
        in
        components := pop [] :: !components
      end
    in
    List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
      (vertices g);
    List.rev !components

  let has_self_loop g v = List.mem v (successors g v)

  let nontrivial_sccs g =
    List.filter
      (fun comp ->
        match comp with
        | [ v ] -> has_self_loop g v
        | _ -> List.length comp > 1)
      (sccs g)

  let topological_sort g =
    match nontrivial_sccs g with
    | cycle :: _ -> Error cycle
    | [] ->
      (* Tarjan emits an SCC before every SCC that can reach it, so the
         flattened emission order lists successors first; reversing gives
         sources before targets. *)
      Ok (List.rev (List.concat (sccs g)))

  let reachable g v =
    let seen = Hashtbl.create 16 in
    let rec go w =
      List.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.replace seen s ();
            go s
          end)
        (successors g w)
    in
    go v;
    Hashtbl.fold (fun w () acc -> w :: acc) seen [] |> List.sort String.compare
end

(* names whose string order disagrees with their numeric order *)
let graph_names =
  [| "P2"; "P10"; "P1"; "P0"; "P11"; "V1"; "V10"; "V2"; "V0"; "x" |]

type graph_op = Vertex of int | Edge of int * int | Query

let gen_graph_ops =
  let open QCheck2.Gen in
  let name = int_bound (Array.length graph_names - 1) in
  list_size (int_bound 40)
    (frequency
       [ (1, map (fun v -> Vertex v) name);
         (8, map2 (fun a b -> Edge (a, b)) name name);
         (1, pure Query) ])

let print_graph_op = function
  | Vertex v -> "vertex " ^ graph_names.(v)
  | Edge (a, b) -> graph_names.(a) ^ " -> " ^ graph_names.(b)
  | Query -> "query"

(* every query on both graphs, as one comparable value; the unknown
   name "nope" is asked too *)
let graph_queries vertices successors edge_count sccs nontrivial topo
    reachable g =
  let probe = vertices g @ [ "nope" ] in
  ( vertices g,
    List.map (successors g) probe,
    edge_count g,
    (sccs g, nontrivial g),
    topo g,
    List.map (reachable g) probe )

let prop_digraph_matches_reference =
  QCheck2.Test.make ~name:"digraph queries = string reference" ~count:500
    ~print:(fun ops -> String.concat "; " (List.map print_graph_op ops))
    gen_graph_ops
    (fun ops ->
      let g = G.create () and r = Ref.create () in
      let same () =
        graph_queries G.vertices G.successors G.edge_count G.sccs
          G.nontrivial_sccs G.topological_sort G.reachable g
        = graph_queries Ref.vertices Ref.successors Ref.edge_count Ref.sccs
            Ref.nontrivial_sccs Ref.topological_sort Ref.reachable r
      in
      List.for_all
        (function
          | Vertex v ->
            G.add_vertex g graph_names.(v);
            Ref.add_vertex r graph_names.(v);
            true
          | Edge (a, b) ->
            G.add_edge g graph_names.(a) graph_names.(b);
            Ref.add_edge r graph_names.(a) graph_names.(b);
            true
          | Query -> same ())
        ops
      && same ())

(* the int graph in a given order sorts as the string graph whose
   names sort in that order *)
let prop_indexed_matches_reference =
  QCheck2.Test.make ~name:"indexed topological sort = string reference"
    ~count:500
    QCheck2.Gen.(
      pair (int_range 1 12)
        (list_size (int_bound 30) (pair (int_bound 11) (int_bound 11))))
    (fun (n, edges) ->
      let name i = "V" ^ string_of_int i in
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> String.compare (name a) (name b)) order;
      let g = G.Indexed.create ~order and r = Ref.create () in
      for i = 0 to n - 1 do Ref.add_vertex r (name i) done;
      List.iter
        (fun (a, b) ->
          if a < n && b < n then begin
            G.Indexed.add_edge g a b;
            Ref.add_edge r (name a) (name b)
          end)
        edges;
      let names = List.map name in
      (match G.Indexed.topological_sort g with
       | Ok o -> Ok (names o)
       | Error c -> Error (names c))
      = Ref.topological_sort r)

(* ----------------------------- deadlock --------------------------- *)

let test_deadlock_free () =
  let p =
    B.proc ~name:"ok"
      ~inputs:[ Ast.var "x" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := delay (v "y") + v "x" ]
  in
  let kp = N.process_exn p in
  let r = D.analyze kp in
  Alcotest.(check bool) "no cycle" true r.D.deadlock_free;
  Alcotest.(check int) "no scc" 0 (List.length r.D.cycles)

let test_deadlock_cycle () =
  let p =
    B.proc ~name:"dead"
      ~inputs:[ Ast.var "x" tint ]
      ~outputs:[ Ast.var "y" tint ]
      ~locals:[ Ast.var "w" tint ]
      B.[ "y" := v "w" + v "x"; "w" := v "y" + i 1 ]
  in
  let kp = N.process_exn p in
  let r = D.analyze kp in
  Alcotest.(check bool) "cycle found" false r.D.deadlock_free;
  match r.D.cycles with
  | [ c ] ->
    Alcotest.(check bool) "y on cycle" true (List.mem "y" c.D.signals);
    Alcotest.(check bool) "w on cycle" true (List.mem "w" c.D.signals)
  | _ -> Alcotest.fail "expected one cycle"

let test_false_cycle_clock_disjoint () =
  (* y and w depend on each other but on exclusive clocks: the classic
     false cycle resolved by clock information *)
  let p =
    B.proc ~name:"falsecycle"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint; Ast.var "w" tint ]
      B.[ "y" := when_ (v "w" + i 1) (v "c") ;
          "w" := when_ (v "y" + i 1) (not_ (v "c")) ]
  in
  let kp = N.process_exn p in
  let c = C.analyze kp in
  let r = D.analyze ~calc:c kp in
  (* the SCC exists but is infeasible *)
  Alcotest.(check bool) "scc reported" true (List.length r.D.cycles >= 1);
  Alcotest.(check bool) "classified deadlock-free" true r.D.deadlock_free

let test_deadlock_through_fifo () =
  (* pop of a fifo feeding its own push through stepwise logic *)
  let p =
    B.proc ~name:"loop_fifo"
      ~inputs:[ Ast.var "e" Types.Tevent ]
      ~outputs:[ Ast.var "d" tint ]
      ~locals:[ Ast.var "s" tint; Ast.var "x" tint ]
      B.[ "x" := v "d" + i 1;
          inst ~params:[ Types.Vint 4; Types.Vstring "dropoldest" ] ~label:"q" "fifo"
            [ v "x"; v "e" ] [ "d"; "s" ] ]
  in
  let kp = N.process_exn p in
  let r = D.analyze kp in
  (* d -> x (stepwise) and push x -> size s, pop e -> d: the d/x loop
     goes through the fifo's push->size edge only, so d->x->s is not a
     cycle; but push->data is NOT an instantaneous dep, so this is
     actually deadlock-free. *)
  Alcotest.(check bool) "fifo breaks the loop" true r.D.deadlock_free

(* --------------------------- determinism -------------------------- *)

let test_determinism_exclusive () =
  let p =
    B.proc ~name:"det"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" =:: when_ (v "x") (v "c");
          "y" =:: when_ (v "x" + i 1) (not_ (v "c")) ]
  in
  let kp = N.process_exn p in
  let c = C.analyze kp in
  let r = Det.analyze c kp in
  Alcotest.(check bool) "exclusive guards deterministic" true
    r.Det.deterministic

let test_determinism_overlap () =
  (* the paper's finding: guards without priorities overlap *)
  let p =
    B.proc ~name:"nondet"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool; Ast.var "d" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" =:: when_ (v "x") (v "c");
          "y" =:: when_ (v "x" + i 1) (v "d") ]
  in
  let kp = N.process_exn p in
  let c = C.analyze kp in
  let r = Det.analyze c kp in
  Alcotest.(check bool) "overlap detected" false r.Det.deterministic;
  match r.Det.issues with
  | [ i ] -> Alcotest.(check string) "on y" "y" i.Det.signal
  | _ -> Alcotest.fail "expected exactly one issue"

let test_determinism_priority_fix () =
  (* priorities encoded by guarding the second branch with ¬c: the
     automaton becomes deterministic, as in the case study *)
  let p =
    B.proc ~name:"prioritized"
      ~inputs:[ Ast.var "x" tint; Ast.var "c" tbool; Ast.var "d" tbool ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ clk (v "c") ^= clk (v "d");
          "y" =:: when_ (v "x") (v "c");
          "y" =:: when_ (v "x" + i 1) (v "d" && not_ (v "c")) ]
  in
  let kp = N.process_exn p in
  let c = C.analyze kp in
  let r = Det.analyze c kp in
  Alcotest.(check bool) "priorities restore determinism" true
    r.Det.deterministic

(* ---------------------------- profiling --------------------------- *)

let test_profiling_static () =
  let p =
    B.proc ~name:"prof"
      ~inputs:[ Ast.var "a" tint; Ast.var "b" tint ]
      ~outputs:[ Ast.var "y" tint; Ast.var "z" tint ]
      B.[ "y" := v "a" + v "b"; "z" := v "a" * v "b" ]
  in
  let kp = N.process_exn p in
  let r = Prof.static_costs kp in
  Alcotest.(check bool) "total positive" true (r.Prof.total_static > 0);
  (* multiplication costs more than addition in the default model *)
  let cost x = List.assoc x r.Prof.per_signal in
  Alcotest.(check bool) "mul > add" true (cost "_t2" > cost "_t1" || cost "z" >= cost "y")

let test_profiling_weighted () =
  let p =
    B.proc ~name:"prof"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" + i 1 ]
  in
  let kp = N.process_exn p in
  let r = Prof.with_counts ~counts:(fun _ -> 10) kp in
  Alcotest.(check int) "weighted = 10x static" (10 * r.Prof.total_static)
    r.Prof.total_weighted

let test_profiling_model_sensitivity () =
  let p =
    B.proc ~name:"prof"
      ~inputs:[ Ast.var "a" tint ]
      ~outputs:[ Ast.var "y" tint ]
      B.[ "y" := v "a" * v "a" ]
  in
  let kp = N.process_exn p in
  let cheap = { Prof.default_cost_model with Prof.c_mult = 1 } in
  let r1 = Prof.static_costs kp in
  let r2 = Prof.static_costs ~model:cheap kp in
  Alcotest.(check bool) "expensive model costs more" true
    (r1.Prof.total_static > r2.Prof.total_static)

let suite =
  [ ("digraph",
     [ Alcotest.test_case "basics" `Quick test_graph_basics;
       Alcotest.test_case "sccs" `Quick test_sccs;
       Alcotest.test_case "self loop" `Quick test_self_loop;
       Alcotest.test_case "topological sort" `Quick test_topo_sort;
       Alcotest.test_case "reachable" `Quick test_reachable;
       QCheck_alcotest.to_alcotest prop_digraph_matches_reference;
       QCheck_alcotest.to_alcotest prop_indexed_matches_reference ]);
    ("deadlock",
     [ Alcotest.test_case "deadlock-free with delay" `Quick test_deadlock_free;
       Alcotest.test_case "instantaneous cycle" `Quick test_deadlock_cycle;
       Alcotest.test_case "false cycle (clocks)" `Quick
         test_false_cycle_clock_disjoint;
       Alcotest.test_case "fifo breaks cycles" `Quick test_deadlock_through_fifo ]);
    ("determinism",
     [ Alcotest.test_case "exclusive guards" `Quick test_determinism_exclusive;
       Alcotest.test_case "overlapping guards" `Quick test_determinism_overlap;
       Alcotest.test_case "priorities fix (paper V-C)" `Quick
         test_determinism_priority_fix ]);
    ("profiling",
     [ Alcotest.test_case "static costs" `Quick test_profiling_static;
       Alcotest.test_case "weighted costs" `Quick test_profiling_weighted;
       Alcotest.test_case "model sensitivity" `Quick
         test_profiling_model_sensitivity ]) ]
