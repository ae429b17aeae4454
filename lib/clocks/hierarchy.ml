type node = {
  class_id : int;
  repr : Signal_lang.Ast.ident;
  parent : int option;
  children : int list;
  depth : int;
}

type t = {
  all : node array;
  root_ids : int list;
}

let m_depth = Putil.Metrics.gauge "calculus.hierarchy_depth"
let m_builds = Putil.Metrics.counter "calculus.hierarchy_builds"

(* c1 strictly below c2: c1 ⊆ c2 and not c2 ⊆ c1 (under Φ). *)
let build calc =
  Putil.Tracing.with_span "clocks.hierarchy"
    ~args:
      [ ("classes",
         Putil.Tracing.Aint (List.length (Calculus.class_reprs calc))) ]
  @@ fun () ->
  let mgr = Calculus.manager calc in
  let reprs = Calculus.class_reprs calc in
  let n = List.length reprs in
  let clock = Array.make (max n 1) (Bdd.one mgr) in
  let repr_name = Array.make (max n 1) "" in
  List.iter
    (fun (c, r) ->
      clock.(c) <- Calculus.clock_of_class_id calc c;
      repr_name.(c) <- r)
    reprs;
  (* Memoized inclusion matrix over the structural (definitional)
     clocks. The forest follows the clock definitions, as in the
     Polychrony compiler; the context Φ refines point queries
     (emptiness, exclusion) in {!Calculus} but conjoining it into the
     n² comparisons is both needless for the tree shape and
     exponentially more expensive. *)
  (* [Bdd.implies] builds no node but writes the shared manager's
     apply cache; serialize against concurrent queries on the same
     analysis. *)
  let le_matrix =
    Calculus.with_query_lock calc @@ fun () ->
    Array.init n (fun a ->
        Array.init n (fun b -> Bdd.implies mgr clock.(a) clock.(b)))
  in
  let le a b = le_matrix.(a).(b) in
  let strictly_below a b = le a b && not (le b a) in
  (* parent of c: a minimal class among those strictly above c *)
  let parent = Array.make (max n 1) None in
  for c = 0 to n - 1 do
    let above = ref [] in
    for d = 0 to n - 1 do
      if d <> c && strictly_below c d then above := d :: !above
    done;
    (* minimal element of [above]: one with no other member of [above]
       strictly below it *)
    let minimal d =
      List.for_all (fun e -> e = d || not (strictly_below e d)) !above
    in
    parent.(c) <- List.find_opt minimal !above
  done;
  let children = Array.make (max n 1) [] in
  for c = n - 1 downto 0 do
    match parent.(c) with
    | Some p -> children.(p) <- c :: children.(p)
    | None -> ()
  done;
  let depth = Array.make (max n 1) 0 in
  let rec depth_of c =
    match parent.(c) with
    | None -> 0
    | Some p -> 1 + depth_of p
  in
  for c = 0 to n - 1 do
    depth.(c) <- depth_of c
  done;
  let all =
    Array.init n (fun c ->
        { class_id = c; repr = repr_name.(c); parent = parent.(c);
          children = children.(c); depth = depth.(c) })
  in
  let root_ids =
    Array.to_list all
    |> List.filter (fun nd -> nd.parent = None)
    |> List.map (fun nd -> nd.class_id)
  in
  Putil.Metrics.incr m_builds;
  Putil.Metrics.set m_depth (Array.fold_left max 0 depth);
  { all; root_ids }

let nodes t = Array.to_list t.all
let node t c = t.all.(c)
let roots t = List.map (fun c -> t.all.(c)) t.root_ids

let master t =
  match t.root_ids with
  | [ c ] -> Some t.all.(c).repr
  | _ -> None

let depth t =
  Array.fold_left (fun acc nd -> max acc nd.depth) 0 t.all

let pp ppf t =
  let rec pp_node indent c =
    let nd = t.all.(c) in
    Format.fprintf ppf "%s^%s@," (String.make indent ' ') nd.repr;
    List.iter (pp_node (indent + 2)) nd.children
  in
  Format.fprintf ppf "@[<v>";
  List.iter (pp_node 0) t.root_ids;
  Format.fprintf ppf "@]"
