(* Vertices are dense ints. Edges are recorded raw (newest first,
   duplicates kept) and the first query freezes the graph: one sort of
   the vertices into their order, one int sort and dedup of each
   successor list, and Tarjan's algorithm over the arrays when a query
   needs components. Any mutation drops the frozen form. A query may
   freeze concurrently with another query; both build equal values and
   either one may be kept. *)

type frozen = {
  order : int array;        (* the vertices, in order *)
  rank : int array;         (* vertex -> position in [order] *)
  succ : int array array;   (* vertex -> successors, deduplicated, in order *)
  edges : int;
  mutable comps : int array list option;
      (* Tarjan's components in emission order, each in push order *)
}

type graph = {
  mutable n : int;
  mutable raw : (int * int) list;
  mutable frozen : frozen option;
}

let graph_add_edge g a b =
  g.raw <- (a, b) :: g.raw;
  g.frozen <- None

let freeze g ~order =
  match g.frozen with
  | Some f -> f
  | None ->
    let order = order () in
    let rank = Array.make g.n 0 in
    Array.iteri (fun k v -> rank.(v) <- k) order;
    let out = Array.make g.n [] in
    List.iter (fun (a, b) -> out.(a) <- rank.(b) :: out.(a)) g.raw;
    let succ =
      Array.map
        (fun rs ->
          Array.of_list
            (List.map (Array.get order) (List.sort_uniq Int.compare rs)))
        out
    in
    let edges = Array.fold_left (fun n s -> n + Array.length s) 0 succ in
    let f = { order; rank; succ; edges; comps = None } in
    g.frozen <- Some f;
    f

(* Tarjan's algorithm with an explicit call stack: roots and
   successors are visited in order, so components come out exactly as
   the recursive formulation over sorted names emits them. *)
let tarjan f =
  let n = Array.length f.succ in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_i = Array.make n 0 in
  let fp = ref 0 and counter = ref 0 and comps = ref [] in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_i.(!fp) <- 0;
    incr fp
  in
  let visit root =
    if index.(root) < 0 then begin
      enter root;
      while !fp > 0 do
        let v = frame_v.(!fp - 1) and i = frame_i.(!fp - 1) in
        if i < Array.length f.succ.(v) then begin
          frame_i.(!fp - 1) <- i + 1;
          let w = f.succ.(v).(i) in
          if index.(w) < 0 then enter w
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          decr fp;
          if low.(v) = index.(v) then begin
            let base = ref (!sp - 1) in
            while stack.(!base) <> v do decr base done;
            let comp = Array.sub stack !base (!sp - !base) in
            Array.iter (fun w -> on_stack.(w) <- false) comp;
            sp := !base;
            comps := comp :: !comps
          end;
          if !fp > 0 then begin
            let u = frame_v.(!fp - 1) in
            low.(u) <- min low.(u) low.(v)
          end
        end
      done
    end
  in
  Array.iter visit f.order;
  List.rev !comps

let components f =
  match f.comps with
  | Some c -> c
  | None ->
    let c = tarjan f in
    f.comps <- Some c;
    c

let nontrivial f =
  List.filter
    (fun comp ->
      Array.length comp > 1
      || Array.exists (fun w -> w = comp.(0)) f.succ.(comp.(0)))
    (components f)

let topo f =
  match nontrivial f with
  | cycle :: _ -> Error (Array.to_list cycle)
  | [] ->
    (* Tarjan emits an SCC before every SCC that can reach it, so the
       flattened emission order lists successors first; reversing gives
       sources before targets. *)
    Ok
      (List.fold_left
         (fun acc comp -> Array.fold_left (fun acc v -> v :: acc) acc comp)
         [] (components f))

let reach f v =
  let seen = Array.make (Array.length f.succ) false and found = ref [] in
  let visit todo s =
    if seen.(s) then todo
    else begin
      seen.(s) <- true;
      found := s :: !found;
      s :: todo
    end
  in
  let rec go = function
    | [] -> ()
    | w :: todo -> go (Array.fold_left visit todo f.succ.(w))
  in
  go [ v ];
  List.sort (fun a b -> Int.compare f.rank.(a) f.rank.(b)) !found

(* ---- string-named vertices, ordered by [String.compare] ---- *)

type t = {
  g : graph;
  ids : (string, int) Hashtbl.t;
  mutable names : string array;  (* id -> name; grows by doubling *)
}

let create () =
  { g = { n = 0; raw = []; frozen = None }; ids = Hashtbl.create 64;
    names = [||] }

let id t v =
  match Hashtbl.find_opt t.ids v with
  | Some i -> i
  | None ->
    let i = t.g.n in
    if i = Array.length t.names then
      t.names <- Array.append t.names (Array.make (max 16 i) "");
    t.names.(i) <- v;
    t.g.n <- i + 1;
    t.g.frozen <- None;
    Hashtbl.add t.ids v i;
    i

let add_vertex t v = ignore (id t v)
let add_edge t a b = graph_add_edge t.g (id t a) (id t b)

let frozen t =
  freeze t.g ~order:(fun () ->
      let order = Array.init t.g.n Fun.id in
      Array.sort (fun a b -> String.compare t.names.(a) t.names.(b)) order;
      order)

let named t = List.map (Array.get t.names)
let named_comps t = List.map (fun c -> named t (Array.to_list c))
let vertices t = named t (Array.to_list (frozen t).order)

let successors t v =
  match Hashtbl.find_opt t.ids v with
  | None -> []
  | Some i -> named t (Array.to_list (frozen t).succ.(i))

let edge_count t = (frozen t).edges
let sccs t = named_comps t (components (frozen t))
let nontrivial_sccs t = named_comps t (nontrivial (frozen t))

let topological_sort t =
  match topo (frozen t) with
  | Ok order -> Ok (named t order)
  | Error cycle -> Error (named t cycle)

let reachable t v =
  match Hashtbl.find_opt t.ids v with
  | None -> []
  | Some i -> named t (reach (frozen t) i)

(* ---- int vertices in a caller-given order ---- *)

module Indexed = struct
  type t = { ig : graph; iorder : int array }

  let create ~order =
    let n = Array.length order in
    let seen = Array.make n false in
    Array.iter
      (fun v ->
        if v < 0 || v >= n || seen.(v) then
          invalid_arg "Digraph.Indexed.create: order is not a permutation";
        seen.(v) <- true)
      order;
    { ig = { n; raw = []; frozen = None }; iorder = Array.copy order }

  let add_edge t a b =
    if a < 0 || a >= t.ig.n || b < 0 || b >= t.ig.n then
      invalid_arg "Digraph.Indexed.add_edge: no such vertex";
    graph_add_edge t.ig a b

  let topological_sort t = topo (freeze t.ig ~order:(fun () -> t.iorder))
end
