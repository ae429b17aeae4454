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
let m_implies = Putil.Metrics.counter "calculus.hierarchy_implies"

(* Bit [j] of [assignment v w] is variable [v]'s value in fixed
   assignment [63 w + j] (a splitmix-style hash of [v] and [w]). *)
let assignment v w =
  let x = (v * 0x9E3779B97F4A7C1) + w in
  let x = (x lxor (x lsr 29)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 32)) * 0x14D049BB133111EB in
  x lxor (x lsr 29)

(* The signature of a function is its value under the 126 fixed
   assignments, two words of 63 bits, computed bottom-up with one
   bitwise ite per node. If a ⊆ b then a's signature is bitwise
   included in b's, so [sig a land lnot sig b <> 0] on either word
   refutes a ⊆ b without a BDD walk (DESIGN.md §12). *)
let signatures mgr clocks =
  let memo = Hashtbl.create 1024 in
  let rec sig_of b =
    match Bdd.view mgr b with
    | `Leaf false -> (0, 0)
    | `Leaf true -> (-1, -1)
    | `Node (v, lo, hi) -> (
      match Hashtbl.find_opt memo (Bdd.id b) with
      | Some s -> s
      | None ->
        let l0, l1 = sig_of lo and h0, h1 = sig_of hi in
        let x0 = assignment v 0 and x1 = assignment v 1 in
        let s =
          ( (h0 land x0) lor (l0 land lnot x0),
            (h1 land x1) lor (l1 land lnot x1) )
        in
        Hashtbl.add memo (Bdd.id b) s;
        s)
  in
  Array.map sig_of clocks

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
  let clock = Array.make n (Bdd.one mgr) in
  let repr_name = Array.make n "" in
  List.iter
    (fun (c, r) ->
      clock.(c) <- Calculus.clock_of_class_id calc c;
      repr_name.(c) <- r)
    reprs;
  (* Inclusion matrix over the structural (definitional) clocks. The
     forest follows the clock definitions, as in the Polychrony
     compiler; the context Φ refines point queries (emptiness,
     exclusion) in {!Calculus} but conjoining it into the n²
     comparisons is both needless for the tree shape and exponentially
     more expensive. [up.(a)] lists, ascending, every b with a ⊆ b;
     [le] is the same relation as a bit matrix. Only the pairs whose
     signatures allow inclusion are decided by [Bdd.implies]. *)
  (* [Bdd.implies] builds no node but writes the shared manager's
     apply cache; serialize against concurrent queries on the same
     analysis. *)
  let le_bits = Bytes.make (((n * n) + 7) / 8) '\000' in
  let up = Array.make n [] in
  Calculus.with_query_lock calc (fun () ->
      let sigs = signatures mgr clock in
      let implies = ref 0 in
      for a = n - 1 downto 0 do
        let a0, a1 = sigs.(a) in
        for b = n - 1 downto 0 do
          let b0, b1 = sigs.(b) in
          if (a0 land lnot b0) lor (a1 land lnot b1) = 0
             && (a = b
                 || begin
                   incr implies;
                   Bdd.implies mgr clock.(a) clock.(b)
                 end)
          then begin
            let k = (a * n) + b in
            Bytes.set_uint8 le_bits (k lsr 3)
              (Bytes.get_uint8 le_bits (k lsr 3) lor (1 lsl (k land 7)));
            up.(a) <- b :: up.(a)
          end
        done
      done;
      Putil.Metrics.incr ~by:!implies m_implies);
  let le a b =
    let k = (a * n) + b in
    Bytes.get_uint8 le_bits (k lsr 3) land (1 lsl (k land 7)) <> 0
  in
  let strictly_below a b = le a b && not (le b a) in
  (* parent of c: a minimal class among those strictly above c, the
     highest-numbered one when several are *)
  let parent = Array.make n None in
  for c = 0 to n - 1 do
    let above =
      List.fold_left
        (fun acc d -> if d <> c && not (le d c) then d :: acc else acc)
        [] up.(c)
    in
    (* minimal element of [above]: one with no other member of [above]
       strictly below it *)
    let minimal d =
      List.for_all (fun e -> e = d || not (strictly_below e d)) above
    in
    parent.(c) <- List.find_opt minimal above
  done;
  let children = Array.make n [] in
  for c = n - 1 downto 0 do
    match parent.(c) with
    | Some p -> children.(p) <- c :: children.(p)
    | None -> ()
  done;
  let depth = Array.make n 0 in
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
