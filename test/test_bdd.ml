(* Boolean-algebra laws of the BDD core, mostly property-based. *)

module Bdd = Clocks.Bdd

let mgr () = Bdd.manager ()

(* random boolean expressions over k variables, evaluated both through
   the BDD and directly *)
type bexp =
  | Var of int
  | Const of bool
  | Not of bexp
  | And of bexp * bexp
  | Or of bexp * bexp
  | Xor of bexp * bexp

let gen_bexp k =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 1 then
           oneof [ map (fun i -> Var i) (int_range 0 (k - 1));
                   map (fun b -> Const b) bool ]
         else
           oneof
             [ map (fun i -> Var i) (int_range 0 (k - 1));
               map (fun e -> Not e) (self (n - 1));
               map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)) ])

let rec to_bdd m = function
  | Var i -> Bdd.var m i
  | Const true -> Bdd.one m
  | Const false -> Bdd.zero m
  | Not e -> Bdd.not_ m (to_bdd m e)
  | And (a, b) -> Bdd.and_ m (to_bdd m a) (to_bdd m b)
  | Or (a, b) -> Bdd.or_ m (to_bdd m a) (to_bdd m b)
  | Xor (a, b) -> Bdd.xor_ m (to_bdd m a) (to_bdd m b)

let rec eval env = function
  | Var i -> env.(i)
  | Const b -> b
  | Not e -> not (eval env e)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b
  | Xor (a, b) -> eval env a <> eval env b

let nvars = 5

let all_envs =
  List.init (1 lsl nvars) (fun mask ->
      Array.init nvars (fun i -> (mask lsr i) land 1 = 1))

let prop_semantics =
  QCheck2.Test.make ~name:"bdd computes the boolean function" ~count:200
    (gen_bexp nvars) (fun e ->
      let m = mgr () in
      let b = to_bdd m e in
      (* compare to truth table via implication with minterms *)
      List.for_all
        (fun env ->
          let minterm =
            List.fold_left
              (fun acc i ->
                let v = Bdd.var m i in
                Bdd.and_ m acc (if env.(i) then v else Bdd.not_ m v))
              (Bdd.one m)
              (List.init nvars (fun i -> i))
          in
          let expected = eval env e in
          Bdd.implies m minterm b = expected)
        all_envs)

let prop_canonical =
  QCheck2.Test.make ~name:"equal functions share a node" ~count:200
    QCheck2.Gen.(pair (gen_bexp nvars) (gen_bexp nvars))
    (fun (e1, e2) ->
      let m = mgr () in
      let b1 = to_bdd m e1 and b2 = to_bdd m e2 in
      let same_fun = List.for_all (fun env -> eval env e1 = eval env e2) all_envs in
      Bdd.equal b1 b2 = same_fun)

let prop_de_morgan =
  QCheck2.Test.make ~name:"de morgan" ~count:200
    QCheck2.Gen.(pair (gen_bexp nvars) (gen_bexp nvars))
    (fun (e1, e2) ->
      let m = mgr () in
      let a = to_bdd m e1 and b = to_bdd m e2 in
      Bdd.equal
        (Bdd.not_ m (Bdd.and_ m a b))
        (Bdd.or_ m (Bdd.not_ m a) (Bdd.not_ m b)))

let prop_involution =
  QCheck2.Test.make ~name:"double negation" ~count:200 (gen_bexp nvars)
    (fun e ->
      let m = mgr () in
      let b = to_bdd m e in
      Bdd.equal b (Bdd.not_ m (Bdd.not_ m b)))

(* the emptiness deciders against their materializing definitions.
   The reference runs on its own manager: a wrong [true] is stored in
   the apply cache, and a reference conjunction on the same manager
   would read it back and agree. Each pair is decided by the walk, then
   again from the deciders' own cache entries, then from the entries
   [and_] and [or_] leave behind. *)
let prop_deciders =
  QCheck2.Test.make ~name:"disjoint/implies/exclusive = materialized"
    ~count:300
    QCheck2.Gen.(pair (gen_bexp nvars) (gen_bexp nvars))
    (fun (e1, e2) ->
      let r = mgr () in
      let ra = to_bdd r e1 and rb = to_bdd r e2 in
      let empty_and = Bdd.is_zero (Bdd.and_ r ra rb) in
      let reference =
        (empty_and, Bdd.is_zero (Bdd.diff r ra rb),
         Bdd.is_zero (Bdd.diff r rb ra), empty_and)
      in
      let m = mgr () in
      let a = to_bdd m e1 and b = to_bdd m e2 in
      let decide () =
        (Bdd.disjoint m a b, Bdd.implies m a b, Bdd.implies m b a,
         Bdd.exclusive m a b)
      in
      decide () = reference
      && decide () = reference
      && (ignore (Bdd.and_ m a b);
          ignore (Bdd.or_ m a b);
          decide () = reference))

let test_terminals () =
  let m = mgr () in
  Alcotest.(check bool) "zero" true (Bdd.is_zero (Bdd.zero m));
  Alcotest.(check bool) "one" true (Bdd.is_one (Bdd.one m));
  Alcotest.(check bool) "x and not x" true
    (let x = Bdd.var m 0 in
     Bdd.is_zero (Bdd.and_ m x (Bdd.not_ m x)));
  Alcotest.(check bool) "x or not x" true
    (let x = Bdd.var m 0 in
     Bdd.is_one (Bdd.or_ m x (Bdd.not_ m x)))

let test_implies_exclusive () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let xy = Bdd.and_ m x y in
  Alcotest.(check bool) "xy implies x" true (Bdd.implies m xy x);
  Alcotest.(check bool) "x does not imply xy" false (Bdd.implies m x xy);
  Alcotest.(check bool) "x excl not-x" true
    (Bdd.exclusive m x (Bdd.not_ m x));
  Alcotest.(check bool) "x not excl y" false (Bdd.exclusive m x y)

(* "allocation-free" as a count: the deciders never add a node, even
   for operands whose negation was never built *)
let test_deciders_allocate_nothing () =
  let build m =
    let x i = Bdd.var m i in
    [| Bdd.and_ m (x 0) (x 1);
       Bdd.or_ m (x 0) (x 2);
       Bdd.xor_ m (x 1) (x 3);
       Bdd.and_ m (Bdd.or_ m (x 0) (x 3)) (Bdd.xor_ m (x 2) (x 4));
       Bdd.or_ m (Bdd.and_ m (x 1) (x 2)) (Bdd.and_ m (x 3) (x 4));
       x 4; Bdd.zero m; Bdd.one m |]
  in
  let m = mgr () in
  let fs = build m in
  let before = Bdd.node_count m in
  let answers =
    Array.map
      (fun a ->
        Array.map
          (fun b ->
            (Bdd.disjoint m a b, Bdd.implies m a b, Bdd.exclusive m a b))
          fs)
      fs
  in
  Alcotest.(check int) "no node allocated" before (Bdd.node_count m);
  (* references on an independent manager, see [prop_deciders] *)
  let r = mgr () in
  let rs = build r in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          let d, le, ex = answers.(i).(j) in
          Alcotest.(check bool) "disjoint" (Bdd.is_zero (Bdd.and_ r a b)) d;
          Alcotest.(check bool) "implies" (Bdd.is_zero (Bdd.diff r a b)) le;
          Alcotest.(check bool) "exclusive" d ex)
        rs)
    rs

let test_support () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 3 in
  let f = Bdd.or_ m x y in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Bdd.support m f);
  (* y or not y cancels out *)
  let g = Bdd.and_ m f (Bdd.or_ m y (Bdd.not_ m y)) in
  Alcotest.(check (list int)) "redundant var eliminated" [ 0; 3 ]
    (Bdd.support m g)

(* the apply cache has replace semantics: recomputing an expression
   over already-built nodes must answer every consultation from the
   cache. This is the regression test for the old insert-once cache,
   whose entries could never be refreshed and whose measured hit rate
   stagnated around 21%. *)
let test_apply_cache_growth () =
  let m = mgr () in
  let build () =
    let acc = ref (Bdd.one m) in
    for i = 0 to 7 do
      let x = Bdd.var m i and y = Bdd.var m ((i + 3) mod 8) in
      acc := Bdd.and_ m !acc (Bdd.or_ m x (Bdd.xor_ m y (Bdd.not_ m x)))
    done;
    !acc
  in
  let f1 = build () in
  let consults1, hits1 = Bdd.apply_stats m in
  let f2 = build () in
  let consults2, hits2 = Bdd.apply_stats m in
  Alcotest.(check bool) "hash-consed to the same node" true (Bdd.equal f1 f2);
  let replay_consults = consults2 - consults1 in
  let replay_hits = hits2 - hits1 in
  Alcotest.(check bool) "replay consults the cache" true (replay_consults > 0);
  Alcotest.(check int) "every replayed consultation hits" replay_consults
    replay_hits

let test_any_sat () =
  let m = mgr () in
  Alcotest.(check bool) "zero unsat" true (Bdd.any_sat m (Bdd.zero m) = None);
  let x = Bdd.var m 0 in
  match Bdd.any_sat m x with
  | Some [ (0, true) ] -> ()
  | _ -> Alcotest.fail "expected assignment {0 -> true}"

(* quantification: ∃x. (x ∧ y) ∨ (¬x ∧ z) = y ∨ z *)
let test_exists () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.or_ m (Bdd.and_ m x y) (Bdd.and_ m (Bdd.not_ m x) z) in
  let q = Bdd.exists m ~cube:(Bdd.cube m [ 0 ]) f in
  Alcotest.(check bool) "∃x.f = y ∨ z" true (Bdd.equal q (Bdd.or_ m y z));
  let q2 = Bdd.exists m ~cube:(Bdd.cube m [ 0; 1; 2 ]) f in
  Alcotest.(check bool) "∃xyz.f = 1" true (Bdd.is_one q2);
  let q3 = Bdd.exists m ~cube:(Bdd.one m) f in
  Alcotest.(check bool) "∃∅.f = f" true (Bdd.equal q3 f)

let test_and_exists () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let a = Bdd.or_ m (Bdd.and_ m x y) z in
  let b = Bdd.or_ m (Bdd.not_ m x) (Bdd.not_ m z) in
  let cube = Bdd.cube m [ 0; 2 ] in
  let fused = Bdd.and_exists m ~cube a b in
  let naive = Bdd.exists m ~cube (Bdd.and_ m a b) in
  Alcotest.(check bool) "relprod = ∃.(a∧b)" true (Bdd.equal fused naive);
  let c0, _ = Bdd.relprod_stats m in
  Alcotest.(check bool) "relprod cache consulted" true (c0 > 0)

let test_rename () =
  let m = mgr () in
  (* next→current shift on interleaved rails: odd vars map one down *)
  let n0 = Bdd.var m 1 and n1 = Bdd.var m 3 in
  let f = Bdd.xor_ m n0 n1 in
  let map = [| 0; 0; 2; 2 |] in
  let r = Bdd.rename m ~map f in
  let c0 = Bdd.var m 0 and c1 = Bdd.var m 2 in
  Alcotest.(check bool) "renamed onto current rail" true
    (Bdd.equal r (Bdd.xor_ m c0 c1))

let test_sat_count () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 2 in
  let f = Bdd.or_ m x y in
  Alcotest.(check (float 0.0)) "x∨y over {0,2}" 3.0
    (Bdd.sat_count m ~vars:[| 0; 2 |] f);
  Alcotest.(check (float 0.0)) "free variable doubles the count" 6.0
    (Bdd.sat_count m ~vars:[| 0; 2; 4 |] f);
  Alcotest.(check (float 0.0)) "one over 3 vars" 8.0
    (Bdd.sat_count m ~vars:[| 0; 1; 2 |] (Bdd.one m));
  Alcotest.(check (float 0.0)) "zero" 0.0
    (Bdd.sat_count m ~vars:[| 0; 1 |] (Bdd.zero m))

let test_gc () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let keep = Bdd.and_ m x y in
  (* build garbage *)
  for i = 2 to 40 do
    ignore (Bdd.and_ m (Bdd.var m i) keep)
  done;
  let before = Bdd.node_count m in
  let roots = [| keep; x; y |] in
  let live = Bdd.gc m ~roots in
  Alcotest.(check bool) "swept garbage" true (live < before);
  let keep' = roots.(0) and x' = roots.(1) and y' = roots.(2) in
  Alcotest.(check bool) "roots stay valid" true
    (Bdd.equal keep' (Bdd.and_ m x' y'));
  Alcotest.(check bool) "semantics survive" true
    (Bdd.eval m (fun _ -> true) keep'
    && not (Bdd.eval m (fun v -> v <> 0) keep'));
  let collections, swept = Bdd.gc_stats m in
  Alcotest.(check bool) "stats recorded" true (collections >= 1 && swept > 0)

let test_id () =
  let m = mgr () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let a = Bdd.and_ m x y and b = Bdd.and_ m y x in
  Alcotest.(check int) "hash-consed ids equal" (Bdd.id a) (Bdd.id b);
  Alcotest.(check bool) "distinct nodes, distinct ids" true
    (Bdd.id a <> Bdd.id x)

(* ------------- rename: order-preserving variable maps -------------- *)

let perm_vars = 8

(* a random BDD over at most 8 variables and a random strictly
   increasing map of them (each variable at least one above the one
   before it, by a generated gap), the shape of the symbolic engine's
   next->current rail shift *)
let gen_monotone =
  let open QCheck2.Gen in
  let map =
    map
      (fun gaps ->
        let p = Array.make perm_vars 0 in
        List.iteri
          (fun v g -> p.(v) <- (if v = 0 then g else p.(v - 1) + 1 + g))
          gaps;
        p)
      (list_repeat perm_vars (int_bound 3))
  in
  triple (gen_bexp perm_vars) (gen_bexp perm_vars) map

(* [p]'s inverse on its image, the identity elsewhere *)
let inverse p =
  let q = Array.init (p.(Array.length p - 1) + 1) Fun.id in
  Array.iteri (fun v pv -> q.(pv) <- v) p;
  q

let print_monotone (_, _, p) =
  String.concat " " (Array.to_list (Array.map string_of_int p))

let prop_rename_eval =
  QCheck2.Test.make ~name:"rename: eval agrees under every assignment"
    ~count:200 ~print:print_monotone gen_monotone (fun (e, _, p) ->
      let m = mgr () in
      let a = to_bdd m e in
      let b = Bdd.rename m ~map:p a in
      List.for_all
        (fun mask ->
          let env v = (mask lsr v) land 1 = 1 in
          (* the same bits on the target variables; the others are
             false and outside the support of [b] *)
          let target = Array.make (p.(perm_vars - 1) + 1) false in
          Array.iteri (fun v pv -> target.(pv) <- env v) p;
          Bdd.eval m env a = Bdd.eval m (Array.get target) b)
        (List.init (1 lsl perm_vars) Fun.id))

let prop_rename_inverse =
  QCheck2.Test.make ~name:"rename by p then by p^-1 is the same node"
    ~count:200 ~print:print_monotone gen_monotone (fun (e, _, p) ->
      let m = mgr () in
      let a = to_bdd m e in
      let back = Bdd.rename m ~map:(inverse p) (Bdd.rename m ~map:p a) in
      Bdd.equal a back)

let prop_rename_homomorphism =
  QCheck2.Test.make ~name:"rename commutes with and_ and not_" ~count:200
    ~print:print_monotone gen_monotone (fun (e1, e2, p) ->
      let m = mgr () in
      let a = to_bdd m e1 and b = to_bdd m e2 in
      let pi = Bdd.rename m ~map:p in
      Bdd.equal (pi (Bdd.and_ m a b)) (Bdd.and_ m (pi a) (pi b))
      && Bdd.equal (pi (Bdd.not_ m a)) (Bdd.not_ m (pi a)))

(* a map that swaps two variables of the support would need every node
   rebuilt through [apply]; [rename] refuses it *)
let test_rename_rejects_reordering () =
  let m = mgr () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.not_ m (Bdd.var m 1)) in
  Alcotest.check_raises "swap of the support"
    (Invalid_argument "Bdd.rename: the map reorders the support")
    (fun () -> ignore (Bdd.rename m ~map:[| 1; 0 |] f));
  (* reordering variables outside the support is no reordering of it *)
  let g = Bdd.var m 2 in
  Alcotest.(check bool) "outside the support" true
    (Bdd.equal g (Bdd.rename m ~map:[| 1; 0 |] g))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_semantics; prop_canonical; prop_de_morgan; prop_involution;
      prop_deciders; prop_rename_eval; prop_rename_inverse;
      prop_rename_homomorphism ]

let suite =
  [ ("bdd",
     [ Alcotest.test_case "terminals" `Quick test_terminals;
       Alcotest.test_case "implies/exclusive" `Quick test_implies_exclusive;
       Alcotest.test_case "deciders allocate no node" `Quick
         test_deciders_allocate_nothing;
       Alcotest.test_case "support" `Quick test_support;
       Alcotest.test_case "apply cache replays as hits" `Quick
         test_apply_cache_growth;
       Alcotest.test_case "any_sat" `Quick test_any_sat;
       Alcotest.test_case "exists over cube" `Quick test_exists;
       Alcotest.test_case "and_exists relational product" `Quick
         test_and_exists;
       Alcotest.test_case "rename rails" `Quick test_rename;
       Alcotest.test_case "rename rejects a reordering map" `Quick
         test_rename_rejects_reordering;
       Alcotest.test_case "sat_count" `Quick test_sat_count;
       Alcotest.test_case "gc keeps roots" `Quick test_gc;
       Alcotest.test_case "node id" `Quick test_id ]
     @ qsuite) ]
