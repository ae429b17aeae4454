(* Hash-consed ROBDDs. Nodes are integers into growable arrays; 0 and 1
   are the terminal nodes. The classic unique-table + apply-cache
   construction, with the hot paths flattened:

   - the unique table is open-addressing over node ids (slot 0 = empty;
     node keys are re-read from the node arrays, so a probe is three
     int array loads and no allocation), kept under 50% load;
   - the apply cache is direct-mapped over packed immediate-int keys
     [(((a lsl 30) lor b) lsl 2) lor op], replaced on collision — the
     leak-free replacement for an ever-growing [Hashtbl.add] cache;
   - negations are memoized in a per-node array, in both directions
     ([¬a = r] also records [¬r = a]), making complements O(1) once
     computed and enabling complement terminals ([a ∧ ¬a = 0],
     [a ∨ ¬a = 1], [a ⊕ ¬a = 1]) as plain array probes.

   Packed keys need node ids below 2^30; [mk] enforces the limit. *)

type t = int

type manager = {
  mutable var_of : int array;   (* node -> variable index *)
  mutable low_of : int array;   (* node -> low child (var = false) *)
  mutable high_of : int array;  (* node -> high child (var = true) *)
  mutable not_of : int array;   (* node -> memoized negation, -1 unknown *)
  mutable next : int;           (* next free node id *)
  mutable uniq : int array;     (* open addressing: node ids, 0 = empty *)
  mutable cache_key : int array;  (* direct-mapped apply cache, 0 = empty *)
  mutable cache_val : int array;
  mutable cache_mask : int;
  mutable applies : int;     (* apply-cache consultations *)
  mutable apply_hits : int;  (* ... of which hits *)
  (* relational-product (and-exists) cache: a ternary key does not pack
     into one immediate int, so it gets its own direct-mapped arrays,
     allocated lazily on the first [and_exists]. Slot empty ⇔ key_a = -1. *)
  mutable rp_key_a : int array;
  mutable rp_key_b : int array;
  mutable rp_key_c : int array;
  mutable rp_val : int array;
  mutable rp_mask : int;
  mutable rp_applies : int;
  mutable rp_hits : int;
  mutable gc_collections : int;  (* mark-and-sweep runs *)
  mutable gc_swept : int;        (* dead nodes reclaimed, cumulative *)
}

(* A manager starts small and grows with its node count: the unique
   table stays under 50% load, and the apply cache keeps one entry per
   node up to [cache_maybe_grow]'s bound. *)
let initial_capacity = 1024  (* nodes and apply cache; power of two *)
let initial_table = 2048     (* unique table; power of two *)

let node_limit = 1 lsl 30  (* ids must pack into 30 bits of an apply key *)

let manager () =
  let m =
    { var_of = Array.make initial_capacity max_int;
      low_of = Array.make initial_capacity (-1);
      high_of = Array.make initial_capacity (-1);
      not_of = Array.make initial_capacity (-1);
      next = 2;
      uniq = Array.make initial_table 0;
      cache_key = Array.make initial_capacity 0;
      cache_val = Array.make initial_capacity 0;
      cache_mask = initial_capacity - 1;
      applies = 0;
      apply_hits = 0;
      rp_key_a = [||];
      rp_key_b = [||];
      rp_key_c = [||];
      rp_val = [||];
      rp_mask = 0;
      rp_applies = 0;
      rp_hits = 0;
      gc_collections = 0;
      gc_swept = 0 }
  in
  (* terminals: node 0 = false, node 1 = true; their variable index is
     max_int so every real variable tests before them. *)
  m.var_of.(0) <- max_int;
  m.var_of.(1) <- max_int;
  m.not_of.(0) <- 1;
  m.not_of.(1) <- 0;
  m

let zero (_ : manager) = 0
let one (_ : manager) = 1

let grow m =
  let cap = Array.length m.var_of in
  if m.next >= cap then begin
    let ncap = cap * 2 in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap; b
    in
    m.var_of <- extend m.var_of max_int;
    m.low_of <- extend m.low_of (-1);
    m.high_of <- extend m.high_of (-1);
    m.not_of <- extend m.not_of (-1)
  end

let uniq_hash v low high =
  let h = ((v * 0x9e3779b1) + low) * 0x9e3779b1 + high in
  (h lxor (h lsr 29)) land max_int

let uniq_insert_node m tbl mask n =
  let h = uniq_hash m.var_of.(n) m.low_of.(n) m.high_of.(n) in
  let i = ref (h land mask) in
  while tbl.(!i) <> 0 do i := (!i + 1) land mask done;
  tbl.(!i) <- n

(* keep the unique table under 50% load so probe chains stay short *)
let uniq_maybe_grow m =
  if 2 * m.next >= Array.length m.uniq then begin
    let size = 2 * Array.length m.uniq in
    let tbl = Array.make size 0 in
    let mask = size - 1 in
    for n = 2 to m.next - 1 do
      uniq_insert_node m tbl mask n
    done;
    m.uniq <- tbl;
    Putil.Tracing.instant "bdd.uniq_grow" ~cat:"clocks"
      ~args:
        [ ("nodes", Putil.Tracing.Aint m.next);
          ("table", Putil.Tracing.Aint size) ]
  end

let cache_slot m key = ((key * 0x2545F4914F6CDD1D) lsr 32) land m.cache_mask

(* scale the cache with the node count (entries survive the move), up
   to a bound that keeps it resident for pathological managers *)
let cache_maybe_grow m =
  if m.next > Array.length m.cache_key
     && Array.length m.cache_key < 1 lsl 22
  then begin
    let old_key = m.cache_key and old_val = m.cache_val in
    let size = 2 * Array.length old_key in
    m.cache_key <- Array.make size 0;
    m.cache_val <- Array.make size 0;
    m.cache_mask <- size - 1;
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let s = cache_slot m k in
          m.cache_key.(s) <- k;
          m.cache_val.(s) <- old_val.(i)
        end)
      old_key
  end

let mk m v low high =
  if low = high then low
  else begin
    let mask = Array.length m.uniq - 1 in
    let i = ref (uniq_hash v low high land mask) in
    let found = ref (-1) in
    let probing = ref true in
    while !probing do
      let n = m.uniq.(!i) in
      if n = 0 then probing := false
      else if m.var_of.(n) = v && m.low_of.(n) = low && m.high_of.(n) = high
      then begin
        found := n;
        probing := false
      end
      else i := (!i + 1) land mask
    done;
    if !found >= 0 then !found
    else begin
      if m.next >= node_limit then
        failwith "Bdd.mk: node limit (2^30) exceeded";
      grow m;
      let n = m.next in
      m.next <- n + 1;
      m.var_of.(n) <- v;
      m.low_of.(n) <- low;
      m.high_of.(n) <- high;
      m.uniq.(!i) <- n;
      uniq_maybe_grow m;
      cache_maybe_grow m;
      n
    end
  end

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative variable";
  if i = max_int then invalid_arg "Bdd.var: reserved index";
  mk m i 0 1

let rec not_ m a =
  let r = m.not_of.(a) in
  if r >= 0 then r
  else begin
    let r = mk m m.var_of.(a) (not_ m m.low_of.(a)) (not_ m m.high_of.(a)) in
    m.not_of.(a) <- r;
    m.not_of.(r) <- a;
    r
  end

(* op codes for the apply cache *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_exists = 3  (* key packs (operand, cube) instead of (a, b) *)

(* 2-way set associative lookup in the apply cache: a paired slot
   halves conflict evictions. Returns the cached node, or -1. *)
let cache_find m key =
  m.applies <- m.applies + 1;
  let slot = cache_slot m key in
  let slot =
    if m.cache_key.(slot) = key then slot
    else if m.cache_key.(slot lxor 1) = key then slot lxor 1
    else -1
  in
  if slot < 0 then -1
  else begin
    m.apply_hits <- m.apply_hits + 1;
    m.cache_val.(slot)
  end

(* callers store after recursing: the slot is re-derived here because
   [mk] may have resized the cache in between *)
let cache_store m key r =
  let slot = cache_slot m key in
  let slot = if m.cache_key.(slot) = 0 then slot else slot lxor 1 in
  m.cache_key.(slot) <- key;
  m.cache_val.(slot) <- r

(* all binary ops are commutative: the key is order-normalized *)
let apply_key op a b =
  let ka = if a < b then a else b in
  let kb = if a < b then b else a in
  (((ka lsl 30) lor kb) lsl 2) lor op

let rec apply m op a b =
  let terminal =
    if op = op_and then
      if a = 0 || b = 0 then 0
      else if a = 1 then b
      else if b = 1 then a
      else if a = b then a
      else if m.not_of.(a) = b then 0
      else -1
    else if op = op_or then
      if a = 1 || b = 1 then 1
      else if a = 0 then b
      else if b = 0 then a
      else if a = b then a
      else if m.not_of.(a) = b then 1
      else -1
    else if a = b then 0
    else if a = 0 then b
    else if b = 0 then a
    else if a = 1 then not_ m b
    else if b = 1 then not_ m a
    else if m.not_of.(a) = b then 1
    else -1
  in
  if terminal >= 0 then terminal
  else begin
    let key = apply_key op a b in
    let r = cache_find m key in
    if r >= 0 then r
    else begin
      let va = m.var_of.(a) and vb = m.var_of.(b) in
      let v = min va vb in
      let a0, a1 = if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b) in
      let r = mk m v (apply m op a0 b0) (apply m op a1 b1) in
      cache_store m key r;
      r
    end
  end

let and_ m a b = apply m op_and a b

(* halves of similar size meet at each level, so no operand grows into
   the running conjunction of everything before it *)
let conj m xs =
  let rec go lo hi =
    if hi - lo = 1 then xs.(lo)
    else
      let mid = (lo + hi) / 2 in
      and_ m (go lo mid) (go mid hi)
  in
  if Array.length xs = 0 then 1 else go 0 (Array.length xs)

let or_ m a b = apply m op_or a b
let xor_ m a b = apply m op_xor a b
let diff m a b = apply m op_and a (not_ m b)
let imp m a b = apply m op_or (not_ m a) b

let equal (a : t) (b : t) = a = b
let is_zero a = a = 0
let is_one a = a = 1

(* Emptiness decisions walk cofactor pairs without calling [mk], and
   stop at the first satisfiable path. A [false] answer ends the whole
   search, so only [true] sub-results are ever worth remembering, and
   each one is a genuine apply-cache fact: [a ∧ b = 0] is the [op_and]
   entry [(a, b) ↦ 0], [a ⇒ b] is the [op_or] entry [(a, b) ↦ b]. Any
   entry [apply] left behind answers a lookup the same way. *)

(* [a ∧ b = 0]; a non-zero node is satisfiable, so [1] meets it *)
let rec disjoint m a b =
  if a = 0 || b = 0 then true
  else if a = 1 || b = 1 || a = b then false
  else if m.not_of.(a) = b then true
  else begin
    let key = apply_key op_and a b in
    let r = cache_find m key in
    if r >= 0 then r = 0
    else begin
      let va = m.var_of.(a) and vb = m.var_of.(b) in
      let v = min va vb in
      let a0, a1 = if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b) in
      if disjoint m a0 b0 && disjoint m a1 b1 then begin
        cache_store m key 0;
        true
      end
      else false
    end
  end

(* [a ∧ ¬b = 0], i.e. [a ∨ b = b], without building [¬b] *)
let rec implies m a b =
  if a = 0 || b = 1 || a = b then true
  else if a = 1 || b = 0 || m.not_of.(a) = b then false
  else begin
    let key = apply_key op_or a b in
    let r = cache_find m key in
    if r >= 0 then r = b
    else begin
      let va = m.var_of.(a) and vb = m.var_of.(b) in
      let v = min va vb in
      let a0, a1 = if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a) in
      let b0, b1 = if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b) in
      if implies m a0 b0 && implies m a1 b1 then begin
        cache_store m key b;
        true
      end
      else false
    end
  end

let exclusive = disjoint

(* ------------------------------------------------------------------ *)
(* Symbolic-reachability primitives: quantification, relational
   product, renaming, model counting, garbage collection.             *)
(* ------------------------------------------------------------------ *)

(* A cube is the conjunction of positive literals: every node's low
   child is 0, so walking [high_of] enumerates the quantified
   variables in order. *)
let cube m vars =
  List.fold_left (fun acc v -> and_ m acc (var m v)) 1
    (List.sort_uniq compare vars)

(* drop cube variables below [v]: they cannot occur in the operand, so
   quantifying them is the identity *)
let rec cube_above m v c =
  if c = 1 || m.var_of.(c) >= v then c else cube_above m v m.high_of.(c)

let rec exists m ~cube:c a =
  if a <= 1 || c = 1 then a
  else begin
    let va = m.var_of.(a) in
    let c = cube_above m va c in
    if c = 1 then a
    else begin
      let key = (((a lsl 30) lor c) lsl 2) lor op_exists in
      let r = cache_find m key in
      if r >= 0 then r
      else begin
        let a0 = m.low_of.(a) and a1 = m.high_of.(a) in
        let r =
          if m.var_of.(c) = va then
            let c' = m.high_of.(c) in
            or_ m (exists m ~cube:c' a0) (exists m ~cube:c' a1)
          else mk m va (exists m ~cube:c a0) (exists m ~cube:c a1)
        in
        cache_store m key r;
        r
      end
    end
  end

let rp_initial = 32768  (* power of two *)

let rp_ensure m =
  if m.rp_mask = 0 then begin
    m.rp_key_a <- Array.make rp_initial (-1);
    m.rp_key_b <- Array.make rp_initial (-1);
    m.rp_key_c <- Array.make rp_initial (-1);
    m.rp_val <- Array.make rp_initial 0;
    m.rp_mask <- rp_initial - 1
  end

let rp_slot m a b c =
  let h = ((a * 0x9e3779b1 + b) * 0x9e3779b1 + c) * 0x2545F4914F6CDD1D in
  (h lsr 32) land m.rp_mask

(* [and_exists m ~cube a b] = ∃cube. a ∧ b without materializing the
   conjunction — the image-computation hot path. *)
let rec and_exists m ~cube:c a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then exists m ~cube:c b
  else if b = 1 then exists m ~cube:c a
  else if a = b then exists m ~cube:c a
  else if m.not_of.(a) = b then 0
  else begin
    let va = m.var_of.(a) and vb = m.var_of.(b) in
    let v = min va vb in
    let c = cube_above m v c in
    if c = 1 then and_ m a b
    else begin
      rp_ensure m;
      let ka = if a < b then a else b in
      let kb = if a < b then b else a in
      m.rp_applies <- m.rp_applies + 1;
      let slot = rp_slot m ka kb c in
      if m.rp_key_a.(slot) = ka && m.rp_key_b.(slot) = kb
         && m.rp_key_c.(slot) = c
      then begin
        m.rp_hits <- m.rp_hits + 1;
        m.rp_val.(slot)
      end
      else begin
        let a0, a1 =
          if va = v then (m.low_of.(a), m.high_of.(a)) else (a, a)
        in
        let b0, b1 =
          if vb = v then (m.low_of.(b), m.high_of.(b)) else (b, b)
        in
        let r =
          if m.var_of.(c) = v then
            let c' = m.high_of.(c) in
            or_ m (and_exists m ~cube:c' a0 b0) (and_exists m ~cube:c' a1 b1)
          else mk m v (and_exists m ~cube:c a0 b0) (and_exists m ~cube:c a1 b1)
        in
        m.rp_key_a.(slot) <- ka;
        m.rp_key_b.(slot) <- kb;
        m.rp_key_c.(slot) <- c;
        m.rp_val.(slot) <- r;
        r
      end
    end
  end

(* [rename m ~map] substitutes variable [v] by [map.(v)] (identity
   beyond the array) for a map that keeps the order of the argument's
   support, such as the next→current shift on interleaved rails: every
   node is one [mk] over its renamed children. A map that reorders the
   support would need each node rebuilt through [apply]; it is
   rejected instead. The memo lives in the closure: partially applied
   to [~map], one pass serves every root that shares nodes. *)
let rename m ~map =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if n <= 1 then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = m.var_of.(n) in
        let v' = if v < Array.length map then map.(v) else v in
        let hi = go m.high_of.(n) and lo = go m.low_of.(n) in
        if v' >= m.var_of.(hi) || v' >= m.var_of.(lo) then
          invalid_arg "Bdd.rename: the map reorders the support";
        let r = mk m v' lo hi in
        Hashtbl.add memo n r;
        r
  in
  go

(* [sat_count m ~vars a] counts satisfying assignments over exactly the
   variable set [vars] (sorted ascending; must contain the support).
   Float-valued: 2^k overflows no sooner than the caller can iterate. *)
let sat_count m ~vars a =
  let nv = Array.length vars in
  let idx = Hashtbl.create (2 * nv + 1) in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) vars;
  let memo = Hashtbl.create 64 in
  (* count over vars.(i..) for a node whose top variable is vars.(i) *)
  let rec go n i =
    if n = 0 then 0.0
    else if n = 1 then ldexp 1.0 (nv - i)
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = m.var_of.(n) in
        (match Hashtbl.find_opt idx v with
         | None -> invalid_arg "Bdd.sat_count: support exceeds vars"
         | Some j ->
           let c = go_at m.low_of.(n) (j + 1) +. go_at m.high_of.(n) (j + 1) in
           Hashtbl.add memo n c;
           c)
  and go_at n i =
    (* scale by the don't-care gap between position [i] and the node *)
    if n = 0 then 0.0
    else if n = 1 then ldexp 1.0 (nv - i)
    else
      let j =
        match Hashtbl.find_opt idx m.var_of.(n) with
        | Some j -> j
        | None -> invalid_arg "Bdd.sat_count: support exceeds vars"
      in
      ldexp (go n j) (j - i)
  in
  go_at a 0

(* Compacting mark-and-sweep. Every live node must be reachable from
   [roots]; the array is rewritten in place with the relocated ids, and
   every other handle the client kept is invalid afterwards. Never runs
   implicitly — callers (the symbolic engine, between image iterations)
   decide when the table has grown enough to be worth sweeping, and
   publish it if they want it seen: a manager is not a global. *)
let gc m ~roots =
  let n = m.next in
  let marked = Bytes.make n '\000' in
  Bytes.unsafe_set marked 0 '\001';
  Bytes.unsafe_set marked 1 '\001';
  (* recursion depth is bounded by the longest var chain, not node count *)
  let rec mark i =
    if Bytes.unsafe_get marked i = '\000' then begin
      Bytes.unsafe_set marked i '\001';
      mark m.low_of.(i);
      mark m.high_of.(i)
    end
  in
  Array.iter mark roots;
  let map = Array.make n (-1) in
  map.(0) <- 0;
  map.(1) <- 1;
  let live = ref 2 in
  for i = 2 to n - 1 do
    if Bytes.unsafe_get marked i = '\001' then begin
      map.(i) <- !live;
      incr live
    end
  done;
  let live = !live in
  (* compact in place: map.(i) <= i, and ascending order only ever
     writes slots strictly below the current read index *)
  for i = 2 to n - 1 do
    let j = map.(i) in
    if j >= 0 then begin
      m.var_of.(j) <- m.var_of.(i);
      m.low_of.(j) <- map.(m.low_of.(i));
      m.high_of.(j) <- map.(m.high_of.(i));
      let neg = m.not_of.(i) in
      m.not_of.(j) <- (if neg >= 0 && map.(neg) >= 0 then map.(neg) else -1)
    end
  done;
  (* freed slots must read as "negation unknown" when reallocated *)
  Array.fill m.not_of live (Array.length m.not_of - live) (-1);
  m.next <- live;
  (* rebuild the unique table under 25% load, floored at the initial
     size so small post-sweep populations don't thrash; a table already
     of that size is cleared in place rather than reallocated *)
  let size = ref initial_table in
  while !size < 4 * live do size := 2 * !size done;
  if !size = Array.length m.uniq then Array.fill m.uniq 0 !size 0
  else m.uniq <- Array.make !size 0;
  let mask = !size - 1 in
  for i = 2 to live - 1 do
    uniq_insert_node m m.uniq mask i
  done;
  (* both caches hold stale ids: flush them *)
  Array.fill m.cache_key 0 (Array.length m.cache_key) 0;
  if m.rp_mask <> 0 then begin
    Array.fill m.rp_key_a 0 (Array.length m.rp_key_a) (-1);
    Array.fill m.rp_key_b 0 (Array.length m.rp_key_b) (-1);
    Array.fill m.rp_key_c 0 (Array.length m.rp_key_c) (-1)
  end;
  Array.iteri (fun k r -> roots.(k) <- map.(r)) roots;
  m.gc_collections <- m.gc_collections + 1;
  m.gc_swept <- m.gc_swept + (n - live);
  live

let eval m env a =
  let rec go n =
    if n = 0 then false
    else if n = 1 then true
    else if env m.var_of.(n) then go m.high_of.(n)
    else go m.low_of.(n)
  in
  go a

let id (a : t) : int = a

let view m a =
  if a = 0 then `Leaf false
  else if a = 1 then `Leaf true
  else `Node (m.var_of.(a), m.low_of.(a), m.high_of.(a))

let support m a =
  let seen = Hashtbl.create 16 in
  let vars = Hashtbl.create 16 in
  let rec go n =
    if n > 1 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      Hashtbl.replace vars m.var_of.(n) ();
      go m.low_of.(n);
      go m.high_of.(n)
    end
  in
  go a;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) vars [])

let any_sat m a =
  if a = 0 then None
  else
    let rec go n acc =
      if n = 1 then acc
      else if m.low_of.(n) <> 0 then go m.low_of.(n) ((m.var_of.(n), false) :: acc)
      else go m.high_of.(n) ((m.var_of.(n), true) :: acc)
    in
    Some (List.rev (go a []))

let node_count m = m.next

let size m a =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if n > 1 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go m.low_of.(n);
      go m.high_of.(n)
    end
  in
  go a;
  Hashtbl.length seen

let apply_stats m = (m.applies, m.apply_hits)
let relprod_stats m = (m.rp_applies, m.rp_hits)
let gc_stats m = (m.gc_collections, m.gc_swept)
