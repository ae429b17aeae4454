(** Reduced ordered binary decision diagrams over integer variables.

    The clock calculus encodes clocks as boolean functions over
    presence and condition variables; BDDs give canonical forms, so
    clock equality, inclusion and exclusion are O(1)/O(n·m) decisions.
    Nodes are hash-consed: structural equality is physical equality.

    A fresh manager is cheap (its tables start at a few thousand
    words and grow with its node count); all nodes belong to the manager that
    created them and must not be mixed across managers. *)

type manager
type t

val manager : unit -> manager

val zero : manager -> t
(** The constant false (the null clock). *)

val one : manager -> t
(** The constant true (the always-present context). *)

val var : manager -> int -> t
(** The projection on variable [i] (variables are ordered by [int]). *)

val not_ : manager -> t -> t
val and_ : manager -> t -> t -> t
val or_ : manager -> t -> t -> t
val xor_ : manager -> t -> t -> t
val diff : manager -> t -> t -> t
(** [diff m a b] is [a ∧ ¬b]. *)

val imp : manager -> t -> t -> t

val conj : manager -> t array -> t
(** The conjunction of the array, [one] when it is empty, built as a
    balanced tree of {!and_}: operands of similar size meet at each
    level. *)

val equal : t -> t -> bool
(** Physical equality (valid thanks to hash-consing). *)

val is_zero : t -> bool
val is_one : t -> bool

val disjoint : manager -> t -> t -> bool
(** [disjoint m a b] iff [a ∧ b] is unsatisfiable, decided without
    building the conjunction: the walk over cofactor pairs allocates no
    node and stops at the first satisfiable path. It only reads and
    writes the apply cache, where a proved [true] is stored as the
    [and_] result [0]. *)

val implies : manager -> t -> t -> bool
(** [implies m a b] iff [a ∧ ¬b] is unsatisfiable. Allocation-free like
    {!disjoint}; neither [¬b] nor the difference is built. *)

val exclusive : manager -> t -> t -> bool
(** [exclusive m a b] is [disjoint m a b]. *)

val cube : manager -> int list -> t
(** The conjunction of positive literals over the given variables; the
    shape expected by the [~cube] arguments below. *)

val exists : manager -> cube:t -> t -> t
(** [exists m ~cube a] existentially quantifies every variable of
    [cube] (a positive-literal cube) out of [a]. *)

val and_exists : manager -> cube:t -> t -> t -> t
(** [and_exists m ~cube a b] is [exists m ~cube (and_ m a b)] computed
    in one pass (the relational product), with a dedicated ternary
    apply cache — the image-computation hot path. *)

val rename : manager -> map:int array -> t -> t
(** [rename m ~map a] substitutes variable [v] by [map.(v)] (identity
    past the end of the array), for a [map] that keeps the order of
    the support of [a] (e.g. the next→current shift on interleaved
    variable rails): one [mk] per node. Partially applied to [~map],
    the returned function shares one memo across calls, so renaming
    many roots that share nodes walks each node once; that memo is
    invalid after a {!gc}.
    @raise Invalid_argument when [map] reorders the support of [a]. *)

val sat_count : manager -> vars:int array -> t -> float
(** Number of satisfying assignments over exactly the variables in
    [vars] (ascending; must contain the support of the argument). *)

val gc : manager -> roots:t array -> int
(** Compacting mark-and-sweep collection. Keeps exactly the nodes
    reachable from [roots], rewrites [roots] in place with the
    relocated handles, flushes the apply caches, and returns the live
    node count. Every handle not passed as a root is invalid after the
    call. Publishes nothing: see {!gc_stats}. *)

val relprod_stats : manager -> int * int
(** [(consultations, hits)] of the relational-product cache. *)

val gc_stats : manager -> int * int
(** [(collections, nodes swept)] since manager creation. *)

val eval : manager -> (int -> bool) -> t -> bool
(** Evaluate the function under a total assignment of its variables. *)

val id : t -> int
(** Stable integer identity of a node (valid until the next {!gc}),
    for memo tables keyed on nodes. *)

val view : manager -> t -> [ `Leaf of bool | `Node of int * t * t ]
(** Structure of a node: [`Node (var, low, high)]. Used by code
    generators to compile clock functions to decision code. *)

val support : manager -> t -> int list
(** Variables the function actually depends on, ascending. *)

val any_sat : manager -> t -> (int * bool) list option
(** A satisfying assignment (partial, over the support), or [None] for
    the zero function. *)

val node_count : manager -> int
(** Number of live hash-consed nodes, for benches. *)

val size : manager -> t -> int
(** Number of non-terminal nodes reachable from the argument: the size
    of one function, where {!node_count} is the whole manager's. *)

val apply_stats : manager -> int * int
(** [(consultations, hits)] of the binary apply cache since manager
    creation, for cache-hit-rate metrics. *)
