(** Directed graphs over string-named vertices, with Tarjan SCC and
    topological sorting. Used for instantaneous-dependency (causality)
    analysis and by the simulators' evaluation ordering.

    Order contract: every list a query returns enumerates vertices in
    [String.compare] order of their names — {!vertices}, each
    {!successors} list and {!reachable} directly; {!sccs},
    {!nontrivial_sccs} and {!topological_sort} through Tarjan's
    algorithm, which visits roots and successors in that order. The
    names therefore fix the compiled plan's order, the generated C and
    the member order of reported deadlock cycles, independently of
    insertion order and of [Hashtbl] seeds.

    Internally vertices are interned to ints; the first query freezes
    the graph into sorted int arrays (one name sort, then int sorts),
    later queries reuse that form, and a mutation drops it. *)

type t

val create : unit -> t

val add_vertex : t -> string -> unit
(** Idempotent. *)

val add_edge : t -> string -> string -> unit
(** [add_edge g a b] adds the edge a → b (and both vertices). Parallel
    edges collapse. *)

val vertices : t -> string list
val successors : t -> string -> string list
val edge_count : t -> int

val sccs : t -> string list list
(** Strongly connected components (Tarjan), in reverse topological
    order of the condensation. *)

val nontrivial_sccs : t -> string list list
(** Components with more than one vertex, or a self-loop. *)

val topological_sort : t -> (string list, string list) result
(** [Ok order] such that for every edge a → b, a precedes b; or
    [Error cycle] exposing one non-trivial SCC. *)

val reachable : t -> string -> string list
(** Vertices reachable from the given one (excluded unless on a cycle
    through it). *)

(** The same graphs over the int vertices [0 .. n-1], for callers whose
    vertices are already dense ids: no names are built or compared.
    The caller gives the vertex order, and {!topological_sort} returns
    exactly what the string graph returns for vertices named so that
    [String.compare] sorts the names in that order. *)
module Indexed : sig
  type t

  val create : order:int array -> t
  (** [create ~order] has the vertices [0 .. Array.length order - 1],
      [order] listing each once. Raises [Invalid_argument] otherwise. *)

  val add_edge : t -> int -> int -> unit
  (** Parallel edges collapse. Raises [Invalid_argument] on a vertex
      out of range. *)

  val topological_sort : t -> (int list, int list) result
end
