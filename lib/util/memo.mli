(** Keyed memoization: one lookup for every cached computation.

    A memo is a table of named entries, each recording the content
    [key] it was computed under. A lookup of [(name, key)] checks the
    table first, then the optional persistent {!Cache_store}, and runs
    the computation last; a table entry under a different key for the
    same name is a miss and is replaced. Only successes are recorded:
    an [Error] (or an exception) leaves the table and the store
    untouched.

    Three shapes use the one table type:
    - a whole pipeline stage: one entry (its name is constant), or a
      window of the last few (the key is the name, under a small
      [cap]);
    - per-process units of a stage: one entry per process name;
    - a process-global cache: the key itself is the name, and the
      table is bounded by [cap] (see {!create}).

    Counters are derived from the stage name and the level, and looked
    up in {!Metrics.global} at each increment (so they exist once
    counted, and attribute to the calling domain's observation
    scope).

    Every operation holds the memo's mutex, across the computation
    too, so a key is computed once even when several domains ask for
    it together. A computation must not look up the memo that runs
    it. *)

type 'v level =
  | Stage of ('v -> int) option
      (** a whole pipeline stage: [incr.<stage>.skipped] on a table or
          store hit, [incr.<stage>.ran] on a compute. With [Some units],
          a store replay also credits [units v] to
          [incr.<stage>.proc_skipped]: it covers every per-process unit
          the value was built from. *)
  | Unit
      (** one per-process unit of a stage: [incr.<stage>.proc_skipped]
          on a hit, [incr.<stage>.proc_ran] on a compute *)
  | Cache
      (** a process-global cache: [<stage>.cache_hits] on a hit,
          [<stage>.cache_misses] on a compute *)

type 'v t

val create :
  stage:string ->
  'v level ->
  cap:int ->
  store:(Cache_store.t * string) option ->
  'v t
(** [create ~stage level ~cap ~store] is an empty memo. When recording
    an entry finds [cap] entries already present, the table is cleared
    first. [store] is a persistent store with the stage tag its
    entries are filed under; values written there must be pure data
    that means the same in another process (see {!Cache_store}). *)

val find :
  'v t -> name:string -> key:string -> (unit -> ('v, 'e) result) ->
  ('v, 'e) result
(** [find t ~name ~key compute] is the value recorded for [name] under
    [key], else the store's value for [key], else [compute ()]. A
    value found in the store or computed [Ok] is recorded under
    [(name, key)]; a computed value is also written to the store. *)

val get : 'v t -> name:string -> key:string -> (unit -> 'v) -> 'v
(** [find] for a computation that always succeeds (or raises). *)

val peek : 'v t -> name:string -> key:string -> 'v option
(** The value [find] would return without computing: the table's, else
    the store's. It counts nothing and records nothing, so a caller
    that already credited the unit (a whole-stage store replay) can
    read it back without counting it twice. *)

val clear : 'v t -> unit
(** Drop every entry. Values already returned stay valid. *)
