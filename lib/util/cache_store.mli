(** Persistent content-addressed cache store.

    On-disk memoization shared across process invocations: entries are
    keyed by a [(stage, key)] pair where [key] is a content digest of
    the inputs that produced the payload, so a warm store lets a fresh
    process replay pipeline stages it has never run.

    Format and safety:
    - every entry file starts with a magic string and a format/version
      stamp (including [Sys.ocaml_version], since payloads are
      [Marshal]ed and the marshalling format is compiler-specific);
    - the payload is guarded by an MD5 integrity hash and a length
      field — truncation, bit flips or a stamp mismatch are treated as
      a cache miss (the damaged file is deleted), never a crash;
    - writes go to a temporary file in the store directory and are
      published with an atomic [Sys.rename], so concurrent readers
      never observe a partial entry;
    - the store is size-bounded: when the total payload size exceeds
      [max_bytes], least-recently-used entries (by access time) are
      evicted.

    Payloads must be pure data (no closures, no custom blocks with
    identity); they are marshalled with their sharing, so a subterm
    referenced many times is stored once and read back shared. [put]
    rejects
    functional values with [Invalid_argument]. Type safety across the
    untyped [Marshal] boundary is the caller's responsibility: a given
    [stage] tag must always store values of one type. The version
    stamp protects against reading payloads written by a different
    binary format, not against same-version type confusion.

    All operations are protected by a per-handle mutex and are safe to
    call from multiple domains sharing one handle. Two separate
    processes sharing a directory are safe against torn reads (atomic
    rename + integrity hash); their evictions race benignly (a lost
    entry is a miss). *)

type t

type stats = {
  entries : int;  (** live entries in the store *)
  bytes : int;  (** total payload bytes on disk *)
  hits : int;  (** [get] calls that returned a value (this handle) *)
  misses : int;  (** [get] calls that found nothing (this handle) *)
  writes : int;  (** successful [put]s (this handle) *)
  corrupt : int;
      (** entries discarded on read: bad magic, stamp mismatch,
          truncation or integrity-hash failure (this handle) *)
  evictions : int;  (** entries evicted by the LRU bound (this handle) *)
}

val default_max_bytes : int
(** 64 MiB. *)

val open_store : ?max_bytes:int -> string -> (t, string) result
(** [open_store dir] opens (creating if needed) a store rooted at
    [dir] and scans it to build the in-memory index. Returns [Error]
    if the directory cannot be created or read. *)

val dir : t -> string

val get : t -> stage:string -> key:string -> 'a option
(** Look up the entry for [(stage, key)]. Any defect in the stored
    file — wrong magic, version stamp from another compiler or store
    revision, truncated payload, integrity-hash mismatch — counts as a
    miss and deletes the file. *)

val put : t -> stage:string -> key:string -> 'a -> unit
(** Store [v] under [(stage, key)], replacing any previous entry, then
    enforce the size bound by evicting least-recently-used entries.
    @raise Invalid_argument if [v] contains a functional value. *)

val mem : t -> stage:string -> key:string -> bool
(** Index-only check; does not read, verify or touch the entry. *)

val stats : t -> stats

val clear : t -> int
(** Delete every entry; returns the number of entries removed. *)
