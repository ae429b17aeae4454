(** AADL instance model (the ASME side of ASME2SSME).

    Instantiates a root system/process implementation into a component
    instance tree, flattens connections to absolute feature paths, and
    fuses connection chains that cross component boundaries into
    {e semantic connections} between leaf features — the form the
    SIGNAL translation consumes. *)

type instance = {
  i_name : string;                     (** local name *)
  i_path : string;                     (** absolute dot-path from root *)
  i_category : Syntax.category;
  i_classifier : string;               (** resolved classifier name *)
  i_features : Syntax.feature list;
  i_props : Syntax.property_assoc list;
      (** merged: component type, then implementation, then
          subcomponent overrides (later wins) *)
  i_modes : Syntax.mode list;
  i_transitions : Syntax.mode_transition list;
  i_children : instance list;
  i_loc : Syntax.loc;
      (** subcomponent declaration site, or the component type's when
          the instance is a root ({!Syntax.no_loc} if unknown) *)
}

type conn_inst = {
  ci_kind : Syntax.connection_kind;
  ci_src : string;                     (** absolute feature path *)
  ci_dst : string;
  ci_immediate : bool;
}

type t = {
  root : instance;
  connections : conn_inst list;        (** declared, per level *)
  bindings : (string * string) list;
      (** (component path, processor path) from
          Actual_Processor_Binding *)
  shape : string;
      (** digest of the root name and the packages' [pkg_shape]s (the
          root's package, then the context in order): equal for two
          instances of the same model that differ at most in
          scheduler-owned properties ({!Props.scheduler_owned}) *)
}

val instantiate :
  ?context:Syntax.package list ->
  Syntax.package -> root:string -> (t, string) result
(** [root] names a component implementation (e.g.
    ["ProdCons_Sys.impl"]) or type in the package. [context] supplies
    additional packages; classifiers qualified as ["Pkg::name"] resolve
    against them, and subcomponents of a library component resolve
    within that library. *)

val instantiate_exn :
  ?context:Syntax.package list -> Syntax.package -> root:string -> t

val instantiate_diag :
  ?file:string -> ?context:Syntax.package list ->
  Syntax.package -> root:string -> (t, Putil.Diag.t list) result
(** Like {!instantiate}, but failures are structured diagnostics with
    a stable [AADL-INST-00x] code and, when the defect traces to a
    declaration, a source span. [file] names the source in spans. *)

val find : t -> string -> instance option
(** Lookup by absolute path; the root's path is its name. *)

val all_instances : t -> instance list
(** Pre-order walk of the tree. *)

val instances_of_category : t -> Syntax.category -> instance list

val threads : t -> instance list

val feature_of_path :
  t -> string -> (instance * Syntax.feature) option
(** Resolve an absolute feature path ["root.th.pOut"] to its component
    instance and feature declaration. *)

val semantic_connections : t -> conn_inst list
(** Connection chains fused end-to-end: each result connects two
    features that have no further continuation (typically thread or
    device ports, or data components). A chain is delayed if any hop
    is delayed. *)

val pp_tree : Format.formatter -> t -> unit
(** Indented instance-tree rendering (the paper's Fig. 1 view). *)
