(* Source location of a declaration, 1-based; {0,0} = synthesized. *)
type loc = {
  l_line : int;
  l_col : int;
}

let no_loc = { l_line = 0; l_col = 0 }

let loc ~line ~col = { l_line = line; l_col = col }

type category =
  | System
  | Process
  | Thread
  | Thread_group
  | Subprogram
  | Data
  | Processor
  | Virtual_processor
  | Memory
  | Bus
  | Virtual_bus
  | Device

let category_to_string = function
  | System -> "system"
  | Process -> "process"
  | Thread -> "thread"
  | Thread_group -> "thread group"
  | Subprogram -> "subprogram"
  | Data -> "data"
  | Processor -> "processor"
  | Virtual_processor -> "virtual processor"
  | Memory -> "memory"
  | Bus -> "bus"
  | Virtual_bus -> "virtual bus"
  | Device -> "device"

let category_of_string = function
  | "system" -> Some System
  | "process" -> Some Process
  | "thread" -> Some Thread
  | "thread group" -> Some Thread_group
  | "subprogram" -> Some Subprogram
  | "data" -> Some Data
  | "processor" -> Some Processor
  | "virtual processor" -> Some Virtual_processor
  | "memory" -> Some Memory
  | "bus" -> Some Bus
  | "virtual bus" -> Some Virtual_bus
  | "device" -> Some Device
  | _ -> None

type direction = Din | Dout | Dinout

type port_kind = Data_port | Event_port | Event_data_port

type access_right = Read_only | Write_only | Read_write

type property_value =
  | Pint of int * string option
  | Preal of float * string option
  | Pstring of string
  | Pbool of bool
  | Pname of string
  | Preference of string
  | Pclassifier of string
  | Plist of property_value list
  | Prange of property_value * property_value

type property_assoc = {
  pname : string;
  pvalue : property_value;
  applies_to : string list;
  pa_loc : loc;
}

let assoc ?(loc = no_loc) pname pvalue applies_to =
  { pname; pvalue; applies_to; pa_loc = loc }

type feature =
  | Port of {
      fname : string;
      dir : direction;
      kind : port_kind;
      dtype : string option;
      fprops : property_assoc list;
      floc : loc;
    }
  | Data_access of {
      fname : string;
      dtype : string option;
      right : access_right;
      provided : bool;
      floc : loc;
    }
  | Subprogram_access of {
      fname : string;
      spec : string option;
      provided : bool;
      floc : loc;
    }

let feature_name = function
  | Port { fname; _ } | Data_access { fname; _ }
  | Subprogram_access { fname; _ } -> fname

let feature_loc = function
  | Port { floc; _ } | Data_access { floc; _ }
  | Subprogram_access { floc; _ } -> floc

type subcomponent = {
  sc_name : string;
  sc_category : category;
  sc_classifier : string option;
  sc_properties : property_assoc list;
  sc_loc : loc;
}

type connection_kind = Port_connection | Access_connection

type connection = {
  conn_name : string;
  conn_kind : connection_kind;
  conn_src : string;
  conn_dst : string;
  immediate : bool;
  conn_properties : property_assoc list;
  conn_loc : loc;
}

type mode = {
  m_name : string;
  m_initial : bool;
  m_loc : loc;
}

type mode_transition = {
  mt_name : string;
  mt_src : string;
  mt_trigger : string;
  mt_dst : string;
  mt_loc : loc;
}

type component_type = {
  ct_name : string;
  ct_category : category;
  ct_extends : string option;
  ct_features : feature list;
  ct_properties : property_assoc list;
  ct_modes : mode list;
  ct_transitions : mode_transition list;
  ct_loc : loc;
}

type component_impl = {
  ci_name : string;
  ci_type : string;
  ci_category : category;
  ci_extends : string option;
  ci_subcomponents : subcomponent list;
  ci_connections : connection list;
  ci_properties : property_assoc list;
  ci_loc : loc;
}

type declaration =
  | Dtype of component_type
  | Dimpl of component_impl

type package = {
  pkg_name : string;
  pkg_imports : string list;
  pkg_decls : declaration list;
  pkg_shape : string;
}

(* Erase every source location, e.g. to compare two parses of the same
   model structurally (printer round-trips). *)
let strip_locs pkg =
  let pa pa = { pa with pa_loc = no_loc } in
  let feature = function
    | Port p -> Port { p with fprops = List.map pa p.fprops; floc = no_loc }
    | Data_access d -> Data_access { d with floc = no_loc }
    | Subprogram_access s -> Subprogram_access { s with floc = no_loc }
  in
  let decl = function
    | Dtype ct ->
      Dtype
        { ct with
          ct_features = List.map feature ct.ct_features;
          ct_properties = List.map pa ct.ct_properties;
          ct_modes = List.map (fun m -> { m with m_loc = no_loc }) ct.ct_modes;
          ct_transitions =
            List.map (fun t -> { t with mt_loc = no_loc }) ct.ct_transitions;
          ct_loc = no_loc }
    | Dimpl ci ->
      Dimpl
        { ci with
          ci_subcomponents =
            List.map
              (fun sc ->
                { sc with
                  sc_properties = List.map pa sc.sc_properties;
                  sc_loc = no_loc })
              ci.ci_subcomponents;
          ci_connections =
            List.map
              (fun c ->
                { c with
                  conn_properties = List.map pa c.conn_properties;
                  conn_loc = no_loc })
              ci.ci_connections;
          ci_properties = List.map pa ci.ci_properties;
          ci_loc = no_loc }
  in
  { pkg with pkg_decls = List.map decl pkg.pkg_decls; pkg_shape = "" }

let impl_base_name name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let find_type pkg name =
  List.find_map
    (function
      | Dtype ct when String.equal ct.ct_name name -> Some ct
      | Dtype _ | Dimpl _ -> None)
    pkg.pkg_decls

let find_impl pkg name =
  List.find_map
    (function
      | Dimpl ci when String.equal ci.ci_name name -> Some ci
      | Dtype _ | Dimpl _ -> None)
    pkg.pkg_decls

let find_feature ct name =
  List.find_opt (fun f -> String.equal (feature_name f) name) ct.ct_features

let property_names pkg =
  let acc = ref [] in
  let add pa = acc := pa.pname :: !acc in
  List.iter
    (function
      | Dtype ct -> List.iter add ct.ct_properties
      | Dimpl ci ->
        List.iter add ci.ci_properties;
        List.iter (fun sc -> List.iter add sc.sc_properties) ci.ci_subcomponents;
        List.iter (fun c -> List.iter add c.conn_properties) ci.ci_connections)
    pkg.pkg_decls;
  List.sort_uniq String.compare !acc
