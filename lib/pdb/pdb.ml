(** The program database (PDB) data model.

    A PDB is the compact, portable ASCII artifact the IL Analyzer produces
    (paper §3.2, Table 1, Figure 3).  It is self-contained: all references
    between items use item ids ([so#]/[ro#]/[cl#]/[ty#]/[te#]/[na#]/[ma#]).
    This module defines the in-memory representation; {!Pdb_write} and
    {!Pdb_parse} serialize it.  DUCTAPE ([pdt_ductape]) layers the navigable
    object API on top. *)

type loc = { lfile : int; lline : int; lcol : int }
(** A source position; [lfile] is a [so#] id, 0 meaning NULL. *)

let null_loc = { lfile = 0; lline = 0; lcol = 0 }

type extent = { hstart : loc; hstop : loc; bstart : loc; bstop : loc }
(** Header and body ranges, as in the [rpos]/[cpos]/[tpos] attributes. *)

let null_extent = { hstart = null_loc; hstop = null_loc; bstart = null_loc; bstop = null_loc }

(** Reference to a type: either a [ty#] item or directly a [cl#] item
    (Figure 3 shows [cmtype cl#63]). *)
type typeref = Tyref of int | Clref of int

(** Parent item of a nested entity. *)
type parentref = Pcl of int | Pna of int | Pnone

type source_file = {
  so_id : int;
  so_name : string;
  mutable so_includes : int list;
}

type ty_info =
  | Ybuiltin of { yikind : string }
  | Yptr of typeref
  | Yref of typeref
  | Ytref of { target : typeref; yconst : bool; yvolatile : bool }
  | Yarray of { elem : typeref; size : int option }
  | Yfunc of {
      rett : typeref;
      args : (typeref * bool) list;  (** type, has-default *)
      ellipsis : bool;
      cqual : bool;
      exceptions : typeref list option;
    }
  | Yenum of { constants : (string * int64) list }
  | Ytparam
  | Yerror

let ykind_string = function
  | Ybuiltin _ -> "builtin"
  | Yptr _ -> "ptr"
  | Yref _ -> "ref"
  | Ytref _ -> "tref"
  | Yarray _ -> "array"
  | Yfunc _ -> "func"
  | Yenum _ -> "enum"
  | Ytparam -> "tparam"
  | Yerror -> "error"

type type_item = {
  ty_id : int;
  ty_name : string;
  mutable ty_loc : loc;
  mutable ty_parent : parentref;
  mutable ty_acs : string;
  mutable ty_info : ty_info;
  mutable ty_names : string list;  (** typedef aliases *)
}

type member = {
  m_name : string;
  m_loc : loc;
  m_acs : string;
  m_kind : string;    (** "var" *)
  m_type : typeref;
  m_static : bool;
  m_mutable : bool;
}

type class_item = {
  cl_id : int;
  cl_name : string;
  mutable cl_loc : loc;
  mutable cl_kind : string;  (** class | struct | union *)
  mutable cl_parent : parentref;
  mutable cl_acs : string;
  mutable cl_templ : int option;   (** te# it instantiates *)
  mutable cl_stempl : int option;  (** primary template of a specialization
                                       ("fixed"-mode remedy) *)
  mutable cl_bases : (string * bool * int) list;  (** access, virtual, cl# *)
  mutable cl_friends : [ `Cl of int | `Ro of int ] list;
  mutable cl_funcs : (int * loc) list;            (** ro#, position *)
  mutable cl_members : member list;
  mutable cl_pos : extent;
}

type call = { c_callee : int; c_virt : bool; c_loc : loc }

type spawn = { sp_callee : int; sp_loc : loc; sp_join : loc option }
(** A [spawn f(...)] site inside a routine body: the spawned routine, the
    spawn position, and — when a [join] statement post-dominates it at the
    same nesting depth — the join position.  [sp_join = None] means the
    thread is still live when the routine returns ("escaping" spawn). *)

type du_use = { u_loc : loc; u_reach : int list; u_uninit : bool }
(** One use of a variable: its position, the indices (into the owning
    {!du_var}'s [v_defs]) of the definitions that reach it, and whether an
    uninitialized path reaches it too. *)

type du_var = { v_name : string; v_defs : loc list; v_uses : du_use list }
(** Intra-routine define-use chains for one local variable (or parameter):
    every definition site in source order, every use with its reaching-def
    index set. *)

(* The [rduuse] reach spec: definition indices ascending, then a trailing
   "u" when an uninitialized path also reaches the use; "-" when empty.
   Shared by both ASCII parsers so their semantics cannot drift. *)
let du_spec_of_use (u : du_use) : string =
  let parts =
    List.map string_of_int u.u_reach @ if u.u_uninit then [ "u" ] else []
  in
  match parts with [] -> "-" | _ -> String.concat "," parts

let du_use_of_spec (s : string) : (int list * bool) option =
  if s = "-" then Some ([], false)
  else
    let parts = String.split_on_char ',' s in
    let rec go acc uninit = function
      | [] -> Some (List.rev acc, uninit)
      | "u" :: rest -> go acc true rest
      | p :: rest -> (
          match int_of_string_opt p with
          | Some n when n >= 0 -> go (n :: acc) uninit rest
          | _ -> None)
    in
    go [] false parts

type routine_item = {
  ro_id : int;
  ro_name : string;
  mutable ro_loc : loc;
  mutable ro_parent : parentref;
  mutable ro_acs : string;
  mutable ro_sig : typeref;
  mutable ro_link : string;
  mutable ro_store : string;
  mutable ro_virt : string;   (** no | virt | pure *)
  mutable ro_kind : string;   (** NA | ctor | dtor | conv | op *)
  mutable ro_static : bool;
  mutable ro_inline : bool;
  mutable ro_templ : int option;
  mutable ro_calls : call list;
  mutable ro_spawns : spawn list;
  mutable ro_du : du_var list;
  mutable ro_pos : extent;
  mutable ro_defined : bool;
}

type template_item = {
  te_id : int;
  te_name : string;
  mutable te_loc : loc;
  mutable te_parent : parentref;
  mutable te_acs : string;
  mutable te_kind : string;  (** class | func | memfunc | statmem | memclass *)
  mutable te_text : string;
  mutable te_pos : extent;
}

type itemref =
  | Rso of int | Rro of int | Rcl of int | Rty of int
  | Rte of int | Rna of int | Rma of int

type namespace_item = {
  na_id : int;
  na_name : string;
  mutable na_loc : loc;
  mutable na_parent : parentref;
  mutable na_members : itemref list;
  mutable na_alias : string option;
}

type macro_item = {
  ma_id : int;
  ma_name : string;
  mutable ma_kind : string;
  mutable ma_text : string;
  mutable ma_loc : loc;
}

type t = {
  mutable version : string;
  mutable incomplete : bool;
      (** degraded compilation: the producing front end recovered from
          errors, so declarations in damaged regions may be missing *)
  mutable diag_count : int;
      (** number of error/fatal diagnostics behind [incomplete] *)
  mutable files : source_file list;
  mutable types : type_item list;
  mutable classes : class_item list;
  mutable routines : routine_item list;
  mutable templates : template_item list;
  mutable namespaces : namespace_item list;
  mutable pdb_macros : macro_item list;
}

(* Version history: "1.0" = structure dump (entities, call edges,
   templates); "1.1" adds the semantic attributes rspawn / rdu / rdudef /
   rduuse.  Readers accept both; tools warn (and render nothing) when a
   "1.0" PDB is asked for semantic data. *)
let current_version = "1.1"

(** True when [t] predates the semantic attributes (define-use chains and
    spawn sites) — i.e. was produced by a "1.0" writer. *)
let lacks_semantics t = t.version = "1.0"

let create () =
  { version = current_version; incomplete = false; diag_count = 0;
    files = []; types = []; classes = []; routines = [];
    templates = []; namespaces = []; pdb_macros = [] }

(** Parse the content of a [<PDB ...>] header line (the text between
    "<PDB " and ">"): a version word, optionally followed by
    ["incomplete <diag-count>"].  Shared by both PDB parsers. *)
let set_header t content =
  match String.split_on_char ' ' content with
  | version :: "incomplete" :: rest ->
      t.version <- version;
      t.incomplete <- true;
      (match rest with
       | [n] -> (match int_of_string_opt n with
                 | Some k -> t.diag_count <- k
                 | None -> ())
       | _ -> ())
  | version :: _ -> t.version <- version
  | [] -> ()

(* lookup helpers (PDBs are small enough that lists are fine; DUCTAPE builds
   hash indexes for the heavy tools) *)

let find_file t id = List.find_opt (fun f -> f.so_id = id) t.files
let find_type t id = List.find_opt (fun x -> x.ty_id = id) t.types
let find_class t id = List.find_opt (fun x -> x.cl_id = id) t.classes
let find_routine t id = List.find_opt (fun x -> x.ro_id = id) t.routines
let find_template t id = List.find_opt (fun x -> x.te_id = id) t.templates
let find_namespace t id = List.find_opt (fun x -> x.na_id = id) t.namespaces

(** Total number of items, of any kind. *)
let item_count t =
  List.length t.files + List.length t.types + List.length t.classes
  + List.length t.routines + List.length t.templates + List.length t.namespaces
  + List.length t.pdb_macros

(** Resolve a type reference to a display name. *)
let rec typeref_name t = function
  | Clref id -> (
      match find_class t id with Some c -> c.cl_name | None -> "<class?>")
  | Tyref id -> (
      match find_type t id with
      | Some ty -> if ty.ty_name <> "" then ty.ty_name else derived_name t ty
      | None -> "<type?>")

and derived_name t (ty : type_item) =
  match ty.ty_info with
  | Ybuiltin _ -> ty.ty_name
  | Yptr r -> typeref_name t r ^ " *"
  | Yref r -> typeref_name t r ^ " &"
  | Ytref { target; yconst; yvolatile } ->
      (if yconst then "const " else "")
      ^ (if yvolatile then "volatile " else "")
      ^ typeref_name t target
  | Yarray { elem; size } -> (
      match size with
      | Some n -> Printf.sprintf "%s [%d]" (typeref_name t elem) n
      | None -> typeref_name t elem ^ " []")
  | Yfunc { rett; args; ellipsis; cqual; _ } ->
      Printf.sprintf "%s (%s%s)%s" (typeref_name t rett)
        (String.concat ", " (List.map (fun (r, _) -> typeref_name t r) args))
        (if ellipsis then (if args = [] then "..." else ", ...") else "")
        (if cqual then " const" else "")
  | Yenum _ | Ytparam | Yerror -> ty.ty_name

(** Fully qualified name of a routine or class through its parent chain. *)
let rec parent_prefix t = function
  | Pnone -> ""
  | Pcl id -> (
      match find_class t id with
      | Some c -> parent_prefix t c.cl_parent ^ c.cl_name ^ "::"
      | None -> "")
  | Pna id -> (
      match find_namespace t id with
      | Some n -> parent_prefix t n.na_parent ^ n.na_name ^ "::"
      | None -> "")

let routine_full_name t (r : routine_item) = parent_prefix t r.ro_parent ^ r.ro_name
let class_full_name t (c : class_item) = parent_prefix t c.cl_parent ^ c.cl_name
