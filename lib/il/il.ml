(** The intermediate language (IL).

    The front end elaborates parsed translation units into this typed entity
    graph, playing the role of the EDG IL in the paper: it records every
    high-level entity — source files, namespaces, classes, routines, types,
    templates, macros — together with source positions, template/instantiation
    relations and static call edges.  The IL Analyzer ([pdt_analyzer]) walks
    this structure to produce the PDB.

    Entities are identified by small integers, one id space per entity group
    (mirroring the PDB's [so#]/[ro#]/[cl#]/[ty#]/[te#]/[na#]/[ma#] scheme).
    Records are mutable because semantic analysis fills them in incrementally
    (declaration first, definition and call edges later). *)

open Pdt_util

type file_id = int
type namespace_id = int
type class_id = int
type routine_id = int
type type_id = int
type template_id = int
type macro_id = int

type access = Pub | Prot | Priv | Acc_na

let access_to_string = function
  | Pub -> "pub"
  | Prot -> "prot"
  | Priv -> "priv"
  | Acc_na -> "NA"

(** Parent ("the item it is nested in"): class, namespace or none. *)
type parent = Pclass of class_id | Pnamespace of namespace_id | Pnone

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

type file_entity = {
  fi_id : file_id;
  fi_name : string;
  mutable fi_includes : file_id list;  (** in inclusion order *)
}

type namespace_entity = {
  na_id : namespace_id;
  na_name : string;                    (** unqualified *)
  mutable na_loc : Srcloc.t;
  mutable na_parent : parent;
  mutable na_members : item_ref list;  (** in declaration order, reversed *)
  mutable na_alias : string option;    (** Some target for namespace aliases *)
}

and item_ref =
  | Rclass of class_id
  | Rroutine of routine_id
  | Rnamespace of namespace_id
  | Rtype of type_id
  | Rtemplate of template_id

type class_kind = Ckind_class | Ckind_struct | Ckind_union

let class_kind_to_string = function
  | Ckind_class -> "class"
  | Ckind_struct -> "struct"
  | Ckind_union -> "union"

type base_spec = {
  ba_access : access;
  ba_virtual : bool;
  ba_class : class_id;
}

type data_member = {
  dm_name : string;
  dm_loc : Srcloc.t;
  dm_access : access;
  dm_type : type_id;
  dm_static : bool;
  dm_mutable : bool;
}

type friend_ref = Friend_class of class_id | Friend_routine of routine_id

type class_entity = {
  cl_id : class_id;
  mutable cl_name : string;            (** display name, e.g. ["Stack<int>"] *)
  mutable cl_kind : class_kind;
  mutable cl_loc : Srcloc.t;
  mutable cl_parent : parent;
  mutable cl_access : access;          (** access in enclosing class, if nested *)
  mutable cl_template : template_id option;   (** template it instantiates *)
  mutable cl_spec_of : template_id option;    (** primary template, for specializations
                                                  (only filled in "fixed" mapping mode) *)
  mutable cl_bases : base_spec list;
  mutable cl_derived : class_id list;
  mutable cl_friends : friend_ref list;
  mutable cl_funcs : routine_id list;  (** member functions, declaration order *)
  mutable cl_members : data_member list;  (** data members, declaration order *)
  mutable cl_extent : Srcloc.extent;
  mutable cl_complete : bool;
}

type virt = Virt_no | Virt_virtual | Virt_pure

let virt_to_string = function
  | Virt_no -> "no"
  | Virt_virtual -> "virt"
  | Virt_pure -> "pure"

type routine_kind = Rk_normal | Rk_ctor | Rk_dtor | Rk_conversion | Rk_operator

type call_site = {
  cs_callee : routine_id;
  cs_virtual : bool;
  cs_loc : Srcloc.t;
}

type spawn_site = {
  ss_callee : routine_id;
  ss_loc : Srcloc.t;
  ss_join : Srcloc.t option;
      (** the [join] statement that post-dominates this spawn at the same
          nesting depth, when there is one; [None] = thread outlives the
          spawning routine *)
}

type param_info = {
  pi_name : string option;
  pi_type : type_id;
  pi_has_default : bool;
  pi_default : Pdt_ast.Ast.expr option;  (** default-argument expression *)
  pi_loc : Srcloc.t;
}

type routine_entity = {
  ro_id : routine_id;
  mutable ro_name : string;
  mutable ro_loc : Srcloc.t;
  mutable ro_parent : parent;
  mutable ro_access : access;
  mutable ro_sig : type_id;
  mutable ro_link : string;
  mutable ro_store : string;           (** "NA", "static", "extern" *)
  mutable ro_virt : virt;
  mutable ro_static : bool;
  mutable ro_inline : bool;
  mutable ro_const : bool;
  mutable ro_kind : routine_kind;
  mutable ro_template : template_id option;
  mutable ro_calls : call_site list;   (** reversed; see {!calls} *)
  mutable ro_spawns : spawn_site list; (** reversed; see {!spawns} *)
  mutable ro_extent : Srcloc.extent;
  mutable ro_params : param_info list;
  mutable ro_body : Pdt_ast.Ast.stmt option;
      (** the elaborated (template-substituted) body, for dynamic analysis *)
  mutable ro_inits : (string * Pdt_ast.Ast.expr list) list;
  mutable ro_defined : bool;
}

type ty_kind =
  | Tbuiltin of { bname : string; ykind : string; yikind : string }
  | Tptr of type_id
  | Tref of type_id
  | Tqual of { base : type_id; q_const : bool; q_volatile : bool }
      (** a cv-qualified alias of another type — PDB kind [tref] *)
  | Tarray of type_id * int option
  | Tfunc of {
      rett : type_id;
      params : (type_id * bool) list;  (** type, has-default *)
      ellipsis : bool;
      cqual : bool;                    (** const member function *)
      exceptions : type_id list option; (** None = may throw anything *)
    }
  | Tclass of class_id
  | Tenum of {
      ename : string;
      eparent : parent;
      constants : (string * int64 * Srcloc.t) list;
    }
  | Ttparam of string  (** dependent type inside an uninstantiated template *)
  | Terror

type type_entity = {
  ty_id : type_id;
  ty_kind : ty_kind;
  mutable ty_loc : Srcloc.t;
  mutable ty_parent : parent;
  mutable ty_access : access;
  mutable ty_typedef_names : string list;  (** names bound by typedefs *)
}

type template_kind = Tk_class | Tk_func | Tk_memfunc | Tk_statmem | Tk_memclass

let template_kind_to_string = function
  | Tk_class -> "class"
  | Tk_func -> "func"
  | Tk_memfunc -> "memfunc"
  | Tk_statmem -> "statmem"
  | Tk_memclass -> "memclass"

type inst_ref = Inst_class of class_id | Inst_routine of routine_id

type template_entity = {
  te_id : template_id;
  mutable te_name : string;
  mutable te_loc : Srcloc.t;
  mutable te_parent : parent;
  mutable te_access : access;
  mutable te_kind : template_kind;
  mutable te_text : string;
  mutable te_extent : Srcloc.extent;
  (* semantic side (not emitted to the PDB directly) *)
  mutable te_params : Pdt_ast.Ast.tparam list;
  mutable te_pattern : Pdt_ast.Ast.decl option;
  mutable te_instances : (string * inst_ref) list;  (** arg-key -> instance *)
  mutable te_specializations :
    (Pdt_ast.Ast.tparam list * Pdt_ast.Ast.template_arg list * Pdt_ast.Ast.decl) list;
}

type macro_entity = {
  ma_id : macro_id;
  ma_name : string;
  ma_kind : string;  (** "def" *)
  ma_text : string;
  ma_loc : Srcloc.t;
}

(** A namespace-scope variable.  Not a PDB item type (Table 1 lists none),
    but needed by the dynamic-analysis substrate (the interpreter). *)
type global_var = {
  gv_name : string;
  gv_qualified : string;
  gv_type : type_id;
  gv_init : Pdt_ast.Ast.var_init;
  gv_loc : Srcloc.t;
  gv_parent : parent;
}

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

type program = {
  files : (file_id, file_entity) Hashtbl.t;
  namespaces : (namespace_id, namespace_entity) Hashtbl.t;
  classes : (class_id, class_entity) Hashtbl.t;
  routines : (routine_id, routine_entity) Hashtbl.t;
  types : (type_id, type_entity) Hashtbl.t;
  templates : (template_id, template_entity) Hashtbl.t;
  macros : (macro_id, macro_entity) Hashtbl.t;
  mutable globals : global_var list;  (* reversed *)
  type_intern : (string, type_id) Hashtbl.t;
  mutable next_file : int;
  mutable next_namespace : int;
  mutable next_class : int;
  mutable next_routine : int;
  mutable next_type : int;
  mutable next_template : int;
  mutable next_macro : int;
  (* creation order, reversed *)
  mutable file_order : file_id list;
  mutable namespace_order : namespace_id list;
  mutable class_order : class_id list;
  mutable routine_order : routine_id list;
  mutable type_order : type_id list;
  mutable template_order : template_id list;
  mutable macro_order : macro_id list;
  mutable main_file : file_id option;
  (* What sema resolved in routine bodies, for the interpreter (see
     {!note}): the type a local or catch parameter declares, a cast
     converts to, and a [T(...)] or [new] builds, by its AST type; the
     type a store writes, by the lvalue it stores to. *)
  ast_types : (Srcloc.t, (Pdt_ast.Ast.type_expr * type_id) list) Hashtbl.t;
  store_types : (Srcloc.t, (Pdt_ast.Ast.expr * type_id) list) Hashtbl.t;
}

let create_program () =
  { files = Hashtbl.create 16; namespaces = Hashtbl.create 16;
    classes = Hashtbl.create 64; routines = Hashtbl.create 256;
    types = Hashtbl.create 256; templates = Hashtbl.create 64;
    macros = Hashtbl.create 64; globals = [];
    type_intern = Hashtbl.create 256;
    next_file = 1; next_namespace = 1; next_class = 1; next_routine = 1;
    next_type = 1; next_template = 1; next_macro = 1;
    file_order = []; namespace_order = []; class_order = []; routine_order = [];
    type_order = []; template_order = []; macro_order = []; main_file = None;
    ast_types = Hashtbl.create 256; store_types = Hashtbl.create 256 }

(** [note tbl loc node ty]: sema resolved [node], found at [loc], to [ty].
    [noted] finds it by the node itself, so each template instance's
    substituted copy of a body keeps its own types. *)
let note tbl loc node ty =
  Hashtbl.replace tbl loc ((node, ty) :: Option.value (Hashtbl.find_opt tbl loc) ~default:[])

let noted tbl loc node = Option.bind (Hashtbl.find_opt tbl loc) (List.assq_opt node)

(* accessors *)

let file p id = Hashtbl.find p.files id
let namespace p id = Hashtbl.find p.namespaces id
let class_ p id = Hashtbl.find p.classes id
let routine p id = Hashtbl.find p.routines id
let type_ p id = Hashtbl.find p.types id
let template p id = Hashtbl.find p.templates id
let macro p id = Hashtbl.find p.macros id

let files p = List.rev_map (file p) p.file_order
let namespaces p = List.rev_map (namespace p) p.namespace_order
let classes p = List.rev_map (class_ p) p.class_order
let routines p = List.rev_map (routine p) p.routine_order
let types p = List.rev_map (type_ p) p.type_order
let templates p = List.rev_map (template p) p.template_order
let macros p = List.rev_map (macro p) p.macro_order
let globals p = List.rev p.globals

(** Call sites of a routine, in source order. *)
let calls (r : routine_entity) = List.rev r.ro_calls

(** Spawn sites of a routine, in source order. *)
let spawns (r : routine_entity) = List.rev r.ro_spawns

(* constructors *)

let add_file p name =
  let id = p.next_file in
  p.next_file <- id + 1;
  let f = { fi_id = id; fi_name = name; fi_includes = [] } in
  Hashtbl.replace p.files id f;
  p.file_order <- id :: p.file_order;
  f

let add_namespace p ~name ~loc ~parent =
  let id = p.next_namespace in
  p.next_namespace <- id + 1;
  let n =
    { na_id = id; na_name = name; na_loc = loc; na_parent = parent;
      na_members = []; na_alias = None }
  in
  Hashtbl.replace p.namespaces id n;
  p.namespace_order <- id :: p.namespace_order;
  n

let add_class p ~name ~kind ~loc ~parent ~access =
  let id = p.next_class in
  p.next_class <- id + 1;
  let c =
    { cl_id = id; cl_name = name; cl_kind = kind; cl_loc = loc;
      cl_parent = parent; cl_access = access; cl_template = None;
      cl_spec_of = None; cl_bases = []; cl_derived = []; cl_friends = [];
      cl_funcs = []; cl_members = []; cl_extent = Srcloc.no_extent;
      cl_complete = false }
  in
  Hashtbl.replace p.classes id c;
  p.class_order <- id :: p.class_order;
  c

let add_routine p ~name ~loc ~parent ~access ~sig_ =
  let id = p.next_routine in
  p.next_routine <- id + 1;
  let r =
    { ro_id = id; ro_name = name; ro_loc = loc; ro_parent = parent;
      ro_access = access; ro_sig = sig_; ro_link = "C++"; ro_store = "NA";
      ro_virt = Virt_no; ro_static = false; ro_inline = false;
      ro_const = false; ro_kind = Rk_normal; ro_template = None;
      ro_calls = []; ro_spawns = []; ro_extent = Srcloc.no_extent; ro_params = [];
      ro_body = None; ro_inits = []; ro_defined = false }
  in
  Hashtbl.replace p.routines id r;
  p.routine_order <- id :: p.routine_order;
  r

let add_template p ~name ~loc ~parent ~access ~kind =
  let id = p.next_template in
  p.next_template <- id + 1;
  let te =
    { te_id = id; te_name = name; te_loc = loc; te_parent = parent;
      te_access = access; te_kind = kind; te_text = "";
      te_extent = Srcloc.no_extent; te_params = []; te_pattern = None;
      te_instances = []; te_specializations = [] }
  in
  Hashtbl.replace p.templates id te;
  p.template_order <- id :: p.template_order;
  te

let add_macro p ~name ~kind ~text ~loc =
  let id = p.next_macro in
  p.next_macro <- id + 1;
  let m = { ma_id = id; ma_name = name; ma_kind = kind; ma_text = text; ma_loc = loc } in
  Hashtbl.replace p.macros id m;
  p.macro_order <- id :: p.macro_order;
  m

(* ------------------------------------------------------------------ *)
(* Type interning and naming                                           *)
(* ------------------------------------------------------------------ *)

(* A canonical structural key for interning. *)
let rec type_key p (k : ty_kind) : string =
  match k with
  | Tbuiltin { bname; _ } -> "b:" ^ bname
  | Tptr t -> "p:" ^ string_of_int t
  | Tref t -> "r:" ^ string_of_int t
  | Tqual { base; q_const; q_volatile } ->
      Printf.sprintf "q:%d:%b:%b" base q_const q_volatile
  | Tarray (t, n) ->
      Printf.sprintf "a:%d:%s" t
        (match n with None -> "?" | Some n -> string_of_int n)
  | Tfunc { rett; params; ellipsis; cqual; exceptions } ->
      Printf.sprintf "f:%d:(%s):%b:%b:%s" rett
        (String.concat ","
           (List.map (fun (t, d) -> Printf.sprintf "%d%s" t (if d then "=" else "")) params))
        ellipsis cqual
        (match exceptions with
         | None -> "*"
         | Some ts -> String.concat "," (List.map string_of_int ts))
  | Tclass c -> "c:" ^ string_of_int c
  | Tenum { ename; eparent; _ } ->
      Printf.sprintf "e:%s:%s" ename
        (match eparent with
         | Pclass c -> "c" ^ string_of_int c
         | Pnamespace n -> "n" ^ string_of_int n
         | Pnone -> "g")
  | Ttparam s -> "t:" ^ s
  | Terror -> "!"
  [@@warning "-27"]

and intern_type ?(loc = Srcloc.dummy) ?(parent = Pnone) ?(access = Acc_na) p (k : ty_kind) :
    type_id =
  let key = type_key p k in
  match Hashtbl.find_opt p.type_intern key with
  | Some id -> id
  | None ->
      let id = p.next_type in
      p.next_type <- id + 1;
      let t =
        { ty_id = id; ty_kind = k; ty_loc = loc; ty_parent = parent;
          ty_access = access; ty_typedef_names = [] }
      in
      Hashtbl.replace p.types id t;
      Hashtbl.replace p.type_intern key id;
      p.type_order <- id :: p.type_order;
      id

(** Human-readable type name, matching the style of Figure 3
    (e.g. ["const int &"], ["bool () const"], ["void (const int &)"]). *)
let rec type_name p (id : type_id) : string =
  match (type_ p id).ty_kind with
  | Tbuiltin { bname; _ } -> bname
  | Tptr t -> type_name p t ^ " *"
  | Tref t -> type_name p t ^ " &"
  | Tqual { base; q_const; q_volatile } ->
      (if q_const then "const " else "")
      ^ (if q_volatile then "volatile " else "")
      ^ type_name p base
  | Tarray (t, None) -> type_name p t ^ " []"
  | Tarray (t, Some n) -> Printf.sprintf "%s [%d]" (type_name p t) n
  | Tfunc { rett; params; ellipsis; cqual; _ } ->
      Printf.sprintf "%s (%s%s)%s" (type_name p rett)
        (String.concat ", " (List.map (fun (t, _) -> type_name p t) params))
        (if ellipsis then (if params = [] then "..." else ", ...") else "")
        (if cqual then " const" else "")
  | Tclass c -> (class_ p c).cl_name
  | Tenum { ename; _ } -> ename
  | Ttparam s -> s
  | Terror -> "<error>"

(* common builtins *)

let builtin_type p ~bname ~ykind ~yikind =
  intern_type p (Tbuiltin { bname; ykind; yikind })

let ty_int p = builtin_type p ~bname:"int" ~ykind:"int" ~yikind:"int"
let ty_bool p = builtin_type p ~bname:"bool" ~ykind:"bool" ~yikind:"char"
let ty_void p = builtin_type p ~bname:"void" ~ykind:"void" ~yikind:"NA"
let ty_char p = builtin_type p ~bname:"char" ~ykind:"char" ~yikind:"char"
let ty_double p = builtin_type p ~bname:"double" ~ykind:"float" ~yikind:"double"
let ty_float p = builtin_type p ~bname:"float" ~ykind:"float" ~yikind:"float"
let ty_error p = intern_type p Terror

(** Strip cv-qualification and references down to the underlying type. *)
let rec strip_qual_ref p id =
  match (type_ p id).ty_kind with
  | Tqual { base; _ } -> strip_qual_ref p base
  | Tref t -> strip_qual_ref p t
  | _ -> id

(** The class behind a type, looking through cv/ref/ptr. *)
let rec class_of_type p id : class_id option =
  match (type_ p id).ty_kind with
  | Tclass c -> Some c
  | Tqual { base; _ } -> class_of_type p base
  | Tref t | Tptr t -> class_of_type p t
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Queries used by tools                                               *)
(* ------------------------------------------------------------------ *)

(** Fully qualified display name of a routine, e.g.
    ["Stack<int>::push"]. *)
let routine_full_name p (r : routine_entity) : string =
  let rec parent_prefix = function
    | Pclass c -> parent_prefix (class_ p c).cl_parent ^ (class_ p c).cl_name ^ "::"
    | Pnamespace n when (namespace p n).na_name <> "" ->
        parent_prefix (namespace p n).na_parent ^ (namespace p n).na_name ^ "::"
    | Pnamespace _ | Pnone -> ""
  in
  parent_prefix r.ro_parent ^ r.ro_name

let class_full_name p (c : class_entity) : string =
  let rec parent_prefix = function
    | Pclass c -> parent_prefix (class_ p c).cl_parent ^ (class_ p c).cl_name ^ "::"
    | Pnamespace n when (namespace p n).na_name <> "" ->
        parent_prefix (namespace p n).na_parent ^ (namespace p n).na_name ^ "::"
    | Pnamespace _ | Pnone -> ""
  in
  parent_prefix c.cl_parent ^ c.cl_name

(** Find a member function by name (all overloads). *)
let find_member_funcs p (c : class_entity) name : routine_entity list =
  List.filter_map
    (fun id ->
      let r = routine p id in
      if String.equal r.ro_name name then Some r else None)
    c.cl_funcs

(** Signature string used to distinguish overloads. *)
let overload_key p (r : routine_entity) : string =
  r.ro_name ^ ":" ^ type_name p r.ro_sig

(** Statistics used by benchmarks. *)
type stats = {
  n_files : int;
  n_namespaces : int;
  n_classes : int;
  n_routines : int;
  n_types : int;
  n_templates : int;
  n_macros : int;
  n_instantiated_classes : int;
  n_instantiated_routines : int;
  n_defined_routines : int;
  n_call_edges : int;
}

let stats p : stats =
  let n_inst_cl =
    List.length (List.filter (fun c -> c.cl_template <> None) (classes p))
  in
  let rs = routines p in
  {
    n_files = Hashtbl.length p.files;
    n_namespaces = Hashtbl.length p.namespaces;
    n_classes = Hashtbl.length p.classes;
    n_routines = Hashtbl.length p.routines;
    n_types = Hashtbl.length p.types;
    n_templates = Hashtbl.length p.templates;
    n_macros = Hashtbl.length p.macros;
    n_instantiated_classes = n_inst_cl;
    n_instantiated_routines =
      List.length (List.filter (fun r -> r.ro_template <> None) rs);
    n_defined_routines = List.length (List.filter (fun r -> r.ro_defined) rs);
    n_call_edges = List.fold_left (fun a r -> a + List.length r.ro_calls) 0 rs;
  }
