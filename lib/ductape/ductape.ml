(** DUCTAPE: the C++ program Database Utilities and Conversion Tools
    APplication Environment (paper §3.3).

    DUCTAPE gives applications an object-style API over PDB files.  The
    paper's class hierarchy (Figure 4) is:

    {v
    pdbSimpleItem ─┬─ pdbFile
                   └─ pdbItem ─┬─ pdbMacro
                               ├─ pdbType
                               └─ pdbFatItem ─┬─ pdbTemplate
                                              ├─ pdbNamespace
                                              └─ pdbTemplateItem ─┬─ pdbClass
                                                                  └─ pdbRoutine
    v}

    In OCaml we realize the hierarchy as the {!item} sum type plus total
    accessors at each level of the hierarchy: every item has [name]/[id]
    (pdbSimpleItem); every non-file item has [location]/[parent]/[access]
    (pdbItem); fat items add [header]/[body] positions; template items add
    [template_of] (the template they instantiate).  The [is_*] predicates
    express the is-a relations.

    The {!t} value corresponds to the paper's [PDB] class: it indexes one
    (possibly merged) PDB file and provides the file-inclusion tree, the
    static call graph, the class hierarchy, and {!merge}. *)

module P = Pdt_pdb.Pdb

type t = {
  pdb : P.t;
  files : (int, P.source_file) Hashtbl.t;
  types : (int, P.type_item) Hashtbl.t;
  classes : (int, P.class_item) Hashtbl.t;
  routines : (int, P.routine_item) Hashtbl.t;
  templates : (int, P.template_item) Hashtbl.t;
  namespaces : (int, P.namespace_item) Hashtbl.t;
  macros : (int, P.macro_item) Hashtbl.t;
  derived : (int, int list) Hashtbl.t;     (** class -> derived classes *)
  callers : (int, int list) Hashtbl.t;     (** routine -> callers *)
}

let index (pdb : P.t) : t =
  let h mk lst key =
    let tbl = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace tbl (key x) (mk x)) lst;
    tbl
  in
  let id x = x in
  let t =
    { pdb;
      files = h id pdb.P.files (fun f -> f.P.so_id);
      types = h id pdb.P.types (fun x -> x.P.ty_id);
      classes = h id pdb.P.classes (fun x -> x.P.cl_id);
      routines = h id pdb.P.routines (fun x -> x.P.ro_id);
      templates = h id pdb.P.templates (fun x -> x.P.te_id);
      namespaces = h id pdb.P.namespaces (fun x -> x.P.na_id);
      macros = h id pdb.P.pdb_macros (fun x -> x.P.ma_id);
      derived = Hashtbl.create 64;
      callers = Hashtbl.create 64 }
  in
  (* both reverse tables accumulate newest-first and are reversed once at
     the end; appending per edge would be quadratic in the fan-in *)
  List.iter
    (fun (c : P.class_item) ->
      List.iter
        (fun (_, _, base) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt t.derived base) in
          Hashtbl.replace t.derived base (c.P.cl_id :: cur))
        c.P.cl_bases)
    pdb.P.classes;
  let seen_edge = Hashtbl.create 256 in
  List.iter
    (fun (r : P.routine_item) ->
      List.iter
        (fun (c : P.call) ->
          if not (Hashtbl.mem seen_edge (c.P.c_callee, r.P.ro_id)) then begin
            Hashtbl.add seen_edge (c.P.c_callee, r.P.ro_id) ();
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt t.callers c.P.c_callee)
            in
            Hashtbl.replace t.callers c.P.c_callee (r.P.ro_id :: cur)
          end)
        r.P.ro_calls)
    pdb.P.routines;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t.derived;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) t.callers;
  t

let pdb t = t.pdb

(* Loading sniffs the container format (ASCII vs PDB-B).  On the binary
   path the whole load — mmap, record decode, and index build — runs
   under one [pdb.mmap_index] span: that is the end-to-end "cold load"
   cost the B10 bench tracks against the ASCII parser. *)
let of_string s =
  match Pdt_pdb.Pdb_io.sniff_string s with
  | Pdt_pdb.Pdb_io.Binary ->
      Pdt_util.Trace.timed ~cat:"pdb" "pdb.mmap_index" @@ fun () ->
      index (Pdt_pdb.Pdb_bin.of_string s)
  | Pdt_pdb.Pdb_io.Ascii -> index (Pdt_pdb.Pdb_parse.of_string s)

let of_file p =
  match Pdt_pdb.Pdb_io.sniff_file p with
  | Pdt_pdb.Pdb_io.Binary ->
      Pdt_util.Trace.timed ~cat:"pdb" "pdb.mmap_index" @@ fun () ->
      index (Pdt_pdb.Pdb_bin.of_file p)
  | Pdt_pdb.Pdb_io.Ascii -> index (Pdt_pdb.Pdb_parse.of_file p)

let to_string t = Pdt_pdb.Pdb_write.to_string t.pdb
let to_file t path = Pdt_pdb.Pdb_write.to_file t.pdb path

(* ------------------------------------------------------------------ *)
(* The item hierarchy (Figure 4)                                       *)
(* ------------------------------------------------------------------ *)

type item =
  | File of P.source_file
  | Macro of P.macro_item
  | Type of P.type_item
  | Template of P.template_item
  | Namespace of P.namespace_item
  | Class of P.class_item
  | Routine of P.routine_item

(* pdbSimpleItem interface *)

let item_id = function
  | File f -> f.P.so_id
  | Macro m -> m.P.ma_id
  | Type ty -> ty.P.ty_id
  | Template te -> te.P.te_id
  | Namespace n -> n.P.na_id
  | Class c -> c.P.cl_id
  | Routine r -> r.P.ro_id

let item_prefix = function
  | File _ -> "so"
  | Macro _ -> "ma"
  | Type _ -> "ty"
  | Template _ -> "te"
  | Namespace _ -> "na"
  | Class _ -> "cl"
  | Routine _ -> "ro"

let item_name t = function
  | File f -> f.P.so_name
  | Macro m -> m.P.ma_name
  | Type ty -> P.typeref_name t.pdb (P.Tyref ty.P.ty_id)
  | Template te -> te.P.te_name
  | Namespace n -> n.P.na_name
  | Class c -> c.P.cl_name
  | Routine r -> r.P.ro_name

(* pdbItem interface: location / parent / access (files have none) *)

let item_location = function
  | File _ -> None
  | Macro m -> Some m.P.ma_loc
  | Type ty -> Some ty.P.ty_loc
  | Template te -> Some te.P.te_loc
  | Namespace n -> Some n.P.na_loc
  | Class c -> Some c.P.cl_loc
  | Routine r -> Some r.P.ro_loc

let item_parent = function
  | File _ -> None
  | Macro _ -> Some P.Pnone
  | Type ty -> Some ty.P.ty_parent
  | Template te -> Some te.P.te_parent
  | Namespace n -> Some n.P.na_parent
  | Class c -> Some c.P.cl_parent
  | Routine r -> Some r.P.ro_parent

let item_access = function
  | File _ -> None
  | Macro _ | Namespace _ -> Some "NA"
  | Type ty -> Some ty.P.ty_acs
  | Template te -> Some te.P.te_acs
  | Class c -> Some c.P.cl_acs
  | Routine r -> Some r.P.ro_acs

(* pdbFatItem interface: header/body source extents *)

let item_extent = function
  | Template te -> Some te.P.te_pos
  | Namespace _ -> None
  | Class c -> Some c.P.cl_pos
  | Routine r -> Some r.P.ro_pos
  | File _ | Macro _ | Type _ -> None

(* pdbTemplateItem interface: the template an item instantiates *)

let item_template_of = function
  | Class c -> c.P.cl_templ
  | Routine r -> r.P.ro_templ
  | File _ | Macro _ | Type _ | Template _ | Namespace _ -> None

(* is-a predicates for the hierarchy *)

let is_item = function File _ -> false | _ -> true
let is_fat_item = function
  | Template _ | Namespace _ | Class _ | Routine _ -> true
  | File _ | Macro _ | Type _ -> false
let is_template_item = function Class _ | Routine _ -> true | _ -> false

(** All items in the PDB, grouped in Table 1 order. *)
let items t : item list =
  List.map (fun f -> File f) t.pdb.P.files
  @ List.map (fun n -> Namespace n) t.pdb.P.namespaces
  @ List.map (fun te -> Template te) t.pdb.P.templates
  @ List.map (fun r -> Routine r) t.pdb.P.routines
  @ List.map (fun c -> Class c) t.pdb.P.classes
  @ List.map (fun ty -> Type ty) t.pdb.P.types
  @ List.map (fun m -> Macro m) t.pdb.P.pdb_macros

(* ------------------------------------------------------------------ *)
(* Typed getters (the per-class member functions)                      *)
(* ------------------------------------------------------------------ *)

let file t id = Hashtbl.find_opt t.files id
let type_ t id = Hashtbl.find_opt t.types id
let class_ t id = Hashtbl.find_opt t.classes id
let routine t id = Hashtbl.find_opt t.routines id
let template t id = Hashtbl.find_opt t.templates id
let namespace t id = Hashtbl.find_opt t.namespaces id
let macro t id = Hashtbl.find_opt t.macros id

let files t = t.pdb.P.files
let types t = t.pdb.P.types
let classes t = t.pdb.P.classes
let routines t = t.pdb.P.routines
let templates t = t.pdb.P.templates
let namespaces t = t.pdb.P.namespaces
let macros t = t.pdb.P.pdb_macros

let routine_full_name t r = P.routine_full_name t.pdb r
let class_full_name t c = P.class_full_name t.pdb c
let typeref_name t r = P.typeref_name t.pdb r

(** Callees of a routine (the paper's [pdbRoutine::callees]). *)
let callees t (r : P.routine_item) : (P.call * P.routine_item) list =
  List.filter_map
    (fun (c : P.call) -> Option.map (fun r' -> (c, r')) (routine t c.P.c_callee))
    r.P.ro_calls

(** Callers of a routine (reverse call graph). *)
let callers t (r : P.routine_item) : P.routine_item list =
  List.filter_map (routine t)
    (Option.value ~default:[] (Hashtbl.find_opt t.callers r.P.ro_id))

(** Direct base classes with their access/virtual flags. *)
let bases t (c : P.class_item) : (string * bool * P.class_item) list =
  List.filter_map
    (fun (acs, virt, id) -> Option.map (fun b -> (acs, virt, b)) (class_ t id))
    c.P.cl_bases

(** Classes directly derived from [c]. *)
let derived t (c : P.class_item) : P.class_item list =
  List.filter_map (class_ t)
    (Option.value ~default:[] (Hashtbl.find_opt t.derived c.P.cl_id))

(** Member functions of a class. *)
let member_functions t (c : P.class_item) : P.routine_item list =
  List.filter_map (fun (ro, _) -> routine t ro) c.P.cl_funcs

(** All template instantiations, classes and routines together — the
    [list<pdbTemplateItem>] usage the paper highlights. *)
let template_items t : item list =
  List.map (fun c -> Class c) (List.filter (fun c -> c.P.cl_templ <> None) t.pdb.P.classes)
  @ List.map (fun r -> Routine r)
      (List.filter (fun (r : P.routine_item) -> r.P.ro_templ <> None) t.pdb.P.routines)

(** Instantiations of a given template. *)
let instantiations t (te : P.template_item) : item list =
  List.filter
    (fun it -> item_template_of it = Some te.P.te_id)
    (template_items t)

(* ------------------------------------------------------------------ *)
(* Trees (include tree, call tree, class hierarchy)                    *)
(* ------------------------------------------------------------------ *)

type 'a tree = { node : 'a; children : 'a tree list }

(** The source-file inclusion tree, rooted at the main source file (the
    first file of the PDB).  Cycles (mutual inclusion guards) are cut. *)
let include_tree t : P.source_file tree option =
  match t.pdb.P.files with
  | [] -> None
  | root :: _ ->
      let rec build seen (f : P.source_file) =
        { node = f;
          children =
            List.filter_map
              (fun id ->
                if List.mem id seen then None
                else Option.map (build (id :: seen)) (file t id))
              f.P.so_includes }
      in
      Some (build [ root.P.so_id ] root)

(** Static call tree rooted at [root] (default: the routine named "main").
    Cycles are cut at the repeated node. *)
let call_tree ?root t : P.routine_item tree option =
  let root =
    match root with
    | Some r -> Some r
    | None ->
        List.find_opt (fun (r : P.routine_item) -> r.P.ro_name = "main") t.pdb.P.routines
  in
  Option.map
    (fun root ->
      let rec build seen (r : P.routine_item) =
        { node = r;
          children =
            List.filter_map
              (fun (c : P.call) ->
                if List.mem c.P.c_callee seen then None
                else
                  Option.map (build (c.P.c_callee :: seen)) (routine t c.P.c_callee))
              r.P.ro_calls }
      in
      build [ root.P.ro_id ] root)
    root

(** The class hierarchy as a forest rooted at base classes. *)
let class_hierarchy t : P.class_item tree list =
  let roots = List.filter (fun (c : P.class_item) -> c.P.cl_bases = []) t.pdb.P.classes in
  let rec build seen (c : P.class_item) =
    { node = c;
      children =
        List.filter_map
          (fun (d : P.class_item) ->
            if List.mem d.P.cl_id seen then None
            else Some (build (d.P.cl_id :: seen) d))
          (derived t c) }
  in
  List.map (fun c -> build [ c.P.cl_id ] c) roots

(* ------------------------------------------------------------------ *)
(* Merge (the engine behind pdbmerge)                                  *)
(* ------------------------------------------------------------------ *)

(* Canonical keys identify "the same entity" across translation units; in
   particular two instantiations of the same template in different TUs get
   the same key, which is how pdbmerge "eliminates duplicate template
   instantiations" (Table 2). *)

let file_key (f : P.source_file) = f.P.so_name
let macro_key (m : P.macro_item) = m.P.ma_name ^ "\x00" ^ m.P.ma_text

let class_key (pdb : P.t) (c : P.class_item) =
  P.class_full_name pdb c ^ "\x00" ^ c.P.cl_kind

let namespace_key (pdb : P.t) (n : P.namespace_item) =
  P.parent_prefix pdb n.P.na_parent ^ n.P.na_name

let template_key (pdb : P.t) (te : P.template_item) =
  P.parent_prefix pdb te.P.te_parent ^ te.P.te_name ^ "\x00" ^ te.P.te_kind
  ^ "\x00" ^ te.P.te_text

let routine_key (pdb : P.t) (r : P.routine_item) =
  P.routine_full_name pdb r ^ "\x00" ^ P.typeref_name pdb r.P.ro_sig

let type_key (pdb : P.t) (ty : P.type_item) =
  P.ykind_string ty.P.ty_info ^ "\x00" ^ P.typeref_name pdb (P.Tyref ty.P.ty_id)

(** Merge several PDBs into one, eliminating duplicate entities (notably
    duplicate template instantiations).  Later occurrences contribute
    definitions that earlier ones lacked: an undefined routine merged with a
    defined duplicate adopts its body position and call list.

    Each input comes with its digest: the MD5 (hex) of its canonical ASCII
    serialization, {!Pdt_pdb.Pdb_digest.of_pdb}.  The build drivers take it
    from bytes they already hold — a unit's ASCII cache body, just stored
    or just verified, a group partial, an ASCII farm payload — and {!merge}
    computes it for inputs without bytes.  Inputs are sorted by digest
    first.  The merge is first-wins for same-key entities, so input order
    decides the output bytes, and the digest order makes that order a
    function of the inputs' content, not of how the caller listed them.
    After deduplication a final pass orders every kind by its canonical
    key, reassigns ids densely in that order, rewrites all references, and
    sorts the unioned reference lists.  Hence for any partition of the
    inputs, merging the partial merges yields the same bytes as one flat
    merge — which is what lets the incremental driver splice cached group
    partials and still match a from-scratch build exactly.  A digest that
    is not its PDB's could reorder inputs where same-key entities
    conflict, so the bytes must be that PDB's canonical ASCII. *)
let merge_digested (inputs : (string * P.t) list) : P.t =
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.merge" @@ fun () ->
  let pdbs =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) inputs
    |> List.map snd
  in
  let out = P.create () in
  (* degraded-compilation markers: the merge is incomplete iff any input
     is, and the diagnostic counts add up.  OR and sum are associative and
     commutative, so the parallel tree merge still matches a flat merge. *)
  List.iter
    (fun (p : P.t) ->
      if p.P.incomplete then begin
        out.P.incomplete <- true;
        out.P.diag_count <- out.P.diag_count + p.P.diag_count
      end)
    pdbs;
  (* key -> new id, per kind *)
  let fkeys = Hashtbl.create 64 and ckeys = Hashtbl.create 64 in
  let rkeys = Hashtbl.create 256 and tekeys = Hashtbl.create 64 in
  let nkeys = Hashtbl.create 16 and tykeys = Hashtbl.create 256 in
  let mkeys = Hashtbl.create 64 in
  let next_f = ref 1 and next_c = ref 1 and next_r = ref 1 and next_te = ref 1 in
  let next_n = ref 1 and next_ty = ref 1 and next_m = ref 1 in
  (* accumulated merged items by new id *)
  let mfiles : (int, P.source_file) Hashtbl.t = Hashtbl.create 64 in
  let mclasses : (int, P.class_item) Hashtbl.t = Hashtbl.create 64 in
  let mroutines : (int, P.routine_item) Hashtbl.t = Hashtbl.create 256 in
  let mtemplates : (int, P.template_item) Hashtbl.t = Hashtbl.create 64 in
  let mnamespaces : (int, P.namespace_item) Hashtbl.t = Hashtbl.create 16 in
  let mtypes : (int, P.type_item) Hashtbl.t = Hashtbl.create 256 in
  let mmacros : (int, P.macro_item) Hashtbl.t = Hashtbl.create 64 in
  let order_f = ref [] and order_c = ref [] and order_r = ref [] in
  let order_te = ref [] and order_n = ref [] and order_ty = ref [] in
  let order_m = ref [] in
  List.iter
    (fun (pdb : P.t) ->
      (* pass 1: assign new ids for this pdb's items *)
      let fmap = Hashtbl.create 16 and cmap = Hashtbl.create 64 in
      let rmap = Hashtbl.create 256 and temap = Hashtbl.create 64 in
      let nmap = Hashtbl.create 16 and tymap = Hashtbl.create 256 in
      let mmap = Hashtbl.create 64 in
      let alloc keys key next map oldid order =
        match Hashtbl.find_opt keys key with
        | Some newid ->
            Hashtbl.replace map oldid newid;
            (newid, false)
        | None ->
            let newid = !next in
            incr next;
            Hashtbl.replace keys key newid;
            Hashtbl.replace map oldid newid;
            order := newid :: !order;
            (newid, true)
      in
      List.iter
        (fun (f : P.source_file) ->
          ignore (alloc fkeys (file_key f) next_f fmap f.P.so_id order_f))
        pdb.P.files;
      List.iter
        (fun (n : P.namespace_item) ->
          ignore (alloc nkeys (namespace_key pdb n) next_n nmap n.P.na_id order_n))
        pdb.P.namespaces;
      List.iter
        (fun (te : P.template_item) ->
          ignore (alloc tekeys (template_key pdb te) next_te temap te.P.te_id order_te))
        pdb.P.templates;
      List.iter
        (fun (c : P.class_item) ->
          ignore (alloc ckeys (class_key pdb c) next_c cmap c.P.cl_id order_c))
        pdb.P.classes;
      List.iter
        (fun (r : P.routine_item) ->
          ignore (alloc rkeys (routine_key pdb r) next_r rmap r.P.ro_id order_r))
        pdb.P.routines;
      List.iter
        (fun (ty : P.type_item) ->
          ignore (alloc tykeys (type_key pdb ty) next_ty tymap ty.P.ty_id order_ty))
        pdb.P.types;
      List.iter
        (fun (m : P.macro_item) ->
          ignore (alloc mkeys (macro_key m) next_m mmap m.P.ma_id order_m))
        pdb.P.pdb_macros;
      (* pass 2: rewrite and merge *)
      let remap_loc (l : P.loc) =
        if l.P.lfile = 0 then l
        else
          match Hashtbl.find_opt fmap l.P.lfile with
          | Some f -> { l with P.lfile = f }
          | None -> P.null_loc
      in
      let remap_extent (e : P.extent) =
        { P.hstart = remap_loc e.P.hstart; hstop = remap_loc e.P.hstop;
          bstart = remap_loc e.P.bstart; bstop = remap_loc e.P.bstop }
      in
      let remap_typeref = function
        | P.Tyref id -> P.Tyref (Option.value ~default:0 (Hashtbl.find_opt tymap id))
        | P.Clref id -> P.Clref (Option.value ~default:0 (Hashtbl.find_opt cmap id))
      in
      let remap_parent = function
        | P.Pcl id -> P.Pcl (Option.value ~default:0 (Hashtbl.find_opt cmap id))
        | P.Pna id -> P.Pna (Option.value ~default:0 (Hashtbl.find_opt nmap id))
        | P.Pnone -> P.Pnone
      in
      List.iter
        (fun (f : P.source_file) ->
          let newid = Hashtbl.find fmap f.P.so_id in
          let includes = List.filter_map (Hashtbl.find_opt fmap) f.P.so_includes in
          match Hashtbl.find_opt mfiles newid with
          | None ->
              Hashtbl.replace mfiles newid
                { P.so_id = newid; so_name = f.P.so_name; so_includes = includes }
          | Some existing ->
              List.iter
                (fun i ->
                  if not (List.mem i existing.P.so_includes) then
                    existing.P.so_includes <- existing.P.so_includes @ [ i ])
                includes)
        pdb.P.files;
      List.iter
        (fun (n : P.namespace_item) ->
          let newid = Hashtbl.find nmap n.P.na_id in
          let members =
            List.filter_map
              (fun (r : P.itemref) ->
                match r with
                | P.Rcl i -> Option.map (fun i -> P.Rcl i) (Hashtbl.find_opt cmap i)
                | P.Rro i -> Option.map (fun i -> P.Rro i) (Hashtbl.find_opt rmap i)
                | P.Rna i -> Option.map (fun i -> P.Rna i) (Hashtbl.find_opt nmap i)
                | P.Rty i -> Option.map (fun i -> P.Rty i) (Hashtbl.find_opt tymap i)
                | P.Rte i -> Option.map (fun i -> P.Rte i) (Hashtbl.find_opt temap i)
                | P.Rso i -> Option.map (fun i -> P.Rso i) (Hashtbl.find_opt fmap i)
                | P.Rma i -> Option.map (fun i -> P.Rma i) (Hashtbl.find_opt mmap i))
              n.P.na_members
          in
          match Hashtbl.find_opt mnamespaces newid with
          | None ->
              Hashtbl.replace mnamespaces newid
                { n with P.na_id = newid; na_loc = remap_loc n.P.na_loc;
                  na_parent = remap_parent n.P.na_parent; na_members = members }
          | Some existing ->
              List.iter
                (fun m ->
                  if not (List.mem m existing.P.na_members) then
                    existing.P.na_members <- existing.P.na_members @ [ m ])
                members)
        pdb.P.namespaces;
      List.iter
        (fun (te : P.template_item) ->
          let newid = Hashtbl.find temap te.P.te_id in
          if not (Hashtbl.mem mtemplates newid) then
            Hashtbl.replace mtemplates newid
              { te with P.te_id = newid; te_loc = remap_loc te.P.te_loc;
                te_parent = remap_parent te.P.te_parent;
                te_pos = remap_extent te.P.te_pos })
        pdb.P.templates;
      List.iter
        (fun (c : P.class_item) ->
          let newid = Hashtbl.find cmap c.P.cl_id in
          let rewritten =
            { c with P.cl_id = newid; cl_loc = remap_loc c.P.cl_loc;
              cl_parent = remap_parent c.P.cl_parent;
              cl_templ = Option.bind c.P.cl_templ (Hashtbl.find_opt temap);
              cl_stempl = Option.bind c.P.cl_stempl (Hashtbl.find_opt temap);
              cl_bases =
                List.filter_map
                  (fun (a, v, b) ->
                    Option.map (fun b -> (a, v, b)) (Hashtbl.find_opt cmap b))
                  c.P.cl_bases;
              cl_friends =
                List.filter_map
                  (function
                    | `Cl i -> Option.map (fun i -> `Cl i) (Hashtbl.find_opt cmap i)
                    | `Ro i -> Option.map (fun i -> `Ro i) (Hashtbl.find_opt rmap i))
                  c.P.cl_friends;
              cl_funcs =
                List.filter_map
                  (fun (ro, l) ->
                    Option.map (fun ro -> (ro, remap_loc l)) (Hashtbl.find_opt rmap ro))
                  c.P.cl_funcs;
              cl_members =
                List.map
                  (fun (m : P.member) ->
                    { m with P.m_loc = remap_loc m.P.m_loc;
                      m_type = remap_typeref m.P.m_type })
                  c.P.cl_members;
              cl_pos = remap_extent c.P.cl_pos }
          in
          match Hashtbl.find_opt mclasses newid with
          | None -> Hashtbl.replace mclasses newid rewritten
          | Some existing ->
              (* a complete definition beats a forward declaration; merge the
                 member-function lists of partial (used-mode) instantiations *)
              if existing.P.cl_members = [] && rewritten.P.cl_members <> [] then
                Hashtbl.replace mclasses newid rewritten
              else
                List.iter
                  (fun (ro, l) ->
                    if not (List.mem_assoc ro existing.P.cl_funcs) then
                      existing.P.cl_funcs <- existing.P.cl_funcs @ [ (ro, l) ])
                  rewritten.P.cl_funcs)
        pdb.P.classes;
      List.iter
        (fun (r : P.routine_item) ->
          let newid = Hashtbl.find rmap r.P.ro_id in
          let rewritten =
            { r with P.ro_id = newid; ro_loc = remap_loc r.P.ro_loc;
              ro_parent = remap_parent r.P.ro_parent;
              ro_sig = remap_typeref r.P.ro_sig;
              ro_templ = Option.bind r.P.ro_templ (Hashtbl.find_opt temap);
              ro_calls =
                List.filter_map
                  (fun (c : P.call) ->
                    Option.map
                      (fun callee ->
                        { c with P.c_callee = callee; c_loc = remap_loc c.P.c_loc })
                      (Hashtbl.find_opt rmap c.P.c_callee))
                  r.P.ro_calls;
              ro_spawns =
                List.filter_map
                  (fun (s : P.spawn) ->
                    Option.map
                      (fun callee ->
                        { P.sp_callee = callee; sp_loc = remap_loc s.P.sp_loc;
                          sp_join = Option.map remap_loc s.P.sp_join })
                      (Hashtbl.find_opt rmap s.P.sp_callee))
                  r.P.ro_spawns;
              ro_du =
                List.map
                  (fun (v : P.du_var) ->
                    { v with
                      P.v_defs = List.map remap_loc v.P.v_defs;
                      v_uses =
                        List.map
                          (fun (u : P.du_use) ->
                            { u with P.u_loc = remap_loc u.P.u_loc })
                          v.P.v_uses })
                  r.P.ro_du;
              ro_pos = remap_extent r.P.ro_pos }
          in
          match Hashtbl.find_opt mroutines newid with
          | None -> Hashtbl.replace mroutines newid rewritten
          | Some existing ->
              (* a definition from a later TU completes a declaration *)
              if rewritten.P.ro_defined && not existing.P.ro_defined then
                Hashtbl.replace mroutines newid rewritten)
        pdb.P.routines;
      List.iter
        (fun (ty : P.type_item) ->
          let newid = Hashtbl.find tymap ty.P.ty_id in
          if not (Hashtbl.mem mtypes newid) then
            Hashtbl.replace mtypes newid
              { ty with P.ty_id = newid; ty_loc = remap_loc ty.P.ty_loc;
                ty_parent = remap_parent ty.P.ty_parent;
                ty_info =
                  (match ty.P.ty_info with
                   | P.Ybuiltin _ | P.Yenum _ | P.Ytparam | P.Yerror -> ty.P.ty_info
                   | P.Yptr r -> P.Yptr (remap_typeref r)
                   | P.Yref r -> P.Yref (remap_typeref r)
                   | P.Ytref { target; yconst; yvolatile } ->
                       P.Ytref { target = remap_typeref target; yconst; yvolatile }
                   | P.Yarray { elem; size } ->
                       P.Yarray { elem = remap_typeref elem; size }
                   | P.Yfunc { rett; args; ellipsis; cqual; exceptions } ->
                       P.Yfunc
                         { rett = remap_typeref rett;
                           args = List.map (fun (r, d) -> (remap_typeref r, d)) args;
                           ellipsis; cqual;
                           exceptions = Option.map (List.map remap_typeref) exceptions }) })
        pdb.P.types;
      List.iter
        (fun (m : P.macro_item) ->
          let newid = Hashtbl.find mmap m.P.ma_id in
          if not (Hashtbl.mem mmacros newid) then
            Hashtbl.replace mmacros newid
              { m with P.ma_id = newid; ma_loc = remap_loc m.P.ma_loc })
        pdb.P.pdb_macros)
    pdbs;
  (* Canonicalization.  The accumulators above are deduplicated but their
     id space is first-occurrence order over the input list, so merging
     the same PDBs grouped differently (a parallel tree merge) would
     allocate differently.  This final pass makes the output a pure
     function of the deduplicated content: entities of each kind are
     ordered by their canonical key (unique per kind — it is the dedup
     identity), ids are reassigned densely in that order, every reference
     is rewritten, and unioned reference lists (file includes, namespace
     members, class member-function lists) are sorted.  Source-ordered
     lists (calls, base classes, members) keep their winner's order. *)
  let pre = P.create () in
  pre.P.files <- List.rev_map (Hashtbl.find mfiles) !order_f;
  pre.P.namespaces <- List.rev_map (Hashtbl.find mnamespaces) !order_n;
  pre.P.templates <- List.rev_map (Hashtbl.find mtemplates) !order_te;
  pre.P.classes <- List.rev_map (Hashtbl.find mclasses) !order_c;
  pre.P.routines <- List.rev_map (Hashtbl.find mroutines) !order_r;
  pre.P.types <- List.rev_map (Hashtbl.find mtypes) !order_ty;
  pre.P.pdb_macros <- List.rev_map (Hashtbl.find mmacros) !order_m;
  let sort_by key get_id items =
    List.sort
      (fun a b ->
        let c = String.compare (key a) (key b) in
        if c <> 0 then c else compare (get_id a) (get_id b))
      items
  in
  let sfiles = sort_by file_key (fun f -> f.P.so_id) pre.P.files in
  let snamespaces = sort_by (namespace_key pre) (fun n -> n.P.na_id) pre.P.namespaces in
  let stemplates = sort_by (template_key pre) (fun te -> te.P.te_id) pre.P.templates in
  let sclasses = sort_by (class_key pre) (fun c -> c.P.cl_id) pre.P.classes in
  let sroutines = sort_by (routine_key pre) (fun r -> r.P.ro_id) pre.P.routines in
  let stypes = sort_by (type_key pre) (fun ty -> ty.P.ty_id) pre.P.types in
  let smacros = sort_by macro_key (fun m -> m.P.ma_id) pre.P.pdb_macros in
  let remap_of get_id items =
    let h = Hashtbl.create 64 in
    List.iteri (fun i x -> Hashtbl.replace h (get_id x) (i + 1)) items;
    h
  in
  let fmap = remap_of (fun (f : P.source_file) -> f.P.so_id) sfiles in
  let nmap = remap_of (fun (n : P.namespace_item) -> n.P.na_id) snamespaces in
  let temap = remap_of (fun (te : P.template_item) -> te.P.te_id) stemplates in
  let cmap = remap_of (fun (c : P.class_item) -> c.P.cl_id) sclasses in
  let rmap = remap_of (fun (r : P.routine_item) -> r.P.ro_id) sroutines in
  let tymap = remap_of (fun (ty : P.type_item) -> ty.P.ty_id) stypes in
  let mamap = remap_of (fun (m : P.macro_item) -> m.P.ma_id) smacros in
  let rid h id = if id = 0 then 0 else Option.value ~default:0 (Hashtbl.find_opt h id) in
  let rloc (l : P.loc) =
    if l.P.lfile = 0 then l else { l with P.lfile = rid fmap l.P.lfile }
  in
  let rextent (e : P.extent) =
    { P.hstart = rloc e.P.hstart; hstop = rloc e.P.hstop;
      bstart = rloc e.P.bstart; bstop = rloc e.P.bstop }
  in
  let rtyperef = function
    | P.Tyref id -> P.Tyref (rid tymap id)
    | P.Clref id -> P.Clref (rid cmap id)
  in
  let rparent = function
    | P.Pcl id -> P.Pcl (rid cmap id)
    | P.Pna id -> P.Pna (rid nmap id)
    | P.Pnone -> P.Pnone
  in
  let ritemref = function
    | P.Rso i -> P.Rso (rid fmap i)
    | P.Rro i -> P.Rro (rid rmap i)
    | P.Rcl i -> P.Rcl (rid cmap i)
    | P.Rty i -> P.Rty (rid tymap i)
    | P.Rte i -> P.Rte (rid temap i)
    | P.Rna i -> P.Rna (rid nmap i)
    | P.Rma i -> P.Rma (rid mamap i)
  in
  out.P.files <-
    List.map
      (fun (f : P.source_file) ->
        { P.so_id = rid fmap f.P.so_id; so_name = f.P.so_name;
          so_includes = List.sort compare (List.map (rid fmap) f.P.so_includes) })
      sfiles;
  out.P.namespaces <-
    List.map
      (fun (n : P.namespace_item) ->
        { n with P.na_id = rid nmap n.P.na_id; na_loc = rloc n.P.na_loc;
          na_parent = rparent n.P.na_parent;
          na_members = List.sort compare (List.map ritemref n.P.na_members) })
      snamespaces;
  out.P.templates <-
    List.map
      (fun (te : P.template_item) ->
        { te with P.te_id = rid temap te.P.te_id; te_loc = rloc te.P.te_loc;
          te_parent = rparent te.P.te_parent; te_pos = rextent te.P.te_pos })
      stemplates;
  out.P.classes <-
    List.map
      (fun (c : P.class_item) ->
        { c with P.cl_id = rid cmap c.P.cl_id; cl_loc = rloc c.P.cl_loc;
          cl_parent = rparent c.P.cl_parent;
          cl_templ = Option.map (rid temap) c.P.cl_templ;
          cl_stempl = Option.map (rid temap) c.P.cl_stempl;
          cl_bases = List.map (fun (a, v, b) -> (a, v, rid cmap b)) c.P.cl_bases;
          cl_friends =
            List.map
              (function `Cl i -> `Cl (rid cmap i) | `Ro i -> `Ro (rid rmap i))
              c.P.cl_friends;
          cl_funcs =
            List.sort compare
              (List.map (fun (ro, l) -> (rid rmap ro, rloc l)) c.P.cl_funcs);
          cl_members =
            List.map
              (fun (m : P.member) ->
                { m with P.m_loc = rloc m.P.m_loc; m_type = rtyperef m.P.m_type })
              c.P.cl_members;
          cl_pos = rextent c.P.cl_pos })
      sclasses;
  out.P.routines <-
    List.map
      (fun (r : P.routine_item) ->
        { r with P.ro_id = rid rmap r.P.ro_id; ro_loc = rloc r.P.ro_loc;
          ro_parent = rparent r.P.ro_parent; ro_sig = rtyperef r.P.ro_sig;
          ro_templ = Option.map (rid temap) r.P.ro_templ;
          ro_calls =
            List.map
              (fun (c : P.call) ->
                { c with P.c_callee = rid rmap c.P.c_callee; c_loc = rloc c.P.c_loc })
              r.P.ro_calls;
          ro_spawns =
            List.map
              (fun (s : P.spawn) ->
                { P.sp_callee = rid rmap s.P.sp_callee; sp_loc = rloc s.P.sp_loc;
                  sp_join = Option.map rloc s.P.sp_join })
              r.P.ro_spawns;
          ro_du =
            List.map
              (fun (v : P.du_var) ->
                { v with
                  P.v_defs = List.map rloc v.P.v_defs;
                  v_uses =
                    List.map
                      (fun (u : P.du_use) -> { u with P.u_loc = rloc u.P.u_loc })
                      v.P.v_uses })
              r.P.ro_du;
          ro_pos = rextent r.P.ro_pos })
      sroutines;
  out.P.types <-
    List.map
      (fun (ty : P.type_item) ->
        { ty with P.ty_id = rid tymap ty.P.ty_id; ty_loc = rloc ty.P.ty_loc;
          ty_parent = rparent ty.P.ty_parent;
          ty_info =
            (match ty.P.ty_info with
             | P.Ybuiltin _ | P.Yenum _ | P.Ytparam | P.Yerror -> ty.P.ty_info
             | P.Yptr r -> P.Yptr (rtyperef r)
             | P.Yref r -> P.Yref (rtyperef r)
             | P.Ytref { target; yconst; yvolatile } ->
                 P.Ytref { target = rtyperef target; yconst; yvolatile }
             | P.Yarray { elem; size } -> P.Yarray { elem = rtyperef elem; size }
             | P.Yfunc { rett; args; ellipsis; cqual; exceptions } ->
                 P.Yfunc
                   { rett = rtyperef rett;
                     args = List.map (fun (r, d) -> (rtyperef r, d)) args;
                     ellipsis; cqual;
                     exceptions = Option.map (List.map rtyperef) exceptions }) })
      stypes;
  out.P.pdb_macros <-
    List.map
      (fun (m : P.macro_item) ->
        { m with P.ma_id = rid mamap m.P.ma_id; ma_loc = rloc m.P.ma_loc })
      smacros;
  out

(** {!merge_digested} for PDBs held without their bytes: each input's
    digest is taken by serializing it. *)
let merge (pdbs : P.t list) : P.t =
  merge_digested (List.map (fun p -> (Pdt_pdb.Pdb_digest.of_pdb p, p)) pdbs)
