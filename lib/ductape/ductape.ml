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
   cost, which a trace shows as one span. *)
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

(** The source-file inclusion forest: one tree per file that no other
    file includes, in file order — the main file of a one-unit PDB, every
    translation unit of a merged one.  When every file is included by
    another (all lie on include cycles), the first file is the one root.
    Cycles (mutual inclusion guards) are cut. *)
let include_tree t : P.source_file tree list =
  let files = t.pdb.P.files in
  let included = Hashtbl.create 64 in
  List.iter
    (fun (f : P.source_file) ->
      List.iter
        (fun id -> if id <> f.P.so_id then Hashtbl.replace included id ())
        f.P.so_includes)
    files;
  let roots =
    match List.filter (fun f -> not (Hashtbl.mem included f.P.so_id)) files, files with
    | [], first :: _ -> [ first ]
    | roots, _ -> roots
  in
  let rec build seen (f : P.source_file) =
    { node = f;
      children =
        List.filter_map
          (fun id ->
            if List.mem id seen then None
            else Option.map (build (id :: seen)) (file t id))
          f.P.so_includes }
  in
  List.map (fun root -> build [ root.P.so_id ] root) roots

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

(* Local id -> output id, for one kind of one input: open addressing over
   two int arrays sized from the input's item count, so an id costs one
   slot however large it is.  0 reads as absent: output ids start at 1. *)
type idmap = { ids : int array; outs : int array; bits : int }

let idmap n =
  let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
  let bits = bits 3 in
  { ids = Array.make (1 lsl bits) 0; outs = Array.make (1 lsl bits) 0; bits }

let rec probe m mask id i =
  if m.outs.(i) = 0 || m.ids.(i) = id then i else probe m mask id ((i + 1) land mask)

(* the id's slot, or the empty slot it would take (Fibonacci hashing) *)
let slot m id = probe m ((1 lsl m.bits) - 1) id ((id * 0x2545F4914F6CDD1D) lsr (63 - m.bits))

let idmap_add m id out =
  let i = slot m id in
  m.ids.(i) <- id;
  m.outs.(i) <- out

let find m id = m.outs.(slot m id)
let find_opt m id = match find m id with 0 -> None | out -> Some out

(** Merge several PDBs into one, eliminating duplicate entities (notably
    duplicate template instantiations).  Later occurrences contribute
    definitions that earlier ones lacked: an undefined routine merged with a
    defined duplicate adopts its body position and call list.

    Each input comes with its digest: the MD5 (hex) of its canonical ASCII
    serialization, {!Pdt_pdb.Pdb_digest.of_pdb}.  The build drivers take it
    from bytes they already hold — a unit's cache body, just stored or
    just verified, a group partial, a farm payload — and {!merge}
    computes it for inputs without bytes.  Inputs are sorted by digest
    first.  The merge is first-wins for same-key entities, so input order
    decides the output bytes, and the digest order makes that order a
    function of the inputs' content, not of how the caller listed them.

    An entity's output id is its key's rank within its kind, over the
    distinct keys of all inputs.  Each item's key is computed once, in its
    own input, and each reference is rewritten once, straight to that
    rank; the unioned reference lists (file includes, namespace members,
    class member functions) come out sorted.  A partial merge keeps every
    key of its inputs, so the ranks, and with them every id, are the same
    however the inputs are grouped.  For mutually consistent inputs —
    duplicates equal up to ids, or declaration/definition pairs, as under
    the one-definition rule — merging the partial merges of any partition
    therefore yields the same bytes as one flat merge, which is what lets
    the incremental driver splice cached group partials and still match a
    from-scratch build exactly.  A digest that is not its PDB's could
    reorder inputs where same-key entities conflict, so the bytes must be
    that PDB's canonical ASCII. *)
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
  (* pass 1: key every item in its own input and rank the kind's distinct
     keys; returns one empty slot per output id and, per input, the map
     from its local ids to output ids *)
  let rank items id key =
    (* each distinct key gets a slot on first sight, each item its key's slot *)
    let slots = Hashtbl.create 256 and keys = ref [] in
    let slot k =
      match Hashtbl.find_opt slots k with
      | Some s -> s
      | None ->
          let s = Hashtbl.length slots in
          Hashtbl.add slots k s;
          keys := k :: !keys;
          s
    in
    let keyed =
      List.map (fun p -> List.map (fun x -> (id x, slot (key p x))) (items p)) pdbs
    in
    let keys = Array.of_list (List.rev !keys) in
    let by_key = Array.init (Array.length keys) Fun.id in
    Array.sort (fun a b -> String.compare keys.(a) keys.(b)) by_key;
    let ranks = Array.make (Array.length keys) 0 in
    Array.iteri (fun r s -> ranks.(s) <- r + 1) by_key;
    let local l =
      let map = idmap (List.length l) in
      List.iter (fun (i, s) -> idmap_add map i ranks.(s)) l;
      map
    in
    (Array.make (Array.length keys + 1) None, Array.of_list (List.map local keyed))
  in
  let mfiles, fmaps = rank (fun p -> p.P.files) (fun f -> f.P.so_id) (fun _ -> file_key) in
  let mnamespaces, nmaps =
    rank (fun p -> p.P.namespaces) (fun n -> n.P.na_id) namespace_key
  in
  let mtemplates, temaps =
    rank (fun p -> p.P.templates) (fun te -> te.P.te_id) template_key
  in
  let mclasses, cmaps = rank (fun p -> p.P.classes) (fun c -> c.P.cl_id) class_key in
  let mroutines, rmaps = rank (fun p -> p.P.routines) (fun r -> r.P.ro_id) routine_key in
  let mtypes, tymaps = rank (fun p -> p.P.types) (fun ty -> ty.P.ty_id) type_key in
  let mmacros, mmaps =
    rank (fun p -> p.P.pdb_macros) (fun m -> m.P.ma_id) (fun _ -> macro_key)
  in
  List.iteri
    (fun i (pdb : P.t) ->
      let fmap = fmaps.(i) and nmap = nmaps.(i) and temap = temaps.(i) in
      let cmap = cmaps.(i) and rmap = rmaps.(i) and tymap = tymaps.(i) in
      let mmap = mmaps.(i) in
      (* pass 2: rewrite and merge *)
      let remap_loc (l : P.loc) =
        if l.P.lfile = 0 then l
        else
          match find fmap l.P.lfile with
          | 0 -> P.null_loc
          | f -> { l with P.lfile = f }
      in
      let remap_extent (e : P.extent) =
        { P.hstart = remap_loc e.P.hstart; hstop = remap_loc e.P.hstop;
          bstart = remap_loc e.P.bstart; bstop = remap_loc e.P.bstop }
      in
      let remap_typeref = function
        | P.Tyref id -> P.Tyref (find tymap id)
        | P.Clref id -> P.Clref (find cmap id)
      in
      let remap_parent = function
        | P.Pcl id -> P.Pcl (find cmap id)
        | P.Pna id -> P.Pna (find nmap id)
        | P.Pnone -> P.Pnone
      in
      List.iter
        (fun (f : P.source_file) ->
          let newid = find fmap f.P.so_id in
          let includes = List.filter_map (find_opt fmap) f.P.so_includes in
          match mfiles.(newid) with
          | None ->
              mfiles.(newid) <-
                Some { P.so_id = newid; so_name = f.P.so_name; so_includes = includes }
          | Some existing ->
              List.iter
                (fun i ->
                  if not (List.mem i existing.P.so_includes) then
                    existing.P.so_includes <- existing.P.so_includes @ [ i ])
                includes)
        pdb.P.files;
      List.iter
        (fun (n : P.namespace_item) ->
          let newid = find nmap n.P.na_id in
          let members =
            List.filter_map
              (fun (r : P.itemref) ->
                match r with
                | P.Rcl i -> Option.map (fun i -> P.Rcl i) (find_opt cmap i)
                | P.Rro i -> Option.map (fun i -> P.Rro i) (find_opt rmap i)
                | P.Rna i -> Option.map (fun i -> P.Rna i) (find_opt nmap i)
                | P.Rty i -> Option.map (fun i -> P.Rty i) (find_opt tymap i)
                | P.Rte i -> Option.map (fun i -> P.Rte i) (find_opt temap i)
                | P.Rso i -> Option.map (fun i -> P.Rso i) (find_opt fmap i)
                | P.Rma i -> Option.map (fun i -> P.Rma i) (find_opt mmap i))
              n.P.na_members
          in
          match mnamespaces.(newid) with
          | None ->
              mnamespaces.(newid) <-
                Some { n with P.na_id = newid; na_loc = remap_loc n.P.na_loc;
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
          let newid = find temap te.P.te_id in
          if Option.is_none mtemplates.(newid) then
            mtemplates.(newid) <-
              Some { te with P.te_id = newid; te_loc = remap_loc te.P.te_loc;
                te_parent = remap_parent te.P.te_parent;
                te_pos = remap_extent te.P.te_pos })
        pdb.P.templates;
      List.iter
        (fun (c : P.class_item) ->
          let newid = find cmap c.P.cl_id in
          let rewrite () =
            mclasses.(newid) <-
              Some
                { c with P.cl_id = newid; cl_loc = remap_loc c.P.cl_loc;
                  cl_parent = remap_parent c.P.cl_parent;
                  cl_templ = Option.bind c.P.cl_templ (find_opt temap);
                  cl_stempl = Option.bind c.P.cl_stempl (find_opt temap);
                  cl_bases =
                    List.filter_map
                      (fun (a, v, b) -> Option.map (fun b -> (a, v, b)) (find_opt cmap b))
                      c.P.cl_bases;
                  cl_friends =
                    List.filter_map
                      (function
                        | `Cl i -> Option.map (fun i -> `Cl i) (find_opt cmap i)
                        | `Ro i -> Option.map (fun i -> `Ro i) (find_opt rmap i))
                      c.P.cl_friends;
                  cl_funcs =
                    List.filter_map
                      (fun (ro, l) ->
                        Option.map (fun ro -> (ro, remap_loc l)) (find_opt rmap ro))
                      c.P.cl_funcs;
                  cl_members =
                    List.map
                      (fun (m : P.member) ->
                        { m with P.m_loc = remap_loc m.P.m_loc;
                          m_type = remap_typeref m.P.m_type })
                      c.P.cl_members;
                  cl_pos = remap_extent c.P.cl_pos }
          in
          match mclasses.(newid) with
          | None -> rewrite ()
          | Some existing ->
              (* a definition beats a forward declaration: it has an extent
                 (a bare [class X;] has none, even [class X { };] has one) or
                 data members.  Otherwise merge the member-function lists of
                 partial (used-mode) instantiations: a losing class adds only
                 its remapped member functions. *)
              if (existing.P.cl_pos = P.null_extent
                  && remap_extent c.P.cl_pos <> P.null_extent)
                 || (existing.P.cl_members = [] && c.P.cl_members <> [])
              then rewrite ()
              else
                List.iter
                  (fun (ro, l) ->
                    match find rmap ro with
                    | 0 -> ()
                    | ro ->
                        if not (List.mem_assoc ro existing.P.cl_funcs) then
                          existing.P.cl_funcs <- existing.P.cl_funcs @ [ (ro, remap_loc l) ])
                  c.P.cl_funcs)
        pdb.P.classes;
      List.iter
        (fun (r : P.routine_item) ->
          let newid = find rmap r.P.ro_id in
          (* a definition from a later TU completes a declaration; an item
             that is not kept is not rewritten *)
          let keep =
            match mroutines.(newid) with
            | None -> true
            | Some existing -> r.P.ro_defined && not existing.P.ro_defined
          in
          if keep then
            mroutines.(newid) <-
              Some
                { r with P.ro_id = newid; ro_loc = remap_loc r.P.ro_loc;
                  ro_parent = remap_parent r.P.ro_parent;
                  ro_sig = remap_typeref r.P.ro_sig;
                  ro_templ = Option.bind r.P.ro_templ (find_opt temap);
                  ro_calls =
                    List.filter_map
                      (fun (c : P.call) ->
                        Option.map
                          (fun callee ->
                            { c with P.c_callee = callee; c_loc = remap_loc c.P.c_loc })
                          (find_opt rmap c.P.c_callee))
                      r.P.ro_calls;
                  ro_spawns =
                    List.filter_map
                      (fun (s : P.spawn) ->
                        Option.map
                          (fun callee ->
                            { P.sp_callee = callee; sp_loc = remap_loc s.P.sp_loc;
                              sp_join = Option.map remap_loc s.P.sp_join })
                          (find_opt rmap s.P.sp_callee))
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
                  ro_pos = remap_extent r.P.ro_pos })
        pdb.P.routines;
      List.iter
        (fun (ty : P.type_item) ->
          let newid = find tymap ty.P.ty_id in
          if Option.is_none mtypes.(newid) then
            mtypes.(newid) <-
              Some { ty with P.ty_id = newid; ty_loc = remap_loc ty.P.ty_loc;
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
          let newid = find mmap m.P.ma_id in
          if Option.is_none mmacros.(newid) then
            mmacros.(newid) <-
              Some { m with P.ma_id = newid; ma_loc = remap_loc m.P.ma_loc })
        pdb.P.pdb_macros)
    pdbs;
  (* each kind in id order; the unioned reference lists are sorted, so
     they do not depend on which input contributed first *)
  let emit merged = List.filter_map Fun.id (Array.to_list merged) in
  out.P.files <- emit mfiles;
  out.P.namespaces <- emit mnamespaces;
  out.P.templates <- emit mtemplates;
  out.P.classes <- emit mclasses;
  out.P.routines <- emit mroutines;
  out.P.types <- emit mtypes;
  out.P.pdb_macros <- emit mmacros;
  List.iter
    (fun (f : P.source_file) -> f.P.so_includes <- List.sort compare f.P.so_includes)
    out.P.files;
  List.iter
    (fun (n : P.namespace_item) -> n.P.na_members <- List.sort compare n.P.na_members)
    out.P.namespaces;
  List.iter
    (fun (c : P.class_item) -> c.P.cl_funcs <- List.sort compare c.P.cl_funcs)
    out.P.classes;
  out

(** {!merge_digested} for PDBs held without their bytes: each input's
    digest is taken by serializing it. *)
let merge (pdbs : P.t list) : P.t =
  merge_digested (List.map (fun p -> (Pdt_pdb.Pdb_digest.of_pdb p, p)) pdbs)
