(** DUCTAPE: the program Database Utilities and Conversion Tools APplication
    Environment (paper §3.3) — the API tools use to navigate PDB files.

    The paper's class hierarchy (Figure 4) is mirrored by {!item} and the
    accessors grouped below by hierarchy level.  A {!t} corresponds to the
    paper's [PDB] class: an indexed, navigable program database. *)

module P = Pdt_pdb.Pdb

type t
(** An indexed program database. *)

(** {1 Loading and saving} *)

val index : P.t -> t
(** Index a parsed PDB for navigation. *)

val pdb : t -> P.t
(** The underlying program database. *)

val of_string : string -> t
(** Parse and index PDB text.  @raise Pdt_pdb.Pdb_parse.Parse_error *)

val of_file : string -> t
(** Read, parse and index a PDB file. *)

val to_string : t -> string
val to_file : t -> string -> unit

(** {1 The item hierarchy (Figure 4)}

    [pdbSimpleItem] (name, id) → [pdbFile] and [pdbItem] (location, parent,
    access) → [pdbMacro], [pdbType] and [pdbFatItem] (header/body extents) →
    [pdbTemplate], [pdbNamespace] and [pdbTemplateItem] (instantiated from a
    template) → [pdbClass], [pdbRoutine]. *)

type item =
  | File of P.source_file
  | Macro of P.macro_item
  | Type of P.type_item
  | Template of P.template_item
  | Namespace of P.namespace_item
  | Class of P.class_item
  | Routine of P.routine_item

val item_id : item -> int
(** pdbSimpleItem: the numeric id within the item's prefix group. *)

val item_prefix : item -> string
(** pdbSimpleItem: the PDB prefix ([so]/[ma]/[ty]/[te]/[na]/[cl]/[ro]). *)

val item_name : t -> item -> string
(** pdbSimpleItem: display name (derived for anonymous types). *)

val item_location : item -> P.loc option
(** pdbItem: source location; [None] for files. *)

val item_parent : item -> P.parentref option
(** pdbItem: enclosing class/namespace; [None] for files. *)

val item_access : item -> string option
(** pdbItem: access in the enclosing class ([pub]/[prot]/[priv]/[NA]). *)

val item_extent : item -> P.extent option
(** pdbFatItem: header and body source ranges. *)

val item_template_of : item -> int option
(** pdbTemplateItem: the [te#] id the item was instantiated from. *)

val is_item : item -> bool
val is_fat_item : item -> bool
val is_template_item : item -> bool

val items : t -> item list
(** Every item in the PDB, grouped in Table 1 order. *)

(** {1 Typed access} *)

val file : t -> int -> P.source_file option
val type_ : t -> int -> P.type_item option
val class_ : t -> int -> P.class_item option
val routine : t -> int -> P.routine_item option
val template : t -> int -> P.template_item option
val namespace : t -> int -> P.namespace_item option
val macro : t -> int -> P.macro_item option

val files : t -> P.source_file list
val types : t -> P.type_item list
val classes : t -> P.class_item list
val routines : t -> P.routine_item list
val templates : t -> P.template_item list
val namespaces : t -> P.namespace_item list
val macros : t -> P.macro_item list

val routine_full_name : t -> P.routine_item -> string
val class_full_name : t -> P.class_item -> string
val typeref_name : t -> P.typeref -> string

(** {1 Navigation} *)

val callees : t -> P.routine_item -> (P.call * P.routine_item) list
(** The routines a routine calls, with per-call-site information (the
    paper's [pdbRoutine::callees], used by Figure 5). *)

val callers : t -> P.routine_item -> P.routine_item list
(** Reverse call graph. *)

val bases : t -> P.class_item -> (string * bool * P.class_item) list
(** Direct bases with (access, virtual?, class). *)

val derived : t -> P.class_item -> P.class_item list

val member_functions : t -> P.class_item -> P.routine_item list

val template_items : t -> item list
(** All template instantiations — the heterogeneous
    [list<pdbTemplateItem>] usage the paper highlights. *)

val instantiations : t -> P.template_item -> item list
(** The instantiations of one template. *)

(** {1 Trees} *)

type 'a tree = { node : 'a; children : 'a tree list }

val include_tree : t -> P.source_file tree list
(** Source-file inclusion forest: one tree per file no other file
    includes, in file order (the main file of a one-unit PDB, every
    translation unit of a merged one), or the first file alone when all
    lie on include cycles; cycles cut. *)

val call_tree : ?root:P.routine_item -> t -> P.routine_item tree option
(** Static call tree (default root: [main]); cycles cut. *)

val class_hierarchy : t -> P.class_item tree list
(** Inheritance forest rooted at base classes. *)

(** {1 Merging} *)

val merge : P.t list -> P.t
(** Merge PDBs from separate compilations into one, eliminating duplicate
    entities — in particular duplicate template instantiations (the engine
    behind pdbmerge, Table 2).  Duplicates complete each other: an undefined
    routine adopts a duplicate's definition (body extent and call list),
    and a forward-declared class adopts its definition.

    The result is canonical: a pure function of the deduplicated content,
    independent of input permutation {e and} of grouping.  Inputs are
    ordered by their content digest (see {!merge_digested}; [merge] takes
    each input's digest by serializing it), and an entity's output id is
    its key's rank within its kind.  Grouping cannot move a rank: a
    partial merge keeps every key of its inputs.  Consequently
    [merge [merge xs; merge ys]] serializes to the same bytes as
    [merge (xs @ ys)] for mutually consistent inputs — the incremental
    build driver's cached group partials (see {!Pdt_build}) rely on this —
    and the merge is idempotent up to normalization: [merge [merge ps]]
    serializes identically to [merge ps]. *)

val merge_digested : (string * P.t) list -> P.t
(** {!merge} for inputs whose digest the caller already holds: each pair
    is a PDB and {!Pdt_pdb.Pdb_digest.of_pdb} of it, the MD5 (hex) of its
    canonical ASCII.  The build drivers take it from ASCII bytes already
    in hand — a cache body just stored or just verified, a group partial,
    a farm payload — instead of serializing every input again.  The sort
    by digest stays: the merge is first-wins for same-key entities, so
    input order decides the output bytes, and sorting by content makes
    that order independent of how the caller listed the inputs.  A digest
    that is not its PDB's may change the output where same-key entities
    conflict. *)
