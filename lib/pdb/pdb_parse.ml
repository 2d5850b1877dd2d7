(** PDB deserialization: parses the ASCII format written by {!Pdb_write}.

    The parser walks the source once, line by line, building each item in
    place as its attribute lines stream by, on one of two paths:

    - {e canonical}: a line spelled as {!Pdb_write} spells it (a lowercase
      key, one blank before each field, plain decimal numbers of at most
      18 digits, nothing blank at either end) is read in one pass.  The
      key is scanned once and dispatched on, and a per-parse cursor reads
      the value straight into the item under construction: ids,
      locations, extents, the [rcall]/[cfunc]/[cbase]/[yargt] fields and
      [rduuse] reach specs without a substring, a template or macro text
      with no backslash copied whole.  The path writes nothing into the
      item before it has read the whole line.
    - {e general}: any other line (a CR, a tab, extra blanks, a signed,
      hex, underscored or over-long integer, a missing or extra field, a
      rare key, an error) is re-read from its start: trimmed, split into
      fields on blanks, accepted as the reference parser accepts it.

    Names and enumerated values ([rlink C++]) are interned in
    {!Pdt_util.Intern}, so the repeats across a project's PDBs are
    shared.  No state outlives a call: the build pool parses cache
    entries on several domains.

    The result is structurally identical to the reference parser's
    ({!Pdb_parse_ref}), and so are [Parse_error] lines and messages,
    including its two-pass order: it validates structure (item-id syntax,
    attributes inside blocks) over the whole file before it interprets any
    attribute, so a structural error on a late line wins over a semantic
    error on an early one.  This parser defers the first semantic error
    and continues with a structure-only scan; [test_pdb.ml] pins both
    behaviors against the reference. *)

open Pdb

exception Parse_error of int * string
(** line number, message *)

(* A semantic ("pass 2") error, deferred so that structural ("pass 1")
   errors further down the file keep winning, as in the reference parser. *)
exception Pass2 of exn

(* A line the canonical path does not read; the general path re-reads it. *)
exception Slow

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt
let fail2 lineno fmt = Printf.ksprintf (fun m -> raise (Pass2 (Parse_error (lineno, m)))) fmt

let sub src s e = String.sub src s (e - s)

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* int_of_string_opt over src[s,e): signs, 0x/0o/0b and underscores
   included *)
let int_of_sub src s e = int_of_string_opt (sub src s e)

let rec same_from src s lit i n =
  i >= n
  || (String.unsafe_get src (s + i) = String.unsafe_get lit i && same_from src s lit (i + 1) n)

(* does src[s,e) equal lit? *)
let word_is src s e lit =
  let n = String.length lit in
  e - s = n && same_from src s lit 0 n

(* ------------------------------------------------------------------ *)
(* The general path: fields split on blanks                            *)
(* ------------------------------------------------------------------ *)

(* split "so#12" at src[s,e) into the '#' position and the numeric id.
   [structural] selects immediate vs deferred failure (header lines are
   validated structurally; ids inside attribute values are semantic). *)
let split_id_at ~structural src lineno s e =
  let bad () =
    let m = Printf.sprintf "malformed item id '%s'" (sub src s e) in
    if structural then raise (Parse_error (lineno, m))
    else raise (Pass2 (Parse_error (lineno, m)))
  in
  let rec hash i =
    if i >= e then -1 else if String.unsafe_get src i = '#' then i else hash (i + 1)
  in
  match hash s with
  | -1 -> bad ()
  | h -> (
      match int_of_sub src (h + 1) e with
      | Some n -> (h, n)
      | None -> bad ())

let parse_typeref src ln s e =
  let h, n = split_id_at ~structural:false src ln s e in
  if word_is src s h "ty" then Tyref n
  else if word_is src s h "cl" then Clref n
  else fail2 ln "expected type reference, got '%s#'" (sub src s h)

let parse_parentref src ln s e =
  let h, n = split_id_at ~structural:false src ln s e in
  if word_is src s h "cl" then Pcl n
  else if word_is src s h "na" then Pna n
  else fail2 ln "expected parent reference, got '%s#'" (sub src s h)

let parse_itemref src ln s e =
  let h, n = split_id_at ~structural:false src ln s e in
  if word_is src s h "so" then Rso n
  else if word_is src s h "ro" then Rro n
  else if word_is src s h "cl" then Rcl n
  else if word_is src s h "ty" then Rty n
  else if word_is src s h "te" then Rte n
  else if word_is src s h "na" then Rna n
  else if word_is src s h "ma" then Rma n
  else fail2 ln "unknown item prefix '%s'" (sub src s h)

(* Space-separated fields of src[s,e), with String.split_on_char
   semantics: consecutive separators yield empty fields, and an empty
   region yields one empty field.  [next_field] reports the field bounds
   through the mutable [fs]/[fe] slots rather than an option so the
   per-field cost is zero allocations. *)
type fields = {
  fsrc : string;
  mutable fpos : int;
  flim : int;
  mutable fdone : bool;
  mutable fs : int;  (* start of the field just read *)
  mutable fe : int;  (* end of the field just read *)
}

let fields src s e = { fsrc = src; fpos = s; flim = e; fdone = false; fs = 0; fe = 0 }

let next_field f =
  if f.fdone then false
  else begin
    let s = f.fpos in
    let rec stop i =
      if i >= f.flim || String.unsafe_get f.fsrc i = ' ' then i else stop (i + 1)
    in
    let e = stop s in
    if e >= f.flim then f.fdone <- true else f.fpos <- e + 1;
    f.fs <- s;
    f.fe <- e;
    true
  end

(* A location from its three field ranges: "so#3 12 7", or "NULL" and
   any two fields. *)
let loc_of_ranges src ln a a' b b' c c' =
  if word_is src a a' "NULL" then null_loc
  else
    let h, fid = split_id_at ~structural:false src ln a a' in
    if word_is src a h "so" then
      match (int_of_sub src b b', int_of_sub src c c') with
      | Some l, Some col -> { lfile = fid; lline = l; lcol = col }
      | _ -> fail2 ln "malformed location"
    else fail2 ln "malformed location"

(* "so#3 12 7" or "NULL 0 0" from a field stream: consumes exactly three
   fields; fewer is "truncated location".  Extra fields after a
   single-location value are ignored, as the reference parser ignores
   them. *)
let parse_loc_fields src ln fl =
  if not (next_field fl) then fail2 ln "truncated location";
  let a = fl.fs and a' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  let b = fl.fs and b' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  let c = fl.fs and c' = fl.fe in
  loc_of_ranges src ln a a' b b' c c'

let parse_loc_value src ln s e = parse_loc_fields src ln (fields src s e)

let parse_extent_value src ln s e =
  let fl = fields src s e in
  let hstart = parse_loc_fields src ln fl in
  let hstop = parse_loc_fields src ln fl in
  let bstart = parse_loc_fields src ln fl in
  let bstop = parse_loc_fields src ln fl in
  { hstart; hstop; bstart; bstop }

(* ------------------------------------------------------------------ *)
(* The canonical path: a cursor over the writer's spelling             *)
(* ------------------------------------------------------------------ *)

(* One per parse.  Every reader raises [Slow] at the first byte the
   writer would not have put there. *)
type cursor = { s : string; n : int; mutable p : int }

(* the byte under the cursor; the end of input reads as a line end *)
let peek c = if c.p < c.n then String.unsafe_get c.s c.p else '\n'
let skip c ch = if peek c = ch then c.p <- c.p + 1 else raise Slow
let eol c = if peek c <> '\n' then raise Slow

(* [x], once the line has ended right after it *)
let fin c x = eol c; x

let lit c w =
  let k = String.length w in
  if c.p + k <= c.n && word_is c.s c.p (c.p + k) w then c.p <- c.p + k
  else raise Slow

let rec digits c s i acc =
  match if i < c.n && i - s < 18 then String.unsafe_get c.s i else ' ' with
  | '0' .. '9' as ch -> digits c s (i + 1) ((acc * 10) + Char.code ch - 48)
  | _ -> if i = s then raise Slow else (c.p <- i; acc)

(* 1 to 18 plain digits: no sign, base prefix or '_', and too few to
   overflow, so int_of_string would read the same value *)
let uint c = digits c c.p c.p 0

(* "pq#<uint>" *)
let id c p q = skip c p; skip c q; skip c '#'; uint c

let loc c =
  if peek c = 'N' then (lit c "NULL 0 0"; null_loc)
  else begin
    let lfile = id c 's' 'o' in
    skip c ' ';
    let lline = uint c in
    skip c ' ';
    let lcol = uint c in
    { lfile; lline; lcol }
  end

let extent c =
  let hstart = loc c in
  skip c ' ';
  let hstop = loc c in
  skip c ' ';
  let bstart = loc c in
  skip c ' ';
  let bstop = loc c in
  { hstart; hstop; bstart; bstop }

let typeref c =
  match peek c with
  | 't' -> Tyref (id c 't' 'y')
  | 'c' -> Clref (id c 'c' 'l')
  | _ -> raise Slow

let parentref c =
  match peek c with
  | 'c' -> Pcl (id c 'c' 'l')
  | 'n' -> Pna (id c 'n' 'a')
  | _ -> raise Slow

(* the call and base-class flag: "virt" or "no" *)
let virt c = if peek c = 'v' then (lit c "virt"; true) else (lit c "no"; false)

let rec line_end src n i =
  if i < n && String.unsafe_get src i <> '\n' then line_end src n (i + 1) else i

let rec key_end src n i =
  if i < n && (match String.unsafe_get src i with 'a' .. 'z' -> true | _ -> false)
  then key_end src n (i + 1)
  else i

(* a field up to the next blank: returns its start *)
let token c =
  let s = c.p in
  while c.p < c.n && (match String.unsafe_get c.s c.p with ' ' | '\n' -> false | _ -> true) do
    c.p <- c.p + 1
  done;
  if c.p = s then raise Slow;
  s

(* The rest of the line, which must not end in a blank: returns its
   start and leaves the cursor at its end.  The key before it is never
   empty, so the byte before the end is the line's. *)
let rest c =
  let s = c.p in
  c.p <- line_end c.s c.n s;
  if is_space (String.unsafe_get c.s (c.p - 1)) then raise Slow;
  s

let rec has_backslash src i e =
  i < e && (String.unsafe_get src i = '\\' || has_backslash src (i + 1) e)

(* an rduuse reach spec, as du_use_of_spec reads it: "-", or definition
   indices and "u" joined by ',' *)
let rec reach c l acc uninit =
  let u = peek c = 'u' in
  let acc = if u then (c.p <- c.p + 1; acc) else uint c :: acc in
  let uninit = uninit || u in
  if peek c = ',' then (c.p <- c.p + 1; reach c l acc uninit)
  else { u_loc = l; u_reach = List.rev acc; u_uninit = uninit }

let use c l =
  if peek c = '-' then (c.p <- c.p + 1; { u_loc = l; u_reach = []; u_uninit = false })
  else reach c l [] false

(* ------------------------------------------------------------------ *)
(* Items under construction                                            *)
(* ------------------------------------------------------------------ *)

(* Accumulator for a ty item's kind-dependent attributes; ty_info is
   assembled when the block ends, as the reference parser does. *)
type ty_acc = {
  mutable a_kind : string;
  mutable a_ikind : string;
  mutable a_target : typeref;
  mutable a_const : bool;
  mutable a_vol : bool;
  mutable a_elem : typeref;
  mutable a_size : int option;
  mutable a_rett : typeref;
  mutable a_args : (typeref * bool) list;  (* reversed *)
  mutable a_ellip : bool;
  mutable a_excep : typeref list option;
  mutable a_cons : (string * int64) list;  (* reversed *)
  mutable a_names : string list;           (* reversed *)
}

(* A routine's pending [rdu] variable and a class's pending [cmem]
   member, filled in place line by line and made records when the next
   one opens or the item ends. *)
type du_acc = {
  mutable du_open : bool;
  mutable du_name : string;
  mutable du_defs : loc list;     (* reversed *)
  mutable du_uses : du_use list;  (* reversed *)
}

type mem_acc = {
  mutable mem_open : bool;
  mutable mem_name : string;
  mutable mem_loc : loc;
  mutable mem_acs : string;
  mutable mem_kind : string;
  mutable mem_type : typeref;
  mutable mem_static : bool;
  mutable mem_mutable : bool;
}

let flush_du r d =
  if d.du_open then begin
    r.ro_du <-
      { v_name = d.du_name; v_defs = List.rev d.du_defs; v_uses = List.rev d.du_uses }
      :: r.ro_du;
    d.du_open <- false;
    d.du_defs <- [];
    d.du_uses <- []
  end

let open_du r d name =
  flush_du r d;
  d.du_open <- true;
  d.du_name <- name

let flush_mem c m =
  if m.mem_open then begin
    c.cl_members <-
      { m_name = m.mem_name; m_loc = m.mem_loc; m_acs = m.mem_acs; m_kind = m.mem_kind;
        m_type = m.mem_type; m_static = m.mem_static; m_mutable = m.mem_mutable }
      :: c.cl_members;
    m.mem_open <- false
  end

let open_mem c m name =
  flush_mem c m;
  m.mem_open <- true;
  m.mem_name <- name;
  m.mem_loc <- null_loc;
  m.mem_acs <- "NA";
  m.mem_kind <- "var";
  m.mem_type <- Tyref 0;
  m.mem_static <- false;
  m.mem_mutable <- false

(* The item under construction.  List-valued fields accumulate reversed
   (constant-time prepend) and are reversed once when the block ends. *)
type building =
  | Bso of source_file
  | Bna of namespace_item
  | Bte of template_item
  | Bro of routine_item * du_acc
  | Bcl of class_item * mem_acc
  | Bty of type_item * ty_acc
  | Bma of macro_item

(* the item a "prefix#id name" header opens; the prefix is src[hs,h) *)
let new_item src ln hs h id nm =
  if word_is src hs h "so" then Bso { so_id = id; so_name = nm; so_includes = [] }
  else if word_is src hs h "na" then
    Bna { na_id = id; na_name = nm; na_loc = null_loc; na_parent = Pnone;
          na_members = []; na_alias = None }
  else if word_is src hs h "te" then
    Bte { te_id = id; te_name = nm; te_loc = null_loc; te_parent = Pnone;
          te_acs = "NA"; te_kind = "class"; te_text = ""; te_pos = null_extent }
  else if word_is src hs h "ro" then
    Bro
      ({ ro_id = id; ro_name = nm; ro_loc = null_loc; ro_parent = Pnone;
         ro_acs = "NA"; ro_sig = Tyref 0; ro_link = "C++"; ro_store = "NA";
         ro_virt = "no"; ro_kind = "NA"; ro_static = false; ro_inline = false;
         ro_templ = None; ro_calls = []; ro_spawns = []; ro_du = [];
         ro_pos = null_extent; ro_defined = false },
       { du_open = false; du_name = ""; du_defs = []; du_uses = [] })
  else if word_is src hs h "cl" then
    Bcl
      ({ cl_id = id; cl_name = nm; cl_loc = null_loc; cl_kind = "class";
         cl_parent = Pnone; cl_acs = "NA"; cl_templ = None; cl_stempl = None;
         cl_bases = []; cl_friends = []; cl_funcs = []; cl_members = [];
         cl_pos = null_extent },
       { mem_open = false; mem_name = ""; mem_loc = null_loc; mem_acs = "NA";
         mem_kind = "var"; mem_type = Tyref 0; mem_static = false; mem_mutable = false })
  else if word_is src hs h "ty" then
    Bty
      ({ ty_id = id; ty_name = nm; ty_loc = null_loc; ty_parent = Pnone;
         ty_acs = "NA"; ty_info = Yerror; ty_names = [] },
       { a_kind = ""; a_ikind = ""; a_target = Tyref 0; a_const = false;
         a_vol = false; a_elem = Tyref 0; a_size = None; a_rett = Tyref 0;
         a_args = []; a_ellip = false; a_excep = None; a_cons = [];
         a_names = [] })
  else if word_is src hs h "ma" then
    Bma { ma_id = id; ma_name = nm; ma_kind = "def"; ma_text = ""; ma_loc = null_loc }
  else fail2 ln "unknown item prefix '%s'" (sub src hs h)

let of_string (src : string) : t =
  (* injection site for parse-time corruption drills: raising (rather than
     mangling [src], which could yield a silently-wrong parse) keeps the
     fault visible as a transient the cache/build layers must absorb *)
  Pdt_util.Fault.check "pdb.parse";
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.parse" @@ fun () ->
  (* canonical copy of src[s,e); allocation-free when already pooled *)
  let intern_sub s e = Pdt_util.Intern.intern_sub src s (e - s) in
  let len = String.length src in
  let t = create () in
  let files = ref [] and types = ref [] and classes = ref [] in
  let routines = ref [] and templates = ref [] and namespaces = ref [] in
  let macros = ref [] in
  let cur : building option ref = ref None in
  let deferred : exn option ref = ref None in
  (* once [deferred] is set we keep scanning structure only; [in_block]
     replaces [cur] as the attribute-placement state *)
  let in_block = ref false in
  (* input with no "<PDB" line is not a PDB, even when it is empty *)
  let seen_header = ref false in
  let finalize () =
    (match !cur with
     | None -> ()
     | Some b ->
         (match b with
          | Bso f ->
              f.so_includes <- List.rev f.so_includes;
              files := f :: !files
          | Bna n ->
              n.na_members <- List.rev n.na_members;
              namespaces := n :: !namespaces
          | Bte te -> templates := te :: !templates
          | Bro (r, d) ->
              flush_du r d;
              r.ro_calls <- List.rev r.ro_calls;
              r.ro_spawns <- List.rev r.ro_spawns;
              r.ro_du <- List.rev r.ro_du;
              routines := r :: !routines
          | Bcl (c, m) ->
              flush_mem c m;
              c.cl_bases <- List.rev c.cl_bases;
              c.cl_friends <- List.rev c.cl_friends;
              c.cl_funcs <- List.rev c.cl_funcs;
              c.cl_members <- List.rev c.cl_members;
              classes := c :: !classes
          | Bty (ty, a) ->
              ty.ty_info <-
                (match a.a_kind with
                 | "ptr" -> Yptr a.a_target
                 | "ref" -> Yref a.a_target
                 | "tref" ->
                     Ytref { target = a.a_target; yconst = a.a_const; yvolatile = a.a_vol }
                 | "array" -> Yarray { elem = a.a_elem; size = a.a_size }
                 | "func" ->
                     Yfunc { rett = a.a_rett; args = List.rev a.a_args;
                             ellipsis = a.a_ellip; cqual = a.a_const;
                             exceptions = a.a_excep }
                 | "enum" -> Yenum { constants = List.rev a.a_cons }
                 | "tparam" -> Ytparam
                 | "error" -> Yerror
                 | _ -> Ybuiltin { yikind = a.a_ikind });
              ty.ty_names <- List.rev a.a_names;
              types := ty :: !types
          | Bma m -> macros := m :: !macros);
         cur := None);
    in_block := false
  in
  (* The line under way.  On the canonical path ([fast]) the cursor [c]
     reads its value; on the general path the value is src[vs,ve). *)
  let c = { s = src; n = len; p = 0 } in
  let fast = ref false and lnr = ref 0 and vs = ref 0 and ve = ref 0 in
  (* Value readers, one per shape: the canonical reader, else the
     general one.  [slow ()] hands a line the canonical path does not
     read to the general path. *)
  let slow () = if !fast then raise Slow in
  let value () = if !fast then (vs := rest c; ve := c.p) in
  let name_v () = value (); intern_sub !vs !ve in
  let text_v () =
    value ();
    let v = sub src !vs !ve in
    if has_backslash src !vs !ve then Pdb_write.unescape_text v else v
  in
  let flag_v () = if !fast then eol c in
  let loc_v () = if !fast then fin c (loc c) else parse_loc_value src !lnr !vs !ve in
  let extent_v () =
    if !fast then fin c (extent c) else parse_extent_value src !lnr !vs !ve
  in
  let typeref_v () = if !fast then fin c (typeref c) else parse_typeref src !lnr !vs !ve in
  let parent_v () = if !fast then fin c (parentref c) else parse_parentref src !lnr !vs !ve in
  (* "te#7" and the like: the id after the prefix [p][q], else [what] *)
  let id_v p q what =
    if !fast then fin c (id c p q)
    else
      let h, n = split_id_at ~structural:false src !lnr !vs !ve in
      if h - !vs = 2 && src.[!vs] = p && src.[!vs + 1] = q then n else fail2 !lnr "%s" what
  in
  (* one attribute line, dispatched against the current item; the key is
     src[ks,ke).  For the high-volume kinds (ro/cl/ty) the key's second
     character narrows the linear [key] chain to one or two candidates;
     [key] still verifies the whole word, so near-misses fall through to
     [unknown]. *)
  let key_s = ref 0 and key_e = ref 0 in
  let key lit = word_is src !key_s !key_e lit in
  let unknown what =
    slow ();
    fail2 !lnr "unknown %s attribute '%s'" what (sub src !key_s !key_e)
  in
  let attribute ks ke =
    key_s := ks;
    key_e := ke;
    let ln = !lnr in
    let c2 = if ke - ks >= 2 then String.unsafe_get src (ks + 1) else '\000' in
    match !cur with
    | None -> slow (); fail ln "attribute '%s' outside of an item block" (sub src ks ke)
    | Some (Bso f) ->
        if key "sinc" then
          f.so_includes <- id_v 's' 'o' "sinc expects so# reference" :: f.so_includes
        else unknown "so"
    | Some (Bna n) ->
        if key "nloc" then n.na_loc <- loc_v ()
        else if key "nparent" then n.na_parent <- parent_v ()
        else if key "nmem" then (
          slow ();
          n.na_members <- parse_itemref src ln !vs !ve :: n.na_members)
        else if key "nalias" then n.na_alias <- Some (name_v ())
        else unknown "na"
    | Some (Bte te) ->
        if key "tloc" then te.te_loc <- loc_v ()
        else if key "tparent" then te.te_parent <- parent_v ()
        else if key "tacs" then te.te_acs <- name_v ()
        else if key "tkind" then te.te_kind <- name_v ()
        else if key "ttext" then te.te_text <- text_v ()
        else if key "tpos" then te.te_pos <- extent_v ()
        else unknown "te"
    | Some (Bro (r, d)) -> (
        match c2 with
        | 'l' ->
            if key "rloc" then r.ro_loc <- loc_v ()
            else if key "rlink" then r.ro_link <- name_v ()
            else unknown "ro"
        | 'c' ->
            if key "rclass" then r.ro_parent <- parent_v ()
            else if key "rcall" then
              if !fast then begin
                let c_callee = id c 'r' 'o' in
                skip c ' ';
                let c_virt = virt c in
                skip c ' ';
                let c_loc = fin c (loc c) in
                r.ro_calls <- { c_callee; c_virt; c_loc } :: r.ro_calls
              end
              else begin
                let fl = fields src !vs !ve in
                if not (next_field fl) then fail2 ln "malformed rcall";
                let a = fl.fs and a' = fl.fe in
                if not (next_field fl) then fail2 ln "malformed rcall";
                let b = fl.fs and b' = fl.fe in
                let h, callee = split_id_at ~structural:false src ln a a' in
                if word_is src a h "ro" then begin
                  let l = parse_loc_fields src ln fl in
                  r.ro_calls <-
                    { c_callee = callee; c_virt = word_is src b b' "virt"; c_loc = l }
                    :: r.ro_calls
                end
                else fail2 ln "rcall expects ro# reference"
              end
            else unknown "ro"
        | 'n' -> if key "rnspace" then r.ro_parent <- parent_v () else unknown "ro"
        | 'a' -> if key "racs" then r.ro_acs <- name_v () else unknown "ro"
        | 's' ->
            if key "rsig" then r.ro_sig <- typeref_v ()
            else if key "rstore" then r.ro_store <- name_v ()
            else if key "rstatic" then (flag_v (); r.ro_static <- true)
            else if key "rspawn" then begin
              slow ();
              let fl = fields src !vs !ve in
              if not (next_field fl) then fail2 ln "malformed rspawn";
              let a = fl.fs and a' = fl.fe in
              let h, callee = split_id_at ~structural:false src ln a a' in
              if not (word_is src a h "ro") then
                fail2 ln "rspawn expects ro# reference";
              let l = parse_loc_fields src ln fl in
              if not (next_field fl) then fail2 ln "malformed rspawn";
              let j =
                if word_is src fl.fs fl.fe "joined" then
                  Some (parse_loc_fields src ln fl)
                else if word_is src fl.fs fl.fe "live" then None
                else fail2 ln "rspawn expects 'joined <loc>' or 'live'"
              in
              r.ro_spawns <-
                { sp_callee = callee; sp_loc = l; sp_join = j } :: r.ro_spawns
            end
            else unknown "ro"
        | 'v' -> if key "rvirt" then r.ro_virt <- name_v () else unknown "ro"
        | 'k' -> if key "rkind" then r.ro_kind <- name_v () else unknown "ro"
        | 'i' -> if key "rinline" then (flag_v (); r.ro_inline <- true) else unknown "ro"
        | 't' ->
            if key "rtempl" then
              r.ro_templ <- Some (id_v 't' 'e' "rtempl expects te# reference")
            else unknown "ro"
        | 'd' ->
            if key "rdef" then (flag_v (); r.ro_defined <- true)
            else if key "rdu" then open_du r d (name_v ())
            else if key "rdudef" || key "rduuse" then begin
              if not d.du_open then (slow (); fail2 ln "define-use attribute without rdu");
              if key "rdudef" then d.du_defs <- loc_v () :: d.du_defs
              else if !fast then begin
                let l = loc c in
                skip c ' ';
                d.du_uses <- fin c (use c l) :: d.du_uses
              end
              else begin
                let fl = fields src !vs !ve in
                let l = parse_loc_fields src ln fl in
                if not (next_field fl) then fail2 ln "malformed rduuse";
                match du_use_of_spec (sub src fl.fs fl.fe) with
                | None -> fail2 ln "malformed rduuse reach spec"
                | Some (reach, uninit) ->
                    d.du_uses <- { u_loc = l; u_reach = reach; u_uninit = uninit } :: d.du_uses
              end
            end
            else unknown "ro"
        | 'p' -> if key "rpos" then r.ro_pos <- extent_v () else unknown "ro"
        | _ -> unknown "ro")
    | Some (Bcl (cl, m)) -> (
        match c2 with
        | 'l' -> if key "cloc" then cl.cl_loc <- loc_v () else unknown "cl"
        | 'k' -> if key "ckind" then cl.cl_kind <- name_v () else unknown "cl"
        | 'p' ->
            if key "cparent" then cl.cl_parent <- parent_v ()
            else if key "cpos" then cl.cl_pos <- extent_v ()
            else unknown "cl"
        | 'a' -> if key "cacs" then cl.cl_acs <- name_v () else unknown "cl"
        | 't' ->
            if key "ctempl" then
              cl.cl_templ <- Some (id_v 't' 'e' "ctempl expects te# reference")
            else unknown "cl"
        | 's' ->
            if key "cstempl" then
              cl.cl_stempl <- Some (id_v 't' 'e' "cstempl expects te# reference")
            else unknown "cl"
        | 'b' ->
            if key "cbase" then
              if !fast then begin
                let s = token c in
                let acs = intern_sub s c.p in
                skip c ' ';
                let v = virt c in
                skip c ' ';
                let b = fin c (id c 'c' 'l') in
                cl.cl_bases <- (acs, v, b) :: cl.cl_bases
              end
              else begin
                let fl = fields src !vs !ve in
                if not (next_field fl) then fail2 ln "malformed cbase";
                let a = fl.fs and a' = fl.fe in
                if not (next_field fl) then fail2 ln "malformed cbase";
                let b = fl.fs and b' = fl.fe in
                if not (next_field fl) then fail2 ln "malformed cbase";
                let g = fl.fs and g' = fl.fe in
                if next_field fl then fail2 ln "malformed cbase";
                let h, base = split_id_at ~structural:false src ln g g' in
                if word_is src g h "cl" then
                  cl.cl_bases <-
                    (intern_sub a a', word_is src b b' "virt", base) :: cl.cl_bases
                else fail2 ln "cbase expects cl# reference"
              end
            else unknown "cl"
        | 'f' ->
            if key "cfriend" then begin
              slow ();
              let h, n = split_id_at ~structural:false src ln !vs !ve in
              if word_is src !vs h "cl" then cl.cl_friends <- `Cl n :: cl.cl_friends
              else if word_is src !vs h "ro" then cl.cl_friends <- `Ro n :: cl.cl_friends
              else fail2 ln "cfriend expects cl# or ro#"
            end
            else if key "cfunc" then
              if !fast then begin
                let ro = id c 'r' 'o' in
                skip c ' ';
                let l = fin c (loc c) in
                cl.cl_funcs <- (ro, l) :: cl.cl_funcs
              end
              else begin
                let fl = fields src !vs !ve in
                if not (next_field fl) then fail2 ln "malformed cfunc";
                let a = fl.fs and a' = fl.fe in
                let h, ro = split_id_at ~structural:false src ln a a' in
                if word_is src a h "ro" then begin
                  let l = parse_loc_fields src ln fl in
                  cl.cl_funcs <- (ro, l) :: cl.cl_funcs
                end
                else fail2 ln "cfunc expects ro# reference"
              end
            else unknown "cl"
        | 'm' ->
            if key "cmem" then open_mem cl m (name_v ())
            else if key "cmloc" || key "cmacs" || key "cmkind" || key "cmtype"
                    || key "cmstatic" || key "cmmutable" then begin
              if not m.mem_open then (slow (); fail2 ln "member attribute without cmem");
              if key "cmloc" then m.mem_loc <- loc_v ()
              else if key "cmacs" then m.mem_acs <- name_v ()
              else if key "cmkind" then m.mem_kind <- name_v ()
              else if key "cmtype" then m.mem_type <- typeref_v ()
              else if key "cmstatic" then (flag_v (); m.mem_static <- true)
              else (flag_v (); m.mem_mutable <- true)
            end
            else unknown "cl"
        | _ -> unknown "cl")
    | Some (Bty (ty, a)) -> (
        match c2 with
        | 'l' -> if key "yloc" then ty.ty_loc <- loc_v () else unknown "ty"
        | 'p' ->
            if key "yparent" then ty.ty_parent <- parent_v ()
            else if key "yptr" then a.a_target <- typeref_v ()
            else unknown "ty"
        | 'a' ->
            if key "yacs" then ty.ty_acs <- name_v ()
            else if key "yargt" then
              if !fast then begin
                let r = typeref c in
                let d =
                  peek c = ' '
                  && (c.p <- c.p + 1;
                      if peek c = 'T' then (lit c "T"; true) else (lit c "F"; false))
                in
                a.a_args <- (r, fin c d) :: a.a_args
              end
              else begin
                let fl = fields src !vs !ve in
                if not (next_field fl) then fail2 ln "malformed yargt";
                let r = fl.fs and r' = fl.fe in
                if not (next_field fl) then
                  a.a_args <- (parse_typeref src ln r r', false) :: a.a_args
                else begin
                  let d = fl.fs and d' = fl.fe in
                  if next_field fl then fail2 ln "malformed yargt";
                  let tr = parse_typeref src ln r r' in
                  a.a_args <- (tr, word_is src d d' "T") :: a.a_args
                end
              end
            else unknown "ty"
        | 'k' -> if key "ykind" then a.a_kind <- name_v () else unknown "ty"
        | 'i' -> if key "yikind" then a.a_ikind <- name_v () else unknown "ty"
        | 'r' ->
            if key "yref" then a.a_target <- typeref_v ()
            else if key "yrett" then a.a_rett <- typeref_v ()
            else unknown "ty"
        | 't' -> if key "ytref" then a.a_target <- typeref_v () else unknown "ty"
        | 'q' ->
            if key "yqual" then begin
              value ();
              if word_is src !vs !ve "const" then a.a_const <- true
              else if word_is src !vs !ve "volatile" then a.a_vol <- true
            end
            else unknown "ty"
        | 'e' ->
            if key "yelem" then a.a_elem <- typeref_v ()
            else if key "yellip" then (flag_v (); a.a_ellip <- true)
            else if key "yexcep" then begin
              slow ();
              let fl = fields src !vs !ve in
              let refs = ref [] in
              let rec go () =
                if next_field fl then begin
                  if fl.fe > fl.fs then
                    refs := parse_typeref src ln fl.fs fl.fe :: !refs;
                  go ()
                end
              in
              go ();
              a.a_excep <- Some (List.rev !refs)
            end
            else unknown "ty"
        | 's' ->
            if key "ysize" then
              a.a_size <- (if !fast then Some (fin c (uint c)) else int_of_sub src !vs !ve)
            else unknown "ty"
        | 'c' ->
            if key "ycon" then begin
              slow ();
              let fl = fields src !vs !ve in
              if not (next_field fl) then fail2 ln "malformed ycon";
              let n = fl.fs and n' = fl.fe in
              if not (next_field fl) then fail2 ln "malformed ycon";
              let v = fl.fs and v' = fl.fe in
              if next_field fl then fail2 ln "malformed ycon";
              match Int64.of_string_opt (sub src v v') with
              | Some value -> a.a_cons <- (intern_sub n n', value) :: a.a_cons
              | None -> fail2 ln "malformed ycon value"
            end
            else unknown "ty"
        | 'n' -> if key "yname" then a.a_names <- name_v () :: a.a_names else unknown "ty"
        | _ -> unknown "ty")
    | Some (Bma m) ->
        if key "makind" then m.ma_kind <- name_v ()
        else if key "matext" then m.ma_text <- text_v ()
        else if key "maloc" then m.ma_loc <- loc_v ()
        else unknown "ma"
  in
  (* The general path for the line starting at [ls]: trim it, split off
     the key, and validate structure only once a semantic error is
     pending.  Returns the line's end. *)
  let general ln ls =
    let nl =
      (* index_from, not index_from_opt: memchr speed without the
         per-line [Some] allocation *)
      if ls >= len then len
      else
        match String.index_from src ls '\n' with
        | i -> i
        | exception Not_found -> len
    in
    (* trim the line in place *)
    let s = ref ls and e = ref nl in
    while !s < !e && is_space (String.unsafe_get src !s) do incr s done;
    while !e > !s && is_space (String.unsafe_get src (!e - 1)) do decr e done;
    let s = !s and e = !e in
    if s >= e then finalize ()
    else if e - s > 5 && word_is src s (s + 5) "<PDB " then begin
      set_header t (sub src (s + 5) (e - 1));
      seen_header := true
    end
    else begin
      (* key = up to the first space; value = the rest of the line *)
      let rec sp i = if i >= e || String.unsafe_get src i = ' ' then i else sp (i + 1) in
      let ke = sp s in
      let rec hash i =
        if i >= ke then -1 else if String.unsafe_get src i = '#' then i else hash (i + 1)
      in
      let is_header = hash s >= 0 in
      fast := false;
      lnr := ln;
      vs := (if ke < e then ke + 1 else e);
      ve := e;
      match !deferred with
      | Some _ ->
          (* structure-only continuation: validate ids and placement, as
             the reference parser's first pass does *)
          if is_header then begin
            ignore (split_id_at ~structural:true src ln s ke);
            in_block := true
          end
          else if not !in_block then
            fail ln "attribute '%s' outside of an item block" (sub src s ke)
      | None -> (
          try
            if is_header then begin
              finalize ();
              let h, id = split_id_at ~structural:true src ln s ke in
              cur := Some (new_item src ln s h id (if !vs < e then intern_sub !vs e else ""));
              in_block := true
            end
            else attribute s ke
          with Pass2 err ->
            deferred := Some err;
            cur := None;
            in_block := true)
    end;
    nl
  in
  (* The canonical path for the line starting at [ls]: a blank line, or a
     key of lowercase letters then '#' (an item header), a blank or the
     line end.  Returns the line's end; raises [Slow] (or an unknown
     prefix's [Pass2]) having changed no item. *)
  let canonical ln ls =
    let ke = key_end src len ls in
    c.p <- ke;
    fast := true;
    lnr := ln;
    (match peek c with
     | '\n' when ke = ls -> finalize ()
     | _ when ke = ls -> raise Slow
     | '#' ->
         c.p <- ke + 1;
         let id = uint c in
         let nm = if peek c = ' ' then (c.p <- c.p + 1; name_v ()) else fin c "" in
         let b = new_item src ln ls ke id nm in
         finalize ();
         cur := Some b;
         in_block := true
     | ' ' ->
         c.p <- ke + 1;
         attribute ls ke
     | '\n' -> attribute ls ke
     | _ -> raise Slow);
    c.p
  in
  let pos = ref 0 and lineno = ref 0 in
  while !pos <= len do
    incr lineno;
    let ln = !lineno and ls = !pos in
    let nl =
      match !deferred with
      | None -> ( try canonical ln ls with Slow | Pass2 _ -> general ln ls)
      | Some _ -> general ln ls
    in
    pos := nl + 1
  done;
  (match !deferred with Some err -> raise err | None -> ());
  if not !seen_header then fail 1 "no <PDB header line";
  finalize ();
  t.files <- List.rev !files;
  t.types <- List.rev !types;
  t.classes <- List.rev !classes;
  t.routines <- List.rev !routines;
  t.templates <- List.rev !templates;
  t.namespaces <- List.rev !namespaces;
  t.pdb_macros <- List.rev !macros;
  t

let of_file path : t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
