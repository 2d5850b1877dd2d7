(** PDB deserialization: parses the ASCII format written by {!Pdb_write}.

    A document in the writer's spelling is read here in one pass, line by
    line, building each item in place as its attribute lines stream by.
    That spelling is a ["<PDB version[ incomplete N]>"] first line, then
    lines of a lowercase key and one blank before each field, plain
    decimal numbers of at most 18 digits (a [ysize] may be negative, a
    [ycon] value is anything [Int64.to_string] prints) and nothing blank
    at either end.  The key is scanned once and dispatched on, and a
    per-parse cursor reads the value straight into the item under
    construction: ids, locations, extents and the multi-field values
    without a substring, a template or macro text with no backslash copied
    whole.

    At the first byte the writer would not have put there (a CR, a tab,
    an extra blank, a signed, hex, underscored or over-long integer, a
    missing or extra field, an unknown key, any error) the partial parse
    is dropped, [pdb.parse_fallback] is counted, and the whole document is
    read by {!Pdb_parse_ref}, which reads any spelling.  So the result,
    and every [Parse_error] line and message, is the reference's.

    Names and enumerated values ([rlink C++]) are interned in
    {!Pdt_util.Intern}, so the repeats across a project's PDBs are
    shared.  No state outlives a call: the build pool parses cache
    entries on several domains. *)

open Pdb

exception Parse_error of int * string
(** line number, message *)

(* A byte the writer would not have written; the document goes to
   Pdb_parse_ref. *)
exception Slow

let rec same_from src s lit i n =
  i >= n
  || (String.unsafe_get src (s + i) = String.unsafe_get lit i && same_from src s lit (i + 1) n)

(* does src[s,e) equal lit? *)
let word_is src s e lit =
  let n = String.length lit in
  e - s = n && same_from src s lit 0 n

(* ------------------------------------------------------------------ *)
(* A cursor over the writer's spelling                                 *)
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

(* an [nmem] member: any item kind *)
let itemref c =
  match peek c with
  | 's' -> Rso (id c 's' 'o')
  | 'r' -> Rro (id c 'r' 'o')
  | 'c' -> Rcl (id c 'c' 'l')
  | 't' ->
      if c.p + 1 < c.n && c.s.[c.p + 1] = 'e' then Rte (id c 't' 'e')
      else Rty (id c 't' 'y')
  | 'n' -> Rna (id c 'n' 'a')
  | 'm' -> Rma (id c 'm' 'a')
  | _ -> raise Slow

(* the call and base-class flag: "virt" or "no" *)
let virt c = if peek c = 'v' then (lit c "virt"; true) else (lit c "no"; false)

(* a [ysize]: the writer's only signed integer *)
let signed c = if peek c = '-' then (c.p <- c.p + 1; - uint c) else uint c

(* an enum constant as Int64.to_string prints it: an optional '-', then
   digits that Int64.of_string reads without overflow *)
let int64 c =
  let s = c.p in
  if peek c = '-' then c.p <- c.p + 1;
  let d = c.p in
  while (match peek c with '0' .. '9' -> true | _ -> false) do c.p <- c.p + 1 done;
  if c.p = d then raise Slow;
  match Int64.of_string_opt (String.sub c.s s (c.p - s)) with
  | Some v -> v
  | None -> raise Slow

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
   start and leaves the cursor at its end.  An empty rest is the empty
   value the writer spells "key " (a trimmed line "key" means the same). *)
let rest c =
  let s = c.p in
  c.p <- line_end c.s c.n s;
  if c.p > s
     && (match String.unsafe_get c.s (c.p - 1) with
         | ' ' | '\t' | '\r' | '\012' -> true
         | _ -> false)
  then raise Slow;
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

(* "<PDB 1.1>" or "<PDB 1.1 incomplete 3>", as set_header reads it *)
let header c t =
  lit c "<PDB ";
  let s = c.p in
  while (match peek c with ' ' | '>' | '\n' -> false | _ -> true) do c.p <- c.p + 1 done;
  if c.p = s then raise Slow;
  t.version <- String.sub c.s s (c.p - s);
  if peek c = ' ' then begin
    lit c " incomplete ";
    t.incomplete <- true;
    t.diag_count <- uint c
  end;
  skip c '>';
  eol c

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

(* The item under construction.  A list-valued field accumulates reversed
   (constant-time prepend) and is reversed once when the block ends. *)
type building =
  | Bso of source_file
  | Bna of namespace_item
  | Bte of template_item
  | Bro of routine_item * du_acc
  | Bcl of class_item * mem_acc
  | Bty of type_item * ty_acc
  | Bma of macro_item

(* the item a "prefix#id name" header opens; the prefix is src[hs,h) *)
let new_item src hs h id nm =
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
  else raise Slow

(* The whole document in the writer's spelling, or [Slow]. *)
let read (src : string) : t =
  (* canonical copy of src[s,e); allocation-free when already pooled *)
  let intern_sub s e = Pdt_util.Intern.intern_sub src s (e - s) in
  let len = String.length src in
  let t = create () in
  let files = ref [] and types = ref [] and classes = ref [] in
  let routines = ref [] and templates = ref [] and namespaces = ref [] in
  let macros = ref [] in
  let cur : building option ref = ref None in
  let finalize () =
    match !cur with
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
        cur := None
  in
  let c = { s = src; n = len; p = 0 } in
  (* value readers: each leaves the cursor at the line's end *)
  let name_v () = let s = rest c in intern_sub s c.p in
  let text_v () =
    let s = rest c in
    let v = String.sub src s (c.p - s) in
    if has_backslash src s c.p then Pdb_write.unescape_text v else v
  in
  let loc_v () = fin c (loc c) in
  let extent_v () = fin c (extent c) in
  let typeref_v () = fin c (typeref c) in
  let parent_v () = fin c (parentref c) in
  (* one attribute line, dispatched against the current item; the key is
     src[ks,ke).  For the high-volume kinds (ro/cl/ty) the key's second
     character narrows the linear [key] chain to one or two candidates;
     [key] still verifies the whole word, so near-misses are [Slow]. *)
  let ks = ref 0 and ke = ref 0 in
  let key lit = word_is src !ks !ke lit in
  let attribute () =
    let c2 = if !ke - !ks >= 2 then String.unsafe_get src (!ks + 1) else '\000' in
    match !cur with
    | None -> raise Slow
    | Some (Bso f) ->
        if key "sinc" then f.so_includes <- fin c (id c 's' 'o') :: f.so_includes
        else raise Slow
    | Some (Bna n) ->
        if key "nloc" then n.na_loc <- loc_v ()
        else if key "nparent" then n.na_parent <- parent_v ()
        else if key "nmem" then n.na_members <- fin c (itemref c) :: n.na_members
        else if key "nalias" then n.na_alias <- Some (name_v ())
        else raise Slow
    | Some (Bte te) ->
        if key "tloc" then te.te_loc <- loc_v ()
        else if key "tparent" then te.te_parent <- parent_v ()
        else if key "tacs" then te.te_acs <- name_v ()
        else if key "tkind" then te.te_kind <- name_v ()
        else if key "ttext" then te.te_text <- text_v ()
        else if key "tpos" then te.te_pos <- extent_v ()
        else raise Slow
    | Some (Bro (r, d)) -> (
        match c2 with
        | 'l' ->
            if key "rloc" then r.ro_loc <- loc_v ()
            else if key "rlink" then r.ro_link <- name_v ()
            else raise Slow
        | 'c' ->
            if key "rclass" then r.ro_parent <- parent_v ()
            else if key "rcall" then begin
              let c_callee = id c 'r' 'o' in
              skip c ' ';
              let c_virt = virt c in
              skip c ' ';
              let c_loc = fin c (loc c) in
              r.ro_calls <- { c_callee; c_virt; c_loc } :: r.ro_calls
            end
            else raise Slow
        | 'n' -> if key "rnspace" then r.ro_parent <- parent_v () else raise Slow
        | 'a' -> if key "racs" then r.ro_acs <- name_v () else raise Slow
        | 's' ->
            if key "rsig" then r.ro_sig <- typeref_v ()
            else if key "rstore" then r.ro_store <- name_v ()
            else if key "rstatic" then (eol c; r.ro_static <- true)
            else if key "rspawn" then begin
              let sp_callee = id c 'r' 'o' in
              skip c ' ';
              let sp_loc = loc c in
              skip c ' ';
              let sp_join =
                if peek c = 'j' then (lit c "joined "; Some (loc c))
                else (lit c "live"; None)
              in
              r.ro_spawns <- fin c { sp_callee; sp_loc; sp_join } :: r.ro_spawns
            end
            else raise Slow
        | 'v' -> if key "rvirt" then r.ro_virt <- name_v () else raise Slow
        | 'k' -> if key "rkind" then r.ro_kind <- name_v () else raise Slow
        | 'i' -> if key "rinline" then (eol c; r.ro_inline <- true) else raise Slow
        | 't' ->
            if key "rtempl" then r.ro_templ <- Some (fin c (id c 't' 'e')) else raise Slow
        | 'd' ->
            if key "rdef" then (eol c; r.ro_defined <- true)
            else if key "rdu" then open_du r d (name_v ())
            else if key "rdudef" && d.du_open then d.du_defs <- loc_v () :: d.du_defs
            else if key "rduuse" && d.du_open then begin
              let l = loc c in
              skip c ' ';
              d.du_uses <- fin c (use c l) :: d.du_uses
            end
            else raise Slow
        | 'p' -> if key "rpos" then r.ro_pos <- extent_v () else raise Slow
        | _ -> raise Slow)
    | Some (Bcl (cl, m)) -> (
        match c2 with
        | 'l' -> if key "cloc" then cl.cl_loc <- loc_v () else raise Slow
        | 'k' -> if key "ckind" then cl.cl_kind <- name_v () else raise Slow
        | 'p' ->
            if key "cparent" then cl.cl_parent <- parent_v ()
            else if key "cpos" then cl.cl_pos <- extent_v ()
            else raise Slow
        | 'a' -> if key "cacs" then cl.cl_acs <- name_v () else raise Slow
        | 't' ->
            if key "ctempl" then cl.cl_templ <- Some (fin c (id c 't' 'e')) else raise Slow
        | 's' ->
            if key "cstempl" then cl.cl_stempl <- Some (fin c (id c 't' 'e'))
            else raise Slow
        | 'b' ->
            if key "cbase" then begin
              let s = token c in
              let acs = intern_sub s c.p in
              skip c ' ';
              let v = virt c in
              skip c ' ';
              let b = fin c (id c 'c' 'l') in
              cl.cl_bases <- (acs, v, b) :: cl.cl_bases
            end
            else raise Slow
        | 'f' ->
            if key "cfriend" then begin
              let f =
                match peek c with
                | 'c' -> `Cl (id c 'c' 'l')
                | 'r' -> `Ro (id c 'r' 'o')
                | _ -> raise Slow
              in
              cl.cl_friends <- fin c f :: cl.cl_friends
            end
            else if key "cfunc" then begin
              let ro = id c 'r' 'o' in
              skip c ' ';
              let l = fin c (loc c) in
              cl.cl_funcs <- (ro, l) :: cl.cl_funcs
            end
            else raise Slow
        | 'm' ->
            if key "cmem" then open_mem cl m (name_v ())
            else if not m.mem_open then raise Slow
            else if key "cmloc" then m.mem_loc <- loc_v ()
            else if key "cmacs" then m.mem_acs <- name_v ()
            else if key "cmkind" then m.mem_kind <- name_v ()
            else if key "cmtype" then m.mem_type <- typeref_v ()
            else if key "cmstatic" then (eol c; m.mem_static <- true)
            else if key "cmmutable" then (eol c; m.mem_mutable <- true)
            else raise Slow
        | _ -> raise Slow)
    | Some (Bty (ty, a)) -> (
        match c2 with
        | 'l' -> if key "yloc" then ty.ty_loc <- loc_v () else raise Slow
        | 'p' ->
            if key "yparent" then ty.ty_parent <- parent_v ()
            else if key "yptr" then a.a_target <- typeref_v ()
            else raise Slow
        | 'a' ->
            if key "yacs" then ty.ty_acs <- name_v ()
            else if key "yargt" then begin
              let r = typeref c in
              let d =
                peek c = ' '
                && (c.p <- c.p + 1;
                    if peek c = 'T' then (lit c "T"; true) else (lit c "F"; false))
              in
              a.a_args <- (r, fin c d) :: a.a_args
            end
            else raise Slow
        | 'k' -> if key "ykind" then a.a_kind <- name_v () else raise Slow
        | 'i' -> if key "yikind" then a.a_ikind <- name_v () else raise Slow
        | 'r' ->
            if key "yref" then a.a_target <- typeref_v ()
            else if key "yrett" then a.a_rett <- typeref_v ()
            else raise Slow
        | 't' -> if key "ytref" then a.a_target <- typeref_v () else raise Slow
        | 'q' ->
            if key "yqual" then begin
              let s = rest c in
              if word_is src s c.p "const" then a.a_const <- true
              else if word_is src s c.p "volatile" then a.a_vol <- true
            end
            else raise Slow
        | 'e' ->
            if key "yelem" then a.a_elem <- typeref_v ()
            else if key "yellip" then (eol c; a.a_ellip <- true)
            else if key "yexcep" then begin
              (* "yexcep" and "yexcep " are the empty list *)
              let rec refs acc =
                let acc = typeref c :: acc in
                if peek c = ' ' then (c.p <- c.p + 1; refs acc) else fin c (List.rev acc)
              in
              a.a_excep <- Some (if peek c = '\n' then [] else refs [])
            end
            else raise Slow
        | 's' -> if key "ysize" then a.a_size <- Some (fin c (signed c)) else raise Slow
        | 'c' ->
            if key "ycon" then begin
              let s = token c in
              let name = intern_sub s c.p in
              skip c ' ';
              a.a_cons <- (name, fin c (int64 c)) :: a.a_cons
            end
            else raise Slow
        | 'n' -> if key "yname" then a.a_names <- name_v () :: a.a_names else raise Slow
        | _ -> raise Slow)
    | Some (Bma m) ->
        if key "makind" then m.ma_kind <- name_v ()
        else if key "matext" then m.ma_text <- text_v ()
        else if key "maloc" then m.ma_loc <- loc_v ()
        else raise Slow
  in
  header c t;
  (* each line after the header: a blank line, or a key of lowercase
     letters then '#' (an item header), a blank or the line end *)
  while c.p < len do
    let ls = c.p + 1 in
    ks := ls;
    ke := key_end src len ls;
    c.p <- !ke;
    match peek c with
    | '\n' when !ke = ls -> finalize ()
    | _ when !ke = ls -> raise Slow
    | '#' ->
        c.p <- !ke + 1;
        let id = uint c in
        let nm = if peek c = ' ' then (c.p <- c.p + 1; name_v ()) else fin c "" in
        let b = new_item src ls !ke id nm in
        finalize ();
        cur := Some b
    | ' ' ->
        c.p <- !ke + 1;
        attribute ()
    | '\n' -> attribute ()
    | _ -> raise Slow
  done;
  finalize ();
  t.files <- List.rev !files;
  t.types <- List.rev !types;
  t.classes <- List.rev !classes;
  t.routines <- List.rev !routines;
  t.templates <- List.rev !templates;
  t.namespaces <- List.rev !namespaces;
  t.pdb_macros <- List.rev !macros;
  t

let of_string (src : string) : t =
  (* injection site for parse-time corruption drills: raising (rather than
     mangling [src], which could yield a silently-wrong parse) keeps the
     fault visible as a transient the cache/build layers must absorb *)
  Pdt_util.Fault.check "pdb.parse";
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.parse" @@ fun () ->
  try read src
  with Slow -> (
    Pdt_util.Trace.count ~cat:"pdb" "pdb.parse_fallback" 0;
    try Pdb_parse_ref.of_string src
    with Pdb_parse_ref.Parse_error (line, msg) -> raise (Parse_error (line, msg)))

let of_file path : t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
