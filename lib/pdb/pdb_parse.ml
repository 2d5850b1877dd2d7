(** PDB deserialization: parses the ASCII format written by {!Pdb_write}.

    This is a single-pass cursor parser: it walks the raw source string
    once, tracking a position and a line number, and builds items in place
    as their attribute lines stream by.  Compared to the reference parser
    ({!Pdb_parse_ref}, the original implementation) it allocates no line
    list, no per-line trimmed copies and no intermediate block structures;
    item names and enumerated attribute values are routed through the
    global {!Pdt_util.Intern} pool so the many repeats across a project's
    PDBs are physically shared.

    Compatibility: the parse result is structurally identical to the
    reference parser's, and [Parse_error] line numbers match it, including
    its two-pass error ordering — the reference parser validates structure
    (item-id syntax, attributes inside blocks) over the whole file before
    it interprets any attribute, so a structural error on a late line wins
    over a semantic error on an early one.  This parser emulates that by
    deferring the first semantic error and continuing in a structure-only
    scan; tests in [test_pdb.ml] pin the behavior against the reference. *)

open Pdb

exception Parse_error of int * string
(** line number, message *)

(* A semantic ("pass 2") error, deferred so that structural ("pass 1")
   errors further down the file keep winning, as in the reference parser. *)
exception Pass2 of exn

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt
let fail2 lineno fmt = Printf.ksprintf (fun m -> raise (Pass2 (Parse_error (lineno, m)))) fmt

let sub src s e = String.sub src s (e - s)

let is_digit c = c >= '0' && c <= '9'

(* Digits-only value of src[s,e): -1 when empty, over-long (possible
   overflow) or any non-digit.  The callers fall back to the general
   (allocating) [int_of_sub] path on -1, so values this rejects still
   parse exactly as int_of_string would. *)
let digits src s e =
  if s >= e || e - s > 18 then -1
  else begin
    let rec go i acc =
      if i >= e then acc
      else
        let c = String.unsafe_get src i in
        if is_digit c then go (i + 1) ((acc * 10) + (Char.code c - 48)) else -1
    in
    go s 0
  end

(* int_of_string_opt over src[s,e), without allocating in the all-digit
   case; the fallback keeps the exotic forms int_of_string accepts
   (sign, 0x/0o/0b, underscores). *)
let int_of_sub src s e =
  match digits src s e with
  | -1 -> if s >= e then None else int_of_string_opt (sub src s e)
  | n -> Some n

(* does src[s,e) equal lit? *)
let word_is src s e lit =
  let n = String.length lit in
  e - s = n
  && (let rec go i =
        i >= n || (String.unsafe_get src (s + i) = String.unsafe_get lit i && go (i + 1))
      in
      go 0)

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

(* The reference fast path: a two-letter prefix, '#', then plain digits —
   the only shape the writer emits.  Returns -1 when the slice doesn't
   match [pq#<digits>], sending the caller to the general path (which
   also produces the errors). *)
let ref_fast src s e p q =
  if
    e - s > 3
    && String.unsafe_get src s = p
    && String.unsafe_get src (s + 1) = q
    && String.unsafe_get src (s + 2) = '#'
  then digits src (s + 3) e
  else -1

let parse_typeref src ln s e =
  match ref_fast src s e 't' 'y' with
  | -1 -> (
      match ref_fast src s e 'c' 'l' with
      | -1 ->
          let h, n = split_id_at ~structural:false src ln s e in
          if word_is src s h "ty" then Tyref n
          else if word_is src s h "cl" then Clref n
          else fail2 ln "expected type reference, got '%s#'" (sub src s h)
      | n -> Clref n)
  | n -> Tyref n

let parse_parentref src ln s e =
  match ref_fast src s e 'c' 'l' with
  | -1 -> (
      match ref_fast src s e 'n' 'a' with
      | -1 ->
          let h, n = split_id_at ~structural:false src ln s e in
          if word_is src s h "cl" then Pcl n
          else if word_is src s h "na" then Pna n
          else fail2 ln "expected parent reference, got '%s#'" (sub src s h)
      | n -> Pna n)
  | n -> Pcl n

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

(* A location from its three field ranges: "so#3 12 7" or "NULL 0 0".
   The fast path covers exactly what the writer emits — [so#<digits>] and
   two plain numbers — without allocating; anything else (negative or
   exotic integer spellings, malformed ids) drops to the general path,
   which also produces the errors. *)
let loc_slow src ln a a' b b' c c' =
  let h, fid = split_id_at ~structural:false src ln a a' in
  if word_is src a h "so" then
    match (int_of_sub src b b', int_of_sub src c c') with
    | Some l, Some col -> { lfile = fid; lline = l; lcol = col }
    | _ -> fail2 ln "malformed location"
  else fail2 ln "malformed location"

let loc_of_ranges src ln a a' b b' c c' =
  if word_is src a a' "NULL" then null_loc
  else
    let fid = ref_fast src a a' 's' 'o' in
    if fid >= 0 then begin
      let l = digits src b b' in
      let col = digits src c c' in
      if l >= 0 && col >= 0 then { lfile = fid; lline = l; lcol = col }
      else loc_slow src ln a a' b b' c c'
    end
    else loc_slow src ln a a' b b' c c'

(* "so#3 12 7" or "NULL 0 0" from a field stream: consumes exactly three
   fields; fewer is "truncated location". *)
let parse_loc_fields src ln fl =
  if not (next_field fl) then fail2 ln "truncated location";
  let a = fl.fs and a' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  let b = fl.fs and b' = fl.fe in
  if not (next_field fl) then fail2 ln "truncated location";
  let c = fl.fs and c' = fl.fe in
  loc_of_ranges src ln a a' b b' c c'

(* Single-location attribute values (rloc, cloc, yloc, ...) are the most
   frequent value shape by far; this specialization scans the three fields
   directly, without a [fields] stream.  Trailing extra fields are ignored,
   as the stream version (and the reference parser) ignores them. *)
let parse_loc_value src ln s e =
  let rec stop i =
    if i >= e || String.unsafe_get src i = ' ' then i else stop (i + 1)
  in
  let a = s in
  let a' = stop a in
  if a' >= e then fail2 ln "truncated location";
  let b = a' + 1 in
  let b' = stop b in
  if b' >= e then fail2 ln "truncated location";
  let c = b' + 1 in
  let c' = stop c in
  loc_of_ranges src ln a a' b b' c c'

let parse_extent_value src ln s e =
  let fl = fields src s e in
  let hstart = parse_loc_fields src ln fl in
  let hstop = parse_loc_fields src ln fl in
  let bstart = parse_loc_fields src ln fl in
  let bstop = parse_loc_fields src ln fl in
  { hstart; hstop; bstart; bstop }

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

(* The item under construction.  List-valued fields accumulate reversed
   (constant-time prepend) and are reversed once when the block ends. *)
type building =
  | Bso of source_file
  | Bna of namespace_item
  | Bte of template_item
  | Bro of routine_item * du_var option ref  (* the pending rdu variable *)
  | Bcl of class_item * member option ref  (* the pending cmem member *)
  | Bty of type_item * ty_acc
  | Bma of macro_item

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
          | Bro (r, pv) ->
              (match !pv with
               | Some v ->
                   r.ro_du <-
                     { v with v_defs = List.rev v.v_defs;
                              v_uses = List.rev v.v_uses }
                     :: r.ro_du
               | None -> ());
              pv := None;
              r.ro_calls <- List.rev r.ro_calls;
              r.ro_spawns <- List.rev r.ro_spawns;
              r.ro_du <- List.rev r.ro_du;
              routines := r :: !routines
          | Bcl (c, pm) ->
              (match !pm with
               | Some m -> c.cl_members <- m :: c.cl_members
               | None -> ());
              pm := None;
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
  (* one attribute line, dispatched against the current item.
     key = src[ks,ke), value = src[vs,ve).  For the high-volume kinds
     (ro/cl/ty) the key's second character narrows the linear [key]
     chain to one or two candidates; [key] still verifies the whole
     word, so near-misses fall through to [unknown] exactly as before. *)
  let attribute ln ks ke vs ve =
    let unknown what = fail2 ln "unknown %s attribute '%s'" what (sub src ks ke) in
    let key lit = word_is src ks ke lit in
    let c2 = if ke - ks >= 2 then String.unsafe_get src (ks + 1) else '\000' in
    match !cur with
    | None -> fail ln "attribute '%s' outside of an item block" (sub src ks ke)
    | Some (Bso f) ->
        if key "sinc" then begin
          let h, n = split_id_at ~structural:false src ln vs ve in
          if word_is src vs h "so" then f.so_includes <- n :: f.so_includes
          else fail2 ln "sinc expects so# reference"
        end
        else unknown "so"
    | Some (Bna n) ->
        if key "nloc" then n.na_loc <- parse_loc_value src ln vs ve
        else if key "nparent" then n.na_parent <- parse_parentref src ln vs ve
        else if key "nmem" then n.na_members <- parse_itemref src ln vs ve :: n.na_members
        else if key "nalias" then n.na_alias <- Some (intern_sub vs ve)
        else unknown "na"
    | Some (Bte te) ->
        if key "tloc" then te.te_loc <- parse_loc_value src ln vs ve
        else if key "tparent" then te.te_parent <- parse_parentref src ln vs ve
        else if key "tacs" then te.te_acs <- intern_sub vs ve
        else if key "tkind" then te.te_kind <- intern_sub vs ve
        else if key "ttext" then te.te_text <- Pdb_write.unescape_text (sub src vs ve)
        else if key "tpos" then te.te_pos <- parse_extent_value src ln vs ve
        else unknown "te"
    | Some (Bro (r, pv)) -> (
        match c2 with
        | 'l' ->
            if key "rloc" then r.ro_loc <- parse_loc_value src ln vs ve
            else if key "rlink" then r.ro_link <- intern_sub vs ve
            else unknown "ro"
        | 'c' ->
            if key "rclass" then r.ro_parent <- parse_parentref src ln vs ve
            else if key "rcall" then begin
              let fl = fields src vs ve in
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
        | 'n' ->
            if key "rnspace" then r.ro_parent <- parse_parentref src ln vs ve
            else unknown "ro"
        | 'a' ->
            if key "racs" then r.ro_acs <- intern_sub vs ve else unknown "ro"
        | 's' ->
            if key "rsig" then r.ro_sig <- parse_typeref src ln vs ve
            else if key "rstore" then r.ro_store <- intern_sub vs ve
            else if key "rstatic" then r.ro_static <- true
            else if key "rspawn" then begin
              let fl = fields src vs ve in
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
        | 'v' ->
            if key "rvirt" then r.ro_virt <- intern_sub vs ve else unknown "ro"
        | 'k' ->
            if key "rkind" then r.ro_kind <- intern_sub vs ve else unknown "ro"
        | 'i' ->
            if key "rinline" then r.ro_inline <- true else unknown "ro"
        | 't' ->
            if key "rtempl" then begin
              let h, n = split_id_at ~structural:false src ln vs ve in
              if word_is src vs h "te" then r.ro_templ <- Some n
              else fail2 ln "rtempl expects te# reference"
            end
            else unknown "ro"
        | 'd' ->
            if key "rdef" then r.ro_defined <- true
            else if key "rdu" then begin
              (match !pv with
               | Some v ->
                   r.ro_du <-
                     { v with v_defs = List.rev v.v_defs;
                              v_uses = List.rev v.v_uses }
                     :: r.ro_du
               | None -> ());
              pv := Some { v_name = intern_sub vs ve; v_defs = []; v_uses = [] }
            end
            else if key "rdudef" || key "rduuse" then begin
              match !pv with
              | None -> fail2 ln "define-use attribute without rdu"
              | Some v ->
                  if key "rdudef" then
                    pv :=
                      Some { v with v_defs = parse_loc_value src ln vs ve :: v.v_defs }
                  else begin
                    let fl = fields src vs ve in
                    let l = parse_loc_fields src ln fl in
                    if not (next_field fl) then fail2 ln "malformed rduuse";
                    match du_use_of_spec (sub src fl.fs fl.fe) with
                    | None -> fail2 ln "malformed rduuse reach spec"
                    | Some (reach, uninit) ->
                        pv :=
                          Some
                            { v with
                              v_uses =
                                { u_loc = l; u_reach = reach; u_uninit = uninit }
                                :: v.v_uses }
                  end
            end
            else unknown "ro"
        | 'p' ->
            if key "rpos" then r.ro_pos <- parse_extent_value src ln vs ve
            else unknown "ro"
        | _ -> unknown "ro")
    | Some (Bcl (c, pm)) -> (
        match c2 with
        | 'l' ->
            if key "cloc" then c.cl_loc <- parse_loc_value src ln vs ve
            else unknown "cl"
        | 'k' ->
            if key "ckind" then c.cl_kind <- intern_sub vs ve else unknown "cl"
        | 'p' ->
            if key "cparent" then c.cl_parent <- parse_parentref src ln vs ve
            else if key "cpos" then c.cl_pos <- parse_extent_value src ln vs ve
            else unknown "cl"
        | 'a' ->
            if key "cacs" then c.cl_acs <- intern_sub vs ve else unknown "cl"
        | 't' ->
            if key "ctempl" then begin
              let h, n = split_id_at ~structural:false src ln vs ve in
              if word_is src vs h "te" then c.cl_templ <- Some n
              else fail2 ln "ctempl expects te# reference"
            end
            else unknown "cl"
        | 's' ->
            if key "cstempl" then begin
              let h, n = split_id_at ~structural:false src ln vs ve in
              if word_is src vs h "te" then c.cl_stempl <- Some n
              else fail2 ln "cstempl expects te# reference"
            end
            else unknown "cl"
        | 'b' ->
            if key "cbase" then begin
              let fl = fields src vs ve in
              if not (next_field fl) then fail2 ln "malformed cbase";
              let a = fl.fs and a' = fl.fe in
              if not (next_field fl) then fail2 ln "malformed cbase";
              let b = fl.fs and b' = fl.fe in
              if not (next_field fl) then fail2 ln "malformed cbase";
              let g = fl.fs and g' = fl.fe in
              if next_field fl then fail2 ln "malformed cbase";
              let h, base = split_id_at ~structural:false src ln g g' in
              if word_is src g h "cl" then
                c.cl_bases <-
                  (intern_sub a a', word_is src b b' "virt", base) :: c.cl_bases
              else fail2 ln "cbase expects cl# reference"
            end
            else unknown "cl"
        | 'f' ->
            if key "cfriend" then begin
              let h, n = split_id_at ~structural:false src ln vs ve in
              if word_is src vs h "cl" then c.cl_friends <- `Cl n :: c.cl_friends
              else if word_is src vs h "ro" then c.cl_friends <- `Ro n :: c.cl_friends
              else fail2 ln "cfriend expects cl# or ro#"
            end
            else if key "cfunc" then begin
              let fl = fields src vs ve in
              if not (next_field fl) then fail2 ln "malformed cfunc";
              let a = fl.fs and a' = fl.fe in
              let h, ro = split_id_at ~structural:false src ln a a' in
              if word_is src a h "ro" then begin
                let l = parse_loc_fields src ln fl in
                c.cl_funcs <- (ro, l) :: c.cl_funcs
              end
              else fail2 ln "cfunc expects ro# reference"
            end
            else unknown "cl"
        | 'm' ->
            if key "cmem" then begin
              (match !pm with
               | Some m -> c.cl_members <- m :: c.cl_members
               | None -> ());
              pm :=
                Some { m_name = intern_sub vs ve; m_loc = null_loc; m_acs = "NA";
                       m_kind = "var"; m_type = Tyref 0; m_static = false;
                       m_mutable = false }
            end
            else if key "cmloc" || key "cmacs" || key "cmkind" || key "cmtype"
                    || key "cmstatic" || key "cmmutable" then begin
              match !pm with
              | None -> fail2 ln "member attribute without cmem"
              | Some m ->
                  let m' =
                    if key "cmloc" then { m with m_loc = parse_loc_value src ln vs ve }
                    else if key "cmacs" then { m with m_acs = intern_sub vs ve }
                    else if key "cmkind" then { m with m_kind = intern_sub vs ve }
                    else if key "cmtype" then { m with m_type = parse_typeref src ln vs ve }
                    else if key "cmstatic" then { m with m_static = true }
                    else { m with m_mutable = true }
                  in
                  pm := Some m'
            end
            else unknown "cl"
        | _ -> unknown "cl")
    | Some (Bty (ty, a)) -> (
        match c2 with
        | 'l' ->
            if key "yloc" then ty.ty_loc <- parse_loc_value src ln vs ve
            else unknown "ty"
        | 'p' ->
            if key "yparent" then ty.ty_parent <- parse_parentref src ln vs ve
            else if key "yptr" then a.a_target <- parse_typeref src ln vs ve
            else unknown "ty"
        | 'a' ->
            if key "yacs" then ty.ty_acs <- intern_sub vs ve
            else if key "yargt" then begin
              let fl = fields src vs ve in
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
        | 'k' ->
            if key "ykind" then a.a_kind <- intern_sub vs ve else unknown "ty"
        | 'i' ->
            if key "yikind" then a.a_ikind <- intern_sub vs ve else unknown "ty"
        | 'r' ->
            if key "yref" then a.a_target <- parse_typeref src ln vs ve
            else if key "yrett" then a.a_rett <- parse_typeref src ln vs ve
            else unknown "ty"
        | 't' ->
            if key "ytref" then a.a_target <- parse_typeref src ln vs ve
            else unknown "ty"
        | 'q' ->
            if key "yqual" then begin
              if word_is src vs ve "const" then a.a_const <- true
              else if word_is src vs ve "volatile" then a.a_vol <- true
            end
            else unknown "ty"
        | 'e' ->
            if key "yelem" then a.a_elem <- parse_typeref src ln vs ve
            else if key "yellip" then a.a_ellip <- true
            else if key "yexcep" then begin
              let fl = fields src vs ve in
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
            if key "ysize" then a.a_size <- int_of_sub src vs ve
            else unknown "ty"
        | 'c' ->
            if key "ycon" then begin
              let fl = fields src vs ve in
              if not (next_field fl) then fail2 ln "malformed ycon";
              let n = fl.fs and n' = fl.fe in
              if not (next_field fl) then fail2 ln "malformed ycon";
              let v = fl.fs and v' = fl.fe in
              if next_field fl then fail2 ln "malformed ycon";
              let value =
                try Int64.of_string (sub src v v') with e -> raise (Pass2 e)
              in
              a.a_cons <- (intern_sub n n', value) :: a.a_cons
            end
            else unknown "ty"
        | 'n' ->
            if key "yname" then a.a_names <- intern_sub vs ve :: a.a_names
            else unknown "ty"
        | _ -> unknown "ty")
    | Some (Bma m) ->
        if key "makind" then m.ma_kind <- intern_sub vs ve
        else if key "matext" then m.ma_text <- Pdb_write.unescape_text (sub src vs ve)
        else if key "maloc" then m.ma_loc <- parse_loc_value src ln vs ve
        else unknown "ma"
  in
  (* a header line "prefix#id name": start building the new item *)
  let header ln hs he name_s name_e =
    let h, id = split_id_at ~structural:true src ln hs he in
    let nm = if name_s < name_e then intern_sub name_s name_e else "" in
    let b =
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
           ref None)
      else if word_is src hs h "cl" then
        Bcl
          ({ cl_id = id; cl_name = nm; cl_loc = null_loc; cl_kind = "class";
             cl_parent = Pnone; cl_acs = "NA"; cl_templ = None; cl_stempl = None;
             cl_bases = []; cl_friends = []; cl_funcs = []; cl_members = [];
             cl_pos = null_extent },
           ref None)
      else if word_is src hs h "ty" then
        Bty
          ({ ty_id = id; ty_name = nm; ty_loc = null_loc; ty_parent = Pnone;
             ty_acs = "NA"; ty_info = Yerror; ty_names = [] },
           { a_kind = ""; a_ikind = ""; a_target = Tyref 0; a_const = false;
             a_vol = false; a_elem = Tyref 0; a_size = None; a_rett = Tyref 0;
             a_args = []; a_ellip = false; a_excep = None; a_cons = [];
             a_names = [] })
      else if word_is src hs h "ma" then
        Bma { ma_id = id; ma_name = nm; ma_kind = "def"; ma_text = "";
              ma_loc = null_loc }
      else fail2 ln "unknown item prefix '%s'" (sub src hs h)
    in
    cur := Some b;
    in_block := true
  in
  let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012' in
  let pos = ref 0 and lineno = ref 0 in
  while !pos <= len do
    incr lineno;
    let ln = !lineno in
    let ls = !pos in
    let nl =
      (* index_from, not index_from_opt: memchr speed without the
         per-line [Some] allocation *)
      if ls >= len then len
      else
        match String.index_from src ls '\n' with
        | i -> i
        | exception Not_found -> len
    in
    pos := nl + 1;
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
              header ln s ke (if ke < e then ke + 1 else e) e
            end
            else begin
              let vs = if ke < e then ke + 1 else e in
              attribute ln s ke vs e
            end
          with Pass2 err ->
            deferred := Some err;
            cur := None;
            in_block := true)
    end
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
