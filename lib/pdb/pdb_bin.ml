(** PDB-B: the binary, mmap-friendly PDB container (format version 2).

    The ASCII PDB of Figure 3 stays the golden interchange format — this
    module is the speed layer behind it.  A PDB-B file holds the exact
    same {!Pdb.t} model, laid out so a reader can decode it straight out
    of a [Bigarray]-mapped file: no tokenizing, no line splitting, no
    number parsing.  {!of_file} memory-maps the file and decodes
    fixed-width little-endian records; strings are materialized once from
    a deduplicated pool (and interned through {!Pdt_util.Intern}, so
    repeats are physically shared with ASCII-parsed PDBs in the same
    process).

    Layout (all integers little-endian 32-bit; see DESIGN.md for the
    normative spec):

    {v
    offset  size  field
    0       4     magic "PDBB"
    4       4     format version (2; version-1 files still decode)
    8       4     flags (bit 0: incomplete)
    12      4     diag_count
    16      4     version string id
    20      4     section count
    24      12*n  section table: (tag, byte offset, byte length)
    v}

    Sections (tags): 1 strings, 2 aux, 3 so, 4 na, 5 te, 6 ro, 7 cl,
    8 ty, 9 ma.  The strings section is [count], [count+1] cumulative
    offsets, then the raw blob.  The aux section is a flat array of u32
    words holding all variable-length payloads (include lists, members,
    calls, type info, ...), referenced from item records as
    (word offset, count) pairs.  Item sections are [count] fixed-width
    records.  Option fields use the sentinel 0xFFFFFFFF for [None].

    Robustness: every offset, string id and aux reference is
    bounds-checked during decode; malformed or truncated input raises
    {!Format_error} with a diagnostic — never an out-of-bounds access or
    a crash. *)

open Pdb

let magic = "PDBB"

(* Version 2 widens the ro record by four words — a spawn-list aux
   reference (fixed 8-word elements) and a define-use aux reference
   (variable-width payload, stored as word offset + word length).  The
   reader still accepts version-1 files: their narrower ro records decode
   with empty [ro_spawns]/[ro_du], which is exactly what a pre-semantic
   producer meant. *)
let format_version = 2
let min_format_version = 1
let none_sentinel = 0xFFFFFFFF
let header_bytes = 24

(* section tags *)
let sec_strings = 1
let sec_aux = 2
let sec_so = 3
let sec_na = 4
let sec_te = 5
let sec_ro = 6
let sec_cl = 7
let sec_ty = 8
let sec_ma = 9

(* fixed record widths, in u32 words *)
let so_words = 4
let na_words = 10
let te_words = 22
let ro_words = 34
let ro_words_v1 = 30  (* version-1 ro records lack the spawn/du refs *)
let cl_words = 31
let ty_words = 12
let ma_words = 7

exception Format_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

(* Values are stored as 32-bit two's complement.  Anything outside that
   range cannot round-trip, so the writer refuses it honestly instead of
   truncating. *)
let w32 (b : Buffer.t) (v : int) =
  if v < -0x8000_0000 || v > 0xFFFF_FFFF then
    err "integer %d exceeds the 32-bit record range of PDB-B" v;
  Buffer.add_int32_le b (Int32.of_int v)

type pool = {
  tbl : (string, int) Hashtbl.t;
  mutable rev : string list;  (* newest first *)
  mutable n : int;
  mutable bytes : int;
}

let pool_create () = { tbl = Hashtbl.create 1024; rev = []; n = 0; bytes = 0 }

let sid (p : pool) (s : string) : int =
  match Hashtbl.find_opt p.tbl s with
  | Some i -> i
  | None ->
      let i = p.n in
      Hashtbl.add p.tbl s i;
      p.rev <- s :: p.rev;
      p.n <- i + 1;
      p.bytes <- p.bytes + String.length s;
      i

type writer = {
  pool : pool;
  aux : Buffer.t;          (* the aux section payload, u32 words *)
  mutable aux_n : int;     (* words written so far *)
}

let aux_word (w : writer) v =
  w32 w.aux v;
  w.aux_n <- w.aux_n + 1

let wloc (b : Buffer.t) (l : loc) =
  w32 b l.lfile; w32 b l.lline; w32 b l.lcol

let wextent (b : Buffer.t) (e : extent) =
  wloc b e.hstart; wloc b e.hstop; wloc b e.bstart; wloc b e.bstop

let wtyperef (b : Buffer.t) = function
  | Tyref id -> w32 b 0; w32 b id
  | Clref id -> w32 b 1; w32 b id

let wparent (b : Buffer.t) = function
  | Pnone -> w32 b 0; w32 b 0
  | Pcl id -> w32 b 1; w32 b id
  | Pna id -> w32 b 2; w32 b id

let wopt (b : Buffer.t) = function
  | None -> w32 b none_sentinel
  | Some v -> w32 b v

let aux_loc (w : writer) (l : loc) =
  aux_word w l.lfile; aux_word w l.lline; aux_word w l.lcol

let aux_typeref (w : writer) = function
  | Tyref id -> aux_word w 0; aux_word w id
  | Clref id -> aux_word w 1; aux_word w id

(* An aux reference is the pair (first word index, element count); the
   writer returns it so the caller can embed it in the fixed record. *)
let aux_list (w : writer) (emit : 'a -> unit) (xs : 'a list) : int * int =
  let off = w.aux_n in
  List.iter emit xs;
  (off, List.length xs)

let encode_so w (b : Buffer.t) (f : source_file) =
  let off, n = aux_list w (fun i -> aux_word w i) f.so_includes in
  w32 b f.so_id;
  w32 b (sid w.pool f.so_name);
  w32 b off; w32 b n

let itemref_tag = function
  | Rso _ -> 0 | Rro _ -> 1 | Rcl _ -> 2 | Rty _ -> 3
  | Rte _ -> 4 | Rna _ -> 5 | Rma _ -> 6

let itemref_id = function
  | Rso i | Rro i | Rcl i | Rty i | Rte i | Rna i | Rma i -> i

let encode_na w (b : Buffer.t) (n : namespace_item) =
  let moff, mn =
    aux_list w
      (fun r -> aux_word w (itemref_tag r); aux_word w (itemref_id r))
      n.na_members
  in
  w32 b n.na_id;
  w32 b (sid w.pool n.na_name);
  wloc b n.na_loc;
  wparent b n.na_parent;
  (match n.na_alias with
   | None -> w32 b none_sentinel
   | Some a -> w32 b (sid w.pool a));
  w32 b moff; w32 b mn

let encode_te w (b : Buffer.t) (te : template_item) =
  w32 b te.te_id;
  w32 b (sid w.pool te.te_name);
  wloc b te.te_loc;
  wparent b te.te_parent;
  w32 b (sid w.pool te.te_acs);
  w32 b (sid w.pool te.te_kind);
  w32 b (sid w.pool te.te_text);
  wextent b te.te_pos

(* The define-use payload is variable-width (like ty_info), so it is
   referenced as (word offset, word length) and cursor-decoded.  Layout:
   [nvars], then per variable [name sid] [ndefs] ndefs*loc [nuses]
   nuses*([loc] [uninit] [nreach] nreach*[def index]). *)
let encode_du w (vars : du_var list) : int * int =
  match vars with
  | [] -> (0, 0)
  | _ ->
      let off = w.aux_n in
      aux_word w (List.length vars);
      List.iter
        (fun v ->
          aux_word w (sid w.pool v.v_name);
          aux_word w (List.length v.v_defs);
          List.iter (aux_loc w) v.v_defs;
          aux_word w (List.length v.v_uses);
          List.iter
            (fun u ->
              aux_loc w u.u_loc;
              aux_word w (if u.u_uninit then 1 else 0);
              aux_word w (List.length u.u_reach);
              List.iter (aux_word w) u.u_reach)
            v.v_uses)
        vars;
      (off, w.aux_n - off)

let encode_ro w (b : Buffer.t) (r : routine_item) =
  let coff, cn =
    aux_list w
      (fun c ->
        aux_word w c.c_callee;
        aux_word w (if c.c_virt then 1 else 0);
        aux_loc w c.c_loc)
      r.ro_calls
  in
  let soff, sn =
    aux_list w
      (fun s ->
        aux_word w s.sp_callee;
        aux_loc w s.sp_loc;
        match s.sp_join with
        | None ->
            aux_word w 0;
            aux_loc w null_loc
        | Some j ->
            aux_word w 1;
            aux_loc w j)
      r.ro_spawns
  in
  let duoff, dulen = encode_du w r.ro_du in
  w32 b r.ro_id;
  w32 b (sid w.pool r.ro_name);
  wloc b r.ro_loc;
  wparent b r.ro_parent;
  w32 b (sid w.pool r.ro_acs);
  wtyperef b r.ro_sig;
  w32 b (sid w.pool r.ro_link);
  w32 b (sid w.pool r.ro_store);
  w32 b (sid w.pool r.ro_virt);
  w32 b (sid w.pool r.ro_kind);
  w32 b
    ((if r.ro_static then 1 else 0)
     lor (if r.ro_inline then 2 else 0)
     lor if r.ro_defined then 4 else 0);
  wopt b r.ro_templ;
  w32 b coff; w32 b cn;
  wextent b r.ro_pos;
  w32 b soff; w32 b sn;
  w32 b duoff; w32 b dulen

let encode_cl w (b : Buffer.t) (c : class_item) =
  let boff, bn =
    aux_list w
      (fun (acs, virt, base) ->
        aux_word w (sid w.pool acs);
        aux_word w (if virt then 1 else 0);
        aux_word w base)
      c.cl_bases
  in
  let froff, frn =
    aux_list w
      (function
        | `Cl id -> aux_word w 0; aux_word w id
        | `Ro id -> aux_word w 1; aux_word w id)
      c.cl_friends
  in
  let fuoff, fun_ =
    aux_list w
      (fun (ro, l) -> aux_word w ro; aux_loc w l)
      c.cl_funcs
  in
  let moff, mn =
    aux_list w
      (fun m ->
        aux_word w (sid w.pool m.m_name);
        aux_loc w m.m_loc;
        aux_word w (sid w.pool m.m_acs);
        aux_word w (sid w.pool m.m_kind);
        aux_typeref w m.m_type;
        aux_word w (if m.m_static then 1 else 0);
        aux_word w (if m.m_mutable then 1 else 0))
      c.cl_members
  in
  w32 b c.cl_id;
  w32 b (sid w.pool c.cl_name);
  wloc b c.cl_loc;
  w32 b (sid w.pool c.cl_kind);
  wparent b c.cl_parent;
  w32 b (sid w.pool c.cl_acs);
  wopt b c.cl_templ;
  wopt b c.cl_stempl;
  w32 b boff; w32 b bn;
  w32 b froff; w32 b frn;
  w32 b fuoff; w32 b fun_;
  w32 b moff; w32 b mn;
  wextent b c.cl_pos

(* ty_info aux payload, first word is the kind tag *)
let encode_ty_info w (i : ty_info) : int * int =
  let off = w.aux_n in
  (match i with
   | Ybuiltin { yikind } -> aux_word w 0; aux_word w (sid w.pool yikind)
   | Yptr r -> aux_word w 1; aux_typeref w r
   | Yref r -> aux_word w 2; aux_typeref w r
   | Ytref { target; yconst; yvolatile } ->
       aux_word w 3;
       aux_typeref w target;
       aux_word w (if yconst then 1 else 0);
       aux_word w (if yvolatile then 1 else 0)
   | Yarray { elem; size } ->
       aux_word w 4;
       aux_typeref w elem;
       (match size with
        | None -> aux_word w 0; aux_word w 0
        | Some s -> aux_word w 1; aux_word w s)
   | Yfunc { rett; args; ellipsis; cqual; exceptions } ->
       aux_word w 5;
       aux_typeref w rett;
       aux_word w (if ellipsis then 1 else 0);
       aux_word w (if cqual then 1 else 0);
       aux_word w (List.length args);
       List.iter
         (fun (r, d) ->
           aux_typeref w r;
           aux_word w (if d then 1 else 0))
         args;
       (match exceptions with
        | None -> aux_word w 0
        | Some refs ->
            aux_word w 1;
            aux_word w (List.length refs);
            List.iter (aux_typeref w) refs)
   | Yenum { constants } ->
       aux_word w 6;
       aux_word w (List.length constants);
       List.iter
         (fun (n, v) ->
           aux_word w (sid w.pool n);
           aux_word w (Int64.to_int (Int64.logand v 0xFFFF_FFFFL));
           aux_word w (Int64.to_int (Int64.shift_right_logical v 32)))
         constants
   | Ytparam -> aux_word w 7
   | Yerror -> aux_word w 8);
  (off, w.aux_n - off)

let encode_ty w (b : Buffer.t) (ty : type_item) =
  let ioff, ilen = encode_ty_info w ty.ty_info in
  let noff, nn =
    aux_list w (fun n -> aux_word w (sid w.pool n)) ty.ty_names
  in
  w32 b ty.ty_id;
  w32 b (sid w.pool ty.ty_name);
  wloc b ty.ty_loc;
  wparent b ty.ty_parent;
  w32 b (sid w.pool ty.ty_acs);
  w32 b ioff; w32 b ilen;
  w32 b noff; w32 b nn

let encode_ma w (b : Buffer.t) (m : macro_item) =
  w32 b m.ma_id;
  w32 b (sid w.pool m.ma_name);
  w32 b (sid w.pool m.ma_kind);
  w32 b (sid w.pool m.ma_text);
  wloc b m.ma_loc

let pad4 (b : Buffer.t) =
  while Buffer.length b land 3 <> 0 do Buffer.add_char b '\000' done

let to_string (t : Pdb.t) : string =
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.bin_write" @@ fun () ->
  let w = { pool = pool_create (); aux = Buffer.create 65536; aux_n = 0 } in
  let version_sid = sid w.pool t.version in
  let sec prefix_words count encode xs =
    let b = Buffer.create (4 + (count * prefix_words * 4)) in
    w32 b count;
    List.iter (encode w b) xs;
    b
  in
  let b_so = sec so_words (List.length t.files) encode_so t.files in
  let b_na = sec na_words (List.length t.namespaces) encode_na t.namespaces in
  let b_te = sec te_words (List.length t.templates) encode_te t.templates in
  let b_ro = sec ro_words (List.length t.routines) encode_ro t.routines in
  let b_cl = sec cl_words (List.length t.classes) encode_cl t.classes in
  let b_ty = sec ty_words (List.length t.types) encode_ty t.types in
  let b_ma = sec ma_words (List.length t.pdb_macros) encode_ma t.pdb_macros in
  (* strings: count, count+1 cumulative offsets, blob *)
  let strs = List.rev w.pool.rev in
  let b_str = Buffer.create (w.pool.bytes + (4 * (w.pool.n + 2))) in
  w32 b_str w.pool.n;
  let cum = ref 0 in
  w32 b_str 0;
  List.iter
    (fun s ->
      cum := !cum + String.length s;
      w32 b_str !cum)
    strs;
  List.iter (Buffer.add_string b_str) strs;
  pad4 b_str;
  (* aux section: count then the words *)
  let b_aux = Buffer.create (4 + Buffer.length w.aux) in
  w32 b_aux w.aux_n;
  Buffer.add_buffer b_aux w.aux;
  let sections =
    [ (sec_strings, b_str); (sec_aux, b_aux); (sec_so, b_so);
      (sec_na, b_na); (sec_te, b_te); (sec_ro, b_ro); (sec_cl, b_cl);
      (sec_ty, b_ty); (sec_ma, b_ma) ]
  in
  let out = Buffer.create (Buffer.length b_str + Buffer.length b_aux + 1024) in
  Buffer.add_string out magic;
  w32 out format_version;
  w32 out (if t.incomplete then 1 else 0);
  w32 out t.diag_count;
  w32 out version_sid;
  w32 out (List.length sections);
  let table_bytes = 12 * List.length sections in
  let pos = ref (header_bytes + table_bytes) in
  List.iter
    (fun (tag, sb) ->
      w32 out tag;
      w32 out !pos;
      w32 out (Buffer.length sb);
      pos := !pos + Buffer.length sb)
    sections;
  List.iter (fun (_, sb) -> Buffer.add_buffer out sb) sections;
  Buffer.contents out

let to_file (t : Pdb.t) (path : string) : unit =
  let s = to_string t in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let blen (b : buf) = Bigarray.Array1.dim b

(* Unsigned little-endian u32 at byte offset [off].  The caller has
   validated the enclosing range, so the four loads are unchecked. *)
let u32 (b : buf) (off : int) : int =
  let g i = Char.code (Bigarray.Array1.unsafe_get b i) in
  g off lor (g (off + 1) lsl 8) lor (g (off + 2) lsl 16) lor (g (off + 3) lsl 24)

(* Signed interpretation, for line/column/size values. *)
let i32 (b : buf) (off : int) : int =
  let v = u32 b off in
  if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

type reader = {
  buf : buf;
  strings : string array;  (* the pool, extracted and interned *)
  aux_base : int;   (* byte offset of the first aux word *)
  aux_count : int;  (* words in the aux section *)
  rver : int;       (* the file's format version (1 or 2) *)
}

let fetch_string (r : reader) (id : int) (what : string) : string =
  if id < 0 || id >= Array.length r.strings then
    err "%s: string id %d out of range (pool has %d strings)" what id
      (Array.length r.strings);
  Array.unsafe_get r.strings id

(* Validate an aux reference and return the byte offset of its first
   word. *)
let aux_ref (r : reader) (off : int) (words : int) (what : string) : int =
  if off < 0 || words < 0 || off + words > r.aux_count then
    err "%s: aux reference [%d..%d) outside aux section of %d words" what off
      (off + words) r.aux_count;
  r.aux_base + (4 * off)

let rloc (b : buf) off =
  { lfile = i32 b off; lline = i32 b (off + 4); lcol = i32 b (off + 8) }

let rextent (b : buf) off =
  { hstart = rloc b off; hstop = rloc b (off + 12);
    bstart = rloc b (off + 24); bstop = rloc b (off + 36) }

let rtyperef (b : buf) off (what : string) =
  match u32 b off with
  | 0 -> Tyref (i32 b (off + 4))
  | 1 -> Clref (i32 b (off + 4))
  | n -> err "%s: invalid typeref tag %d" what n

let rparent (b : buf) off (what : string) =
  match u32 b off with
  | 0 -> Pnone
  | 1 -> Pcl (i32 b (off + 4))
  | 2 -> Pna (i32 b (off + 4))
  | n -> err "%s: invalid parent tag %d" what n

let ropt (b : buf) off =
  let v = u32 b off in
  if v = none_sentinel then None else Some (i32 b off)

(* Decode [n] aux elements of [words] u32 each through [f]; bounds are
   checked once for the whole run. *)
let aux_items (r : reader) off n words (what : string)
    (f : buf -> int -> 'a) : 'a list =
  let base = aux_ref r off (n * words) what in
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) (f r.buf (base + (4 * i * words)) :: acc)
  in
  if n < 0 then err "%s: negative element count %d" what n;
  go (n - 1) []

let decode_so (r : reader) off : source_file =
  let b = r.buf in
  { so_id = i32 b off;
    so_name = fetch_string r (u32 b (off + 4)) "so name";
    so_includes =
      aux_items r (u32 b (off + 8)) (u32 b (off + 12)) 1 "so includes"
        (fun b o -> i32 b o) }

let decode_na (r : reader) off : namespace_item =
  let b = r.buf in
  let alias = u32 b (off + 28) in
  { na_id = i32 b off;
    na_name = fetch_string r (u32 b (off + 4)) "na name";
    na_loc = rloc b (off + 8);
    na_parent = rparent b (off + 20) "na parent";
    na_alias =
      (if alias = none_sentinel then None
       else Some (fetch_string r alias "na alias"));
    na_members =
      aux_items r (u32 b (off + 32)) (u32 b (off + 36)) 2 "na members"
        (fun b o ->
          let id = i32 b (o + 4) in
          match u32 b o with
          | 0 -> Rso id | 1 -> Rro id | 2 -> Rcl id | 3 -> Rty id
          | 4 -> Rte id | 5 -> Rna id | 6 -> Rma id
          | n -> err "na member: invalid itemref tag %d" n) }

let decode_te (r : reader) off : template_item =
  let b = r.buf in
  { te_id = i32 b off;
    te_name = fetch_string r (u32 b (off + 4)) "te name";
    te_loc = rloc b (off + 8);
    te_parent = rparent b (off + 20) "te parent";
    te_acs = fetch_string r (u32 b (off + 28)) "te acs";
    te_kind = fetch_string r (u32 b (off + 32)) "te kind";
    te_text = fetch_string r (u32 b (off + 36)) "te text";
    te_pos = rextent b (off + 40) }

(* Cursor-decoded define-use payload; see {!encode_du} for the layout. *)
let decode_du (r : reader) off len : du_var list =
  if len = 0 then []
  else begin
    let base = aux_ref r off len "ro du" in
    let stop = len in
    let pos = ref 0 in
    let need k =
      if !pos + k > stop then
        err "ro du: payload of %d words truncated at word %d" stop !pos
    in
    let word () =
      need 1;
      let v = u32 r.buf (base + (4 * !pos)) in
      incr pos;
      v
    in
    let dloc () =
      need 3;
      let l = rloc r.buf (base + (4 * !pos)) in
      pos := !pos + 3;
      l
    in
    let count what =
      let n = word () in
      if n > stop then err "ro du: bad %s count %d" what n;
      n
    in
    let read_list n f =
      let rec go i acc = if i = 0 then List.rev acc else go (i - 1) (f () :: acc) in
      go n []
    in
    let nvars = count "var" in
    read_list nvars (fun () ->
        let name = fetch_string r (word ()) "du var name" in
        let defs = read_list (count "def") dloc in
        let uses =
          read_list (count "use") (fun () ->
              let l = dloc () in
              let uninit = word () <> 0 in
              let reach = read_list (count "reach") word in
              { u_loc = l; u_reach = reach; u_uninit = uninit })
        in
        { v_name = name; v_defs = defs; v_uses = uses })
  end

let decode_ro (r : reader) off : routine_item =
  let b = r.buf in
  let flags = u32 b (off + 56) in
  { ro_id = i32 b off;
    ro_name = fetch_string r (u32 b (off + 4)) "ro name";
    ro_loc = rloc b (off + 8);
    ro_parent = rparent b (off + 20) "ro parent";
    ro_acs = fetch_string r (u32 b (off + 28)) "ro acs";
    ro_sig = rtyperef b (off + 32) "ro sig";
    ro_link = fetch_string r (u32 b (off + 40)) "ro link";
    ro_store = fetch_string r (u32 b (off + 44)) "ro store";
    ro_virt = fetch_string r (u32 b (off + 48)) "ro virt";
    ro_kind = fetch_string r (u32 b (off + 52)) "ro kind";
    ro_static = flags land 1 <> 0;
    ro_inline = flags land 2 <> 0;
    ro_defined = flags land 4 <> 0;
    ro_templ = ropt b (off + 60);
    ro_calls =
      aux_items r (u32 b (off + 64)) (u32 b (off + 68)) 5 "ro calls"
        (fun b o ->
          { c_callee = i32 b o;
            c_virt = u32 b (o + 4) <> 0;
            c_loc = rloc b (o + 8) });
    ro_spawns =
      (if r.rver < 2 then []
       else
         aux_items r (u32 b (off + 120)) (u32 b (off + 124)) 8 "ro spawns"
           (fun b o ->
             { sp_callee = i32 b o;
               sp_loc = rloc b (o + 4);
               sp_join =
                 (if u32 b (o + 16) = 0 then None else Some (rloc b (o + 20))) }));
    ro_du =
      (if r.rver < 2 then []
       else decode_du r (u32 b (off + 128)) (u32 b (off + 132)));
    ro_pos = rextent b (off + 72) }

let decode_cl (r : reader) off : class_item =
  let b = r.buf in
  { cl_id = i32 b off;
    cl_name = fetch_string r (u32 b (off + 4)) "cl name";
    cl_loc = rloc b (off + 8);
    cl_kind = fetch_string r (u32 b (off + 20)) "cl kind";
    cl_parent = rparent b (off + 24) "cl parent";
    cl_acs = fetch_string r (u32 b (off + 32)) "cl acs";
    cl_templ = ropt b (off + 36);
    cl_stempl = ropt b (off + 40);
    cl_bases =
      aux_items r (u32 b (off + 44)) (u32 b (off + 48)) 3 "cl bases"
        (fun b o ->
          (fetch_string r (u32 b o) "cl base acs",
           u32 b (o + 4) <> 0,
           i32 b (o + 8)));
    cl_friends =
      aux_items r (u32 b (off + 52)) (u32 b (off + 56)) 2 "cl friends"
        (fun b o ->
          let id = i32 b (o + 4) in
          match u32 b o with
          | 0 -> `Cl id
          | 1 -> `Ro id
          | n -> err "cl friend: invalid tag %d" n);
    cl_funcs =
      aux_items r (u32 b (off + 60)) (u32 b (off + 64)) 4 "cl funcs"
        (fun b o -> (i32 b o, rloc b (o + 4)));
    cl_members =
      aux_items r (u32 b (off + 68)) (u32 b (off + 72)) 10 "cl members"
        (fun b o ->
          { m_name = fetch_string r (u32 b o) "cl member name";
            m_loc = rloc b (o + 4);
            m_acs = fetch_string r (u32 b (o + 16)) "cl member acs";
            m_kind = fetch_string r (u32 b (o + 20)) "cl member kind";
            m_type = rtyperef b (o + 24) "cl member type";
            m_static = u32 b (o + 32) <> 0;
            m_mutable = u32 b (o + 36) <> 0 });
    cl_pos = rextent b (off + 76) }

(* ty_info payloads are variable width, so this decoder re-checks bounds
   as it walks: [need] asserts the next [k] words are inside the
   payload. *)
let decode_ty_info (r : reader) off len : ty_info =
  let base = aux_ref r off len "ty info" in
  let stop = len in
  let pos = ref 0 in
  let need k =
    if !pos + k > stop then
      err "ty info: payload of %d words truncated at word %d" stop !pos
  in
  let word () =
    need 1;
    let v = u32 r.buf (base + (4 * !pos)) in
    incr pos;
    v
  in
  let sword () =
    need 1;
    let v = i32 r.buf (base + (4 * !pos)) in
    incr pos;
    v
  in
  let tr what =
    need 2;
    let v = rtyperef r.buf (base + (4 * !pos)) what in
    pos := !pos + 2;
    v
  in
  (* in-order [n]-element list of [f ()] — the reads are stateful, so the
     evaluation order must be the storage order *)
  let read_list n f =
    let rec go i acc = if i = 0 then List.rev acc else go (i - 1) (f () :: acc) in
    go n []
  in
  if len < 1 then err "ty info: empty payload";
  match word () with
  | 0 -> Ybuiltin { yikind = fetch_string r (word ()) "ty ikind" }
  | 1 -> Yptr (tr "ty ptr")
  | 2 -> Yref (tr "ty ref")
  | 3 ->
      let target = tr "ty tref" in
      let c = word () <> 0 in
      let v = word () <> 0 in
      Ytref { target; yconst = c; yvolatile = v }
  | 4 ->
      let elem = tr "ty array elem" in
      let has = word () <> 0 in
      let size = sword () in
      Yarray { elem; size = (if has then Some size else None) }
  | 5 ->
      let rett = tr "ty func rett" in
      let ellipsis = word () <> 0 in
      let cqual = word () <> 0 in
      let nargs = word () in
      if nargs < 0 || nargs > stop then err "ty func: bad arg count %d" nargs;
      let args =
        read_list nargs (fun () ->
            let t = tr "ty func arg" in
            let d = word () <> 0 in
            (t, d))
      in
      let exceptions =
        if word () = 0 then None
        else begin
          let n = word () in
          if n < 0 || n > stop then err "ty func: bad exception count %d" n;
          Some (read_list n (fun () -> tr "ty func exception"))
        end
      in
      Yfunc { rett; args; ellipsis; cqual; exceptions }
  | 6 ->
      let n = word () in
      if n < 0 || n > stop then err "ty enum: bad constant count %d" n;
      Yenum
        { constants =
            read_list n (fun () ->
                let name = fetch_string r (word ()) "ty enum constant" in
                let lo = Int64.of_int (word ()) in
                let hi = Int64.of_int (word ()) in
                (name, Int64.logor lo (Int64.shift_left hi 32))) }
  | 7 -> Ytparam
  | 8 -> Yerror
  | n -> err "ty info: invalid kind tag %d" n

let decode_ty (r : reader) off : type_item =
  let b = r.buf in
  { ty_id = i32 b off;
    ty_name = fetch_string r (u32 b (off + 4)) "ty name";
    ty_loc = rloc b (off + 8);
    ty_parent = rparent b (off + 20) "ty parent";
    ty_acs = fetch_string r (u32 b (off + 28)) "ty acs";
    ty_info = decode_ty_info r (u32 b (off + 32)) (u32 b (off + 36));
    ty_names =
      aux_items r (u32 b (off + 40)) (u32 b (off + 44)) 1 "ty names"
        (fun b o -> fetch_string r (u32 b o) "ty name alias") }

let decode_ma (r : reader) off : macro_item =
  let b = r.buf in
  { ma_id = i32 b off;
    ma_name = fetch_string r (u32 b (off + 4)) "ma name";
    ma_kind = fetch_string r (u32 b (off + 8)) "ma kind";
    ma_text = fetch_string r (u32 b (off + 12)) "ma text";
    ma_loc = rloc b (off + 16) }

let extract_string (b : buf) (off : int) (len : int) : string =
  let bytes = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set bytes i (Bigarray.Array1.unsafe_get b (off + i))
  done;
  let s = Bytes.unsafe_to_string bytes in
  if len <= Pdt_util.Intern.max_len then Pdt_util.Intern.intern s else s

(* ------------------------------------------------------------------ *)
(* Section layout                                                     *)
(* ------------------------------------------------------------------ *)

(* Validation before any record is decoded: the header, the section
   table, string-table monotonicity and per-kind record-section bounds.
   O(sections + string count) u32 reads, no allocation proportional to
   content size. *)

let n_kinds = 7
let k_so = 0
let k_na = 1
let k_te = 2
let k_ro = 3
let k_cl = 4
let k_ty = 5
let k_ma = 6
let kind_tags = [| sec_so; sec_na; sec_te; sec_ro; sec_cl; sec_ty; sec_ma |]
let kind_words = [| so_words; na_words; te_words; ro_words; cl_words; ty_words; ma_words |]
let kind_names = [| "so"; "na"; "te"; "ro"; "cl"; "ty"; "ma" |]

(* Record width of kind [k] in a file of format version [ver]: only the
   ro record changed shape between versions. *)
let kind_words_v ver k =
  if k = k_ro && ver < 2 then ro_words_v1 else kind_words.(k)

type layout = {
  lay_ver : int;
  lay_flags : int;
  lay_diag_count : int;
  lay_version_sid : int;
  lay_str_count : int;
  lay_str_cum_base : int;   (* byte offset of the cumulative-offset table *)
  lay_str_blob_base : int;  (* byte offset of the string blob *)
  lay_aux_base : int;       (* byte offset of the first aux word *)
  lay_aux_count : int;      (* words in the aux section *)
  lay_sects : (int * int) array;
      (* per kind: byte offset of the first record, record count *)
}

let layout (b : buf) : layout =
  let total = blen b in
  if total < header_bytes then
    err "truncated header: %d bytes, need at least %d" total header_bytes;
  for i = 0 to 3 do
    if Bigarray.Array1.get b i <> magic.[i] then
      err "bad magic: not a PDB-B file"
  done;
  let ver = u32 b 4 in
  if ver < min_format_version || ver > format_version then
    err "unsupported PDB-B format version %d (reader supports %d..%d)" ver
      min_format_version format_version;
  let flags = u32 b 8 in
  let diag_count = i32 b 12 in
  let version_sid = u32 b 16 in
  let nsec = u32 b 20 in
  if nsec < 0 || nsec > 64 then err "implausible section count %d" nsec;
  if header_bytes + (12 * nsec) > total then
    err "section table of %d entries exceeds file size %d" nsec total;
  let sections = Hashtbl.create 16 in
  for i = 0 to nsec - 1 do
    let base = header_bytes + (12 * i) in
    let tag = u32 b base in
    let off = u32 b (base + 4) in
    let len = u32 b (base + 8) in
    if off < 0 || len < 0 || off + len > total then
      err "section %d (tag %d): range [%d..%d) exceeds file size %d" i tag off
        (off + len) total;
    if Hashtbl.mem sections tag then err "duplicate section tag %d" tag;
    Hashtbl.add sections tag (off, len)
  done;
  let section tag what =
    match Hashtbl.find_opt sections tag with
    | Some r -> r
    | None -> err "missing %s section (tag %d)" what tag
  in
  let str_off, str_len = section sec_strings "strings" in
  if str_len < 4 then err "strings section: %d bytes is too short" str_len;
  let str_count = u32 b str_off in
  if str_count < 0 || (4 * (str_count + 2)) > str_len then
    err "strings section: count %d does not fit in %d bytes" str_count str_len;
  let cum_base = str_off + 4 in
  let blob_base = cum_base + (4 * (str_count + 1)) in
  let blob_len = str_len - 4 - (4 * (str_count + 1)) in
  let last = ref 0 in
  for i = 0 to str_count do
    let v = u32 b (cum_base + (4 * i)) in
    if v < !last then err "strings section: offsets not monotonic at %d" i;
    last := v
  done;
  if !last > blob_len then
    err "strings section: blob needs %d bytes, only %d present" !last blob_len;
  let aux_off, aux_len = section sec_aux "aux" in
  if aux_len < 4 then err "aux section: %d bytes is too short" aux_len;
  let aux_count = u32 b aux_off in
  if aux_count < 0 || 4 + (4 * aux_count) > aux_len then
    err "aux section: count %d does not fit in %d bytes" aux_count aux_len;
  let sects =
    Array.init n_kinds (fun k ->
        let what = kind_names.(k) and words = kind_words_v ver k in
        let off, len = section kind_tags.(k) what in
        if len < 4 then err "%s section: %d bytes is too short" what len;
        let count = u32 b off in
        if count < 0 || 4 + (4 * words * count) > len then
          err "%s section: %d records of %d words do not fit in %d bytes" what
            count words len;
        (off + 4, count))
  in
  { lay_ver = ver; lay_flags = flags; lay_diag_count = diag_count;
    lay_version_sid = version_sid; lay_str_count = str_count;
    lay_str_cum_base = cum_base; lay_str_blob_base = blob_base;
    lay_aux_base = aux_off + 4; lay_aux_count = aux_count;
    lay_sects = sects }

(* Decode the whole PDB from [b], whose [layout] is [lay].  Every pool
   string is referenced by some record, so the pool is extracted up
   front. *)
let decode (b : buf) (lay : layout) : Pdb.t =
  let strings =
    Array.init lay.lay_str_count (fun i ->
        let o = u32 b (lay.lay_str_cum_base + (4 * i)) in
        let o' = u32 b (lay.lay_str_cum_base + (4 * (i + 1))) in
        extract_string b (lay.lay_str_blob_base + o) (o' - o))
  in
  let r =
    { buf = b; strings; aux_base = lay.lay_aux_base;
      aux_count = lay.lay_aux_count; rver = lay.lay_ver }
  in
  let items k decode_one =
    let base, count = lay.lay_sects.(k) in
    let words = kind_words_v lay.lay_ver k in
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) (decode_one r (base + (4 * words * i)) :: acc)
    in
    go (count - 1) []
  in
  let t = Pdb.create () in
  t.version <- fetch_string r lay.lay_version_sid "header version";
  t.incomplete <- lay.lay_flags land 1 <> 0;
  t.diag_count <- lay.lay_diag_count;
  t.files <- items k_so decode_so;
  t.namespaces <- items k_na decode_na;
  t.templates <- items k_te decode_te;
  t.routines <- items k_ro decode_ro;
  t.classes <- items k_cl decode_cl;
  t.types <- items k_ty decode_ty;
  t.pdb_macros <- items k_ma decode_ma;
  t

let of_bigarray (b : buf) : Pdb.t =
  Pdt_util.Fault.check "pdb.bin_read";
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.bin_read" @@ fun () -> decode b (layout b)

let bigarray_of_string (s : string) : buf =
  let n = String.length s in
  let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set b i (String.unsafe_get s i)
  done;
  b

let of_string (s : string) : Pdb.t = of_bigarray (bigarray_of_string s)

(* The zero-copy path: map the file and decode records straight out of
   the mapping.  The mapping lives as long as the Bigarray, i.e. until
   the last decoded value stops referencing it — decoded PDBs copy what
   they keep (strings), so the map is collectable as soon as decode
   returns. *)
let map_path (path : string) : buf =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then
        err "%s: truncated header: %d bytes, need at least %d" path size
          header_bytes;
      let g =
        Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
      in
      Bigarray.array1_of_genarray g)

let of_file (path : string) : Pdb.t = of_bigarray (map_path path)

(* Format sniffing: a PDB-B file opens with "PDBB", the ASCII format
   with "<PDB ".  Used by {!Pdb_io} and the CLI tools. *)
let is_binary_string (s : string) : bool =
  String.length s >= 4 && String.sub s 0 4 = magic

let is_binary_file (path : string) : bool =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      let r =
        try
          let hd = really_input_string ic 4 in
          hd = magic
        with End_of_file -> false
      in
      close_in ic;
      r

(* ------------------------------------------------------------------ *)
(* Validated open                                                     *)
(* ------------------------------------------------------------------ *)

(** A mapped PDB-B file whose layout has been validated: opening checks
    the header, the section table and every section's extent without
    decoding a record, and {!to_pdb} decodes from that layout.  pdbd
    opens its database this way on every load and reload. *)
module View : sig
  type t
  val of_file : string -> t
  val of_string : string -> t
  val to_pdb : t -> Pdb.t
end = struct
  type t = { buf : buf; lay : layout }

  let of_bigarray (b : buf) : t =
    Pdt_util.Fault.check "pdb.bin_read";
    Pdt_util.Trace.timed ~cat:"pdb" "pdb.view_open" @@ fun () ->
    { buf = b; lay = layout b }

  let of_file (path : string) : t = of_bigarray (map_path path)
  let of_string (s : string) : t = of_bigarray (bigarray_of_string s)

  (** The whole PDB, as the eager loaders decode it. *)
  let to_pdb v : Pdb.t = decode v.buf v.lay
end
