(** PDB serialization: the compact ASCII format of Figure 3.

    Each item is a block: a first line [<prefix>#<id> <name>] followed by one
    attribute per line, and a blank line between items.  Multi-line text
    (template and macro bodies) is escaped.

    The emitters append to the output buffer directly — no [Printf] format
    interpretation and no intermediate strings on the per-line hot path.
    The [*_str] helpers remain for callers that want standalone fragments. *)

open Pdb

let escape_text s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\n' -> Buffer.add_string b "\\n"
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape_text s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else if s.[i] = '\\' && i + 1 < n then begin
      (match s.[i + 1] with
       | 'n' -> Buffer.add_char b '\n'
       | '\\' -> Buffer.add_char b '\\'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
      go (i + 2)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* Ids, lines and columns are non-negative: their digits go straight into
   the buffer, with no format interpretation and no intermediate string.
   A negative (only an array's [ysize] can be one) keeps [string_of_int]. *)
let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let add_loc b (l : loc) =
  if l.lfile = 0 then Buffer.add_string b "NULL 0 0"
  else begin
    Buffer.add_string b "so#";
    add_int b l.lfile;
    Buffer.add_char b ' ';
    add_int b l.lline;
    Buffer.add_char b ' ';
    add_int b l.lcol
  end

let add_extent b (e : extent) =
  add_loc b e.hstart;
  Buffer.add_char b ' ';
  add_loc b e.hstop;
  Buffer.add_char b ' ';
  add_loc b e.bstart;
  Buffer.add_char b ' ';
  add_loc b e.bstop

let add_typeref b = function
  | Tyref id ->
      Buffer.add_string b "ty#";
      add_int b id
  | Clref id ->
      Buffer.add_string b "cl#";
      add_int b id

let add_itemref b r =
  let p, id =
    match r with
    | Rso id -> ("so#", id)
    | Rro id -> ("ro#", id)
    | Rcl id -> ("cl#", id)
    | Rty id -> ("ty#", id)
    | Rte id -> ("te#", id)
    | Rna id -> ("na#", id)
    | Rma id -> ("ma#", id)
  in
  Buffer.add_string b p;
  add_int b id

let in_buf n f =
  let b = Buffer.create n in
  f b;
  Buffer.contents b

let loc_str (l : loc) = in_buf 24 (fun b -> add_loc b l)
let extent_str (e : extent) = in_buf 96 (fun b -> add_extent b e)

let parent_str = function
  | Pcl id -> Some ("cl#" ^ string_of_int id)
  | Pna id -> Some ("na#" ^ string_of_int id)
  | Pnone -> None

let write_to_buffer (t : t) (b : Buffer.t) : unit =
  let str s = Buffer.add_string b s in
  let ch c = Buffer.add_char b c in
  let nl () = ch '\n' in
  (* "key value" for a string-valued attribute *)
  let kv k v = str k; ch ' '; str v; nl () in
  let kloc k l = str k; ch ' '; add_loc b l; nl () in
  let kextent k e = str k; ch ' '; add_extent b e; nl () in
  let ktyperef k r = str k; ch ' '; add_typeref b r; nl () in
  (* "key so#" ^ id — for attributes whose value is a single reference *)
  let kid k id = str k; add_int b id; nl () in
  let flag k = str k; nl () in
  let header prefix id name = str prefix; add_int b id; ch ' '; str name; nl () in
  let parent k = function
    | Pcl id -> str k; str " cl#"; add_int b id; nl ()
    | Pna id -> str k; str " na#"; add_int b id; nl ()
    | Pnone -> ()
  in
  str "<PDB ";
  str t.version;
  if t.incomplete then begin
    str " incomplete ";
    add_int b t.diag_count
  end;
  str ">\n";
  nl ();
  (* source files *)
  List.iter
    (fun f ->
      header "so#" f.so_id f.so_name;
      List.iter (fun i -> kid "sinc so#" i) f.so_includes;
      nl ())
    t.files;
  (* namespaces *)
  List.iter
    (fun n ->
      header "na#" n.na_id n.na_name;
      if n.na_loc <> null_loc then kloc "nloc" n.na_loc;
      parent "nparent" n.na_parent;
      List.iter (fun r -> str "nmem "; add_itemref b r; nl ()) n.na_members;
      Option.iter (fun a -> kv "nalias" a) n.na_alias;
      nl ())
    t.namespaces;
  (* templates *)
  List.iter
    (fun te ->
      header "te#" te.te_id te.te_name;
      if te.te_loc <> null_loc then kloc "tloc" te.te_loc;
      parent "tparent" te.te_parent;
      if te.te_acs <> "NA" then kv "tacs" te.te_acs;
      kv "tkind" te.te_kind;
      if te.te_text <> "" then kv "ttext" (escape_text te.te_text);
      if te.te_pos <> null_extent then kextent "tpos" te.te_pos;
      nl ())
    t.templates;
  (* routines *)
  List.iter
    (fun r ->
      header "ro#" r.ro_id r.ro_name;
      if r.ro_loc <> null_loc then kloc "rloc" r.ro_loc;
      (match r.ro_parent with
       | Pcl id -> kid "rclass cl#" id
       | Pna id -> kid "rnspace na#" id
       | Pnone -> ());
      if r.ro_acs <> "NA" then kv "racs" r.ro_acs;
      ktyperef "rsig" r.ro_sig;
      kv "rlink" r.ro_link;
      kv "rstore" r.ro_store;
      kv "rvirt" r.ro_virt;
      if r.ro_kind <> "NA" then kv "rkind" r.ro_kind;
      if r.ro_static then flag "rstatic";
      if r.ro_inline then flag "rinline";
      Option.iter (fun te -> kid "rtempl te#" te) r.ro_templ;
      List.iter
        (fun c ->
          str "rcall ro#";
          add_int b c.c_callee;
          str (if c.c_virt then " virt " else " no ");
          add_loc b c.c_loc;
          nl ())
        r.ro_calls;
      List.iter
        (fun s ->
          str "rspawn ro#";
          add_int b s.sp_callee;
          ch ' ';
          add_loc b s.sp_loc;
          (match s.sp_join with
           | Some j ->
               str " joined ";
               add_loc b j
           | None -> str " live");
          nl ())
        r.ro_spawns;
      List.iter
        (fun v ->
          kv "rdu" v.v_name;
          List.iter (fun l -> kloc "rdudef" l) v.v_defs;
          List.iter
            (fun u ->
              str "rduuse ";
              add_loc b u.u_loc;
              ch ' ';
              str (du_spec_of_use u);
              nl ())
            v.v_uses)
        r.ro_du;
      if r.ro_defined then flag "rdef";
      if r.ro_pos <> null_extent then kextent "rpos" r.ro_pos;
      nl ())
    t.routines;
  (* classes *)
  List.iter
    (fun c ->
      header "cl#" c.cl_id c.cl_name;
      if c.cl_loc <> null_loc then kloc "cloc" c.cl_loc;
      kv "ckind" c.cl_kind;
      parent "cparent" c.cl_parent;
      if c.cl_acs <> "NA" then kv "cacs" c.cl_acs;
      Option.iter (fun te -> kid "ctempl te#" te) c.cl_templ;
      Option.iter (fun te -> kid "cstempl te#" te) c.cl_stempl;
      List.iter
        (fun (acs, virt, base) ->
          str "cbase ";
          str acs;
          str (if virt then " virt cl#" else " no cl#");
          add_int b base;
          nl ())
        c.cl_bases;
      List.iter
        (function
          | `Cl id -> kid "cfriend cl#" id
          | `Ro id -> kid "cfriend ro#" id)
        c.cl_friends;
      List.iter
        (fun (ro, l) ->
          str "cfunc ro#";
          add_int b ro;
          ch ' ';
          add_loc b l;
          nl ())
        c.cl_funcs;
      List.iter
        (fun m ->
          kv "cmem" m.m_name;
          kloc "cmloc" m.m_loc;
          kv "cmacs" m.m_acs;
          kv "cmkind" m.m_kind;
          ktyperef "cmtype" m.m_type;
          if m.m_static then flag "cmstatic";
          if m.m_mutable then flag "cmmutable")
        c.cl_members;
      if c.cl_pos <> null_extent then kextent "cpos" c.cl_pos;
      nl ())
    t.classes;
  (* types *)
  List.iter
    (fun ty ->
      header "ty#" ty.ty_id ty.ty_name;
      if ty.ty_loc <> null_loc then kloc "yloc" ty.ty_loc;
      parent "yparent" ty.ty_parent;
      if ty.ty_acs <> "NA" then kv "yacs" ty.ty_acs;
      (match ty.ty_info with
       | Ybuiltin { yikind } ->
           kv "ykind" ty.ty_name;
           kv "yikind" yikind
       | Yptr r ->
           flag "ykind ptr";
           ktyperef "yptr" r
       | Yref r ->
           flag "ykind ref";
           ktyperef "yref" r
       | Ytref { target; yconst; yvolatile } ->
           flag "ykind tref";
           ktyperef "ytref" target;
           if yconst then flag "yqual const";
           if yvolatile then flag "yqual volatile"
       | Yarray { elem; size } ->
           flag "ykind array";
           ktyperef "yelem" elem;
           Option.iter (fun n -> str "ysize "; add_int b n; nl ()) size
       | Yfunc { rett; args; ellipsis; cqual; exceptions } ->
           flag "ykind func";
           ktyperef "yrett" rett;
           List.iter
             (fun (r, d) ->
               str "yargt ";
               add_typeref b r;
               str (if d then " T" else " F");
               nl ())
             args;
           if ellipsis then flag "yellip";
           if cqual then flag "yqual const";
           Option.iter
             (fun refs ->
               str "yexcep ";
               List.iteri
                 (fun i r ->
                   if i > 0 then ch ' ';
                   add_typeref b r)
                 refs;
               nl ())
             exceptions
       | Yenum { constants } ->
           flag "ykind enum";
           List.iter
             (fun (n, v) ->
               str "ycon ";
               str n;
               ch ' ';
               str (Int64.to_string v);
               nl ())
             constants
       | Ytparam -> flag "ykind tparam"
       | Yerror -> flag "ykind error");
      List.iter (fun n -> kv "yname" n) ty.ty_names;
      nl ())
    t.types;
  (* macros *)
  List.iter
    (fun m ->
      header "ma#" m.ma_id m.ma_name;
      kv "makind" m.ma_kind;
      if m.ma_text <> "" then kv "matext" (escape_text m.ma_text);
      if m.ma_loc <> null_loc then kloc "maloc" m.ma_loc;
      nl ())
    t.pdb_macros

let to_string (t : t) : string =
  Pdt_util.Trace.timed ~cat:"pdb" "pdb.write" @@ fun () ->
  let b = Buffer.create 65536 in
  write_to_buffer t b;
  Buffer.contents b

let to_file (t : t) path : unit =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
