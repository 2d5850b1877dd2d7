(** The general PDB reader, and the reference the tests hold
    {!Pdb_parse} to.

    This is the seed multi-pass parser ([String.split_on_char] into
    lines, a list-of-blocks intermediate, per-line [String.trim]).  It
    reads any spelling of the format: CR line ends, tabs and extra
    blanks, signed, hex or underscored numbers, fields the format ignores.
    It also defines every [Parse_error] line and message, in two passes:
    structure (item ids, attributes inside a block) is checked over the
    whole document before any attribute is read, so a structural error on
    a late line wins over a semantic error on an early one.

    {!Pdb_parse} reads a document in the writer's spelling itself and
    hands any other document here.  [test_pdb], [test_fuzz], [test_mhp]
    and [test_duchains] compare the two readers. *)

open Pdb

exception Parse_error of int * string
(** line number, message *)

let fail lineno fmt = Printf.ksprintf (fun m -> raise (Parse_error (lineno, m))) fmt

(* split "so#12" into ("so", 12) *)
let split_id lineno s =
  match String.index_opt s '#' with
  | None -> fail lineno "malformed item id '%s'" s
  | Some i -> (
      let prefix = String.sub s 0 i in
      let num = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt num with
      | Some n -> (prefix, n)
      | None -> fail lineno "malformed item id '%s'" s)

let parse_typeref lineno s =
  match split_id lineno s with
  | "ty", n -> Tyref n
  | "cl", n -> Clref n
  | p, _ -> fail lineno "expected type reference, got '%s#'" p

let parse_parentref lineno s =
  match split_id lineno s with
  | "cl", n -> Pcl n
  | "na", n -> Pna n
  | p, _ -> fail lineno "expected parent reference, got '%s#'" p

let parse_itemref lineno s =
  match split_id lineno s with
  | "so", n -> Rso n
  | "ro", n -> Rro n
  | "cl", n -> Rcl n
  | "ty", n -> Rty n
  | "te", n -> Rte n
  | "na", n -> Rna n
  | "ma", n -> Rma n
  | p, _ -> fail lineno "unknown item prefix '%s'" p

(* parse "so#3 12 7" or "NULL 0 0" from a word list; returns loc and rest *)
let parse_loc_words lineno words =
  match words with
  | "NULL" :: _ :: _ :: rest -> (null_loc, rest)
  | f :: l :: c :: rest -> (
      match (split_id lineno f, int_of_string_opt l, int_of_string_opt c) with
      | ("so", fid), Some l, Some c -> ({ lfile = fid; lline = l; lcol = c }, rest)
      | _ -> fail lineno "malformed location")
  | _ -> fail lineno "truncated location"

let parse_loc lineno s = fst (parse_loc_words lineno (String.split_on_char ' ' s))

let parse_extent lineno s =
  let ws = String.split_on_char ' ' s in
  let hstart, ws = parse_loc_words lineno ws in
  let hstop, ws = parse_loc_words lineno ws in
  let bstart, ws = parse_loc_words lineno ws in
  let bstop, _ = parse_loc_words lineno ws in
  { hstart; hstop; bstart; bstop }

(* a block: header line + attribute lines *)
type block = {
  b_lineno : int;
  b_prefix : string;
  b_id : int;
  b_name : string;
  b_attrs : (int * string * string) list;  (* lineno, key, rest-of-line *)
}

let split_blocks (src : string) : string option * block list =
  let lines = String.split_on_char '\n' src in
  let header = ref None in
  let blocks = ref [] in
  let cur : block option ref = ref None in
  let flush () =
    match !cur with
    | Some b ->
        blocks := { b with b_attrs = List.rev b.b_attrs } :: !blocks;
        cur := None
    | None -> ()
  in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" then flush ()
      else if String.length line > 5 && String.sub line 0 5 = "<PDB " then
        header := Some (String.sub line 5 (String.length line - 6))
      else begin
        let key, rest =
          match String.index_opt line ' ' with
          | Some j ->
              (String.sub line 0 j, String.sub line (j + 1) (String.length line - j - 1))
          | None -> (line, "")
        in
        if String.contains key '#' then begin
          flush ();
          let prefix, id = split_id lineno key in
          cur := Some { b_lineno = lineno; b_prefix = prefix; b_id = id;
                        b_name = rest; b_attrs = [] }
        end
        else
          match !cur with
          | Some b -> cur := Some { b with b_attrs = (lineno, key, rest) :: b.b_attrs }
          | None -> fail lineno "attribute '%s' outside of an item block" key
      end)
    lines;
  flush ();
  (!header, List.rev !blocks)

(* Each item's lists are built newest first and reversed when the item is
   done, so a long list costs one pass, not one copy per attribute. *)
let of_string (src : string) : t =
  let header, blocks = split_blocks src in
  let t = create () in
  Option.iter (set_header t) header;
  let files = ref [] and types = ref [] and classes = ref [] in
  let routines = ref [] and templates = ref [] and namespaces = ref [] in
  let macros = ref [] in
  List.iter
    (fun b ->
      let ln = b.b_lineno in
      match b.b_prefix with
      | "so" ->
          let f = { so_id = b.b_id; so_name = b.b_name; so_includes = [] } in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "sinc" -> (
                  match split_id ln v with
                  | "so", n -> f.so_includes <- n :: f.so_includes
                  | _ -> fail ln "sinc expects so# reference")
              | _ -> fail ln "unknown so attribute '%s'" k)
            b.b_attrs;
          f.so_includes <- List.rev f.so_includes;
          files := f :: !files
      | "na" ->
          let n =
            { na_id = b.b_id; na_name = b.b_name; na_loc = null_loc;
              na_parent = Pnone; na_members = []; na_alias = None }
          in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "nloc" -> n.na_loc <- parse_loc ln v
              | "nparent" -> n.na_parent <- parse_parentref ln v
              | "nmem" -> n.na_members <- parse_itemref ln v :: n.na_members
              | "nalias" -> n.na_alias <- Some v
              | _ -> fail ln "unknown na attribute '%s'" k)
            b.b_attrs;
          n.na_members <- List.rev n.na_members;
          namespaces := n :: !namespaces
      | "te" ->
          let te =
            { te_id = b.b_id; te_name = b.b_name; te_loc = null_loc;
              te_parent = Pnone; te_acs = "NA"; te_kind = "class"; te_text = "";
              te_pos = null_extent }
          in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "tloc" -> te.te_loc <- parse_loc ln v
              | "tparent" -> te.te_parent <- parse_parentref ln v
              | "tacs" -> te.te_acs <- v
              | "tkind" -> te.te_kind <- v
              | "ttext" -> te.te_text <- Pdb_write.unescape_text v
              | "tpos" -> te.te_pos <- parse_extent ln v
              | _ -> fail ln "unknown te attribute '%s'" k)
            b.b_attrs;
          templates := te :: !templates
      | "ro" ->
          let r =
            { ro_id = b.b_id; ro_name = b.b_name; ro_loc = null_loc;
              ro_parent = Pnone; ro_acs = "NA"; ro_sig = Tyref 0; ro_link = "C++";
              ro_store = "NA"; ro_virt = "no"; ro_kind = "NA"; ro_static = false;
              ro_inline = false; ro_templ = None; ro_calls = []; ro_spawns = [];
              ro_du = []; ro_pos = null_extent; ro_defined = false }
          in
          let pending_du : du_var option ref = ref None in
          let flush_du () =
            match !pending_du with
            | Some v ->
                r.ro_du <-
                  { v with v_defs = List.rev v.v_defs; v_uses = List.rev v.v_uses } :: r.ro_du;
                pending_du := None
            | None -> ()
          in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "rloc" -> r.ro_loc <- parse_loc ln v
              | "rclass" -> r.ro_parent <- parse_parentref ln v
              | "rnspace" -> r.ro_parent <- parse_parentref ln v
              | "racs" -> r.ro_acs <- v
              | "rsig" -> r.ro_sig <- parse_typeref ln v
              | "rlink" -> r.ro_link <- v
              | "rstore" -> r.ro_store <- v
              | "rvirt" -> r.ro_virt <- v
              | "rkind" -> r.ro_kind <- v
              | "rstatic" -> r.ro_static <- true
              | "rinline" -> r.ro_inline <- true
              | "rtempl" -> (
                  match split_id ln v with
                  | "te", n -> r.ro_templ <- Some n
                  | _ -> fail ln "rtempl expects te# reference")
              | "rcall" -> (
                  match String.split_on_char ' ' v with
                  | callee :: virt :: rest -> (
                      match split_id ln callee with
                      | "ro", n ->
                          let l, _ = parse_loc_words ln rest in
                          r.ro_calls <-
                            { c_callee = n; c_virt = virt = "virt"; c_loc = l } :: r.ro_calls
                      | _ -> fail ln "rcall expects ro# reference")
                  | _ -> fail ln "malformed rcall")
              | "rspawn" -> (
                  match String.split_on_char ' ' v with
                  | callee :: rest -> (
                      match split_id ln callee with
                      | "ro", n -> (
                          let l, rest = parse_loc_words ln rest in
                          let sp =
                            match rest with
                            | [] -> fail ln "malformed rspawn"
                            | "joined" :: rest2 ->
                                let j, _ = parse_loc_words ln rest2 in
                                { sp_callee = n; sp_loc = l; sp_join = Some j }
                            | "live" :: _ ->
                                { sp_callee = n; sp_loc = l; sp_join = None }
                            | _ ->
                                fail ln "rspawn expects 'joined <loc>' or 'live'"
                          in
                          r.ro_spawns <- sp :: r.ro_spawns)
                      | _ -> fail ln "rspawn expects ro# reference")
                  | [] -> fail ln "malformed rspawn")
              | "rdu" ->
                  flush_du ();
                  pending_du := Some { v_name = v; v_defs = []; v_uses = [] }
              | "rdudef" | "rduuse" -> (
                  match !pending_du with
                  | None -> fail ln "define-use attribute without rdu"
                  | Some dv ->
                      if k = "rdudef" then
                        pending_du :=
                          Some { dv with v_defs = parse_loc ln v :: dv.v_defs }
                      else
                        let l, rest =
                          parse_loc_words ln (String.split_on_char ' ' v)
                        in
                        (match rest with
                         | [] -> fail ln "malformed rduuse"
                         | spec :: _ -> (
                             match du_use_of_spec spec with
                             | None -> fail ln "malformed rduuse reach spec"
                             | Some (reach, uninit) ->
                                 pending_du :=
                                   Some
                                     { dv with
                                       v_uses =
                                         { u_loc = l; u_reach = reach; u_uninit = uninit }
                                         :: dv.v_uses })))
              | "rdef" -> r.ro_defined <- true
              | "rpos" -> r.ro_pos <- parse_extent ln v
              | _ -> fail ln "unknown ro attribute '%s'" k)
            b.b_attrs;
          flush_du ();
          r.ro_du <- List.rev r.ro_du;
          r.ro_calls <- List.rev r.ro_calls;
          r.ro_spawns <- List.rev r.ro_spawns;
          routines := r :: !routines
      | "cl" ->
          let c =
            { cl_id = b.b_id; cl_name = b.b_name; cl_loc = null_loc;
              cl_kind = "class"; cl_parent = Pnone; cl_acs = "NA"; cl_templ = None;
              cl_stempl = None; cl_bases = []; cl_friends = []; cl_funcs = [];
              cl_members = []; cl_pos = null_extent }
          in
          let pending_member : member option ref = ref None in
          let flush_member () =
            match !pending_member with
            | Some m ->
                c.cl_members <- m :: c.cl_members;
                pending_member := None
            | None -> ()
          in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "cloc" -> c.cl_loc <- parse_loc ln v
              | "ckind" -> c.cl_kind <- v
              | "cparent" -> c.cl_parent <- parse_parentref ln v
              | "cacs" -> c.cl_acs <- v
              | "ctempl" -> (
                  match split_id ln v with
                  | "te", n -> c.cl_templ <- Some n
                  | _ -> fail ln "ctempl expects te# reference")
              | "cstempl" -> (
                  match split_id ln v with
                  | "te", n -> c.cl_stempl <- Some n
                  | _ -> fail ln "cstempl expects te# reference")
              | "cbase" -> (
                  match String.split_on_char ' ' v with
                  | [ acs; virt; base ] -> (
                      match split_id ln base with
                      | "cl", n -> c.cl_bases <- (acs, virt = "virt", n) :: c.cl_bases
                      | _ -> fail ln "cbase expects cl# reference")
                  | _ -> fail ln "malformed cbase")
              | "cfriend" -> (
                  match split_id ln v with
                  | "cl", n -> c.cl_friends <- `Cl n :: c.cl_friends
                  | "ro", n -> c.cl_friends <- `Ro n :: c.cl_friends
                  | _ -> fail ln "cfriend expects cl# or ro#")
              | "cfunc" -> (
                  match String.split_on_char ' ' v with
                  | ro :: rest -> (
                      match split_id ln ro with
                      | "ro", n ->
                          let l, _ = parse_loc_words ln rest in
                          c.cl_funcs <- (n, l) :: c.cl_funcs
                      | _ -> fail ln "cfunc expects ro# reference")
                  | _ -> fail ln "malformed cfunc")
              | "cmem" ->
                  flush_member ();
                  pending_member :=
                    Some { m_name = v; m_loc = null_loc; m_acs = "NA"; m_kind = "var";
                           m_type = Tyref 0; m_static = false; m_mutable = false }
              | "cmloc" | "cmacs" | "cmkind" | "cmtype" | "cmstatic" | "cmmutable" -> (
                  match !pending_member with
                  | None -> fail ln "member attribute without cmem"
                  | Some m ->
                      let m' =
                        match k with
                        | "cmloc" -> { m with m_loc = parse_loc ln v }
                        | "cmacs" -> { m with m_acs = v }
                        | "cmkind" -> { m with m_kind = v }
                        | "cmtype" -> { m with m_type = parse_typeref ln v }
                        | "cmstatic" -> { m with m_static = true }
                        | _ -> { m with m_mutable = true }
                      in
                      pending_member := Some m')
              | "cpos" -> c.cl_pos <- parse_extent ln v
              | _ -> fail ln "unknown cl attribute '%s'" k)
            b.b_attrs;
          flush_member ();
          c.cl_members <- List.rev c.cl_members;
          c.cl_bases <- List.rev c.cl_bases;
          c.cl_friends <- List.rev c.cl_friends;
          c.cl_funcs <- List.rev c.cl_funcs;
          classes := c :: !classes
      | "ty" ->
          let info = ref Yerror in
          let loc = ref null_loc and parent = ref Pnone and acs = ref "NA" in
          let names = ref [] in
          let kind = ref "" in
          let yikind = ref "" and target = ref (Tyref 0) in
          let quals_const = ref false and quals_vol = ref false in
          let elem = ref (Tyref 0) and size = ref None in
          let rett = ref (Tyref 0) and args = ref [] and ellip = ref false in
          let excep = ref None in
          let constants = ref [] in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "yloc" -> loc := parse_loc ln v
              | "yparent" -> parent := parse_parentref ln v
              | "yacs" -> acs := v
              | "ykind" -> kind := v
              | "yikind" -> yikind := v
              | "yptr" | "yref" | "ytref" -> target := parse_typeref ln v
              | "yqual" ->
                  if v = "const" then quals_const := true
                  else if v = "volatile" then quals_vol := true
              | "yelem" -> elem := parse_typeref ln v
              | "ysize" -> size := int_of_string_opt v
              | "yrett" -> rett := parse_typeref ln v
              | "yargt" -> (
                  match String.split_on_char ' ' v with
                  | [ r; d ] -> args := (parse_typeref ln r, d = "T") :: !args
                  | [ r ] -> args := (parse_typeref ln r, false) :: !args
                  | _ -> fail ln "malformed yargt")
              | "yellip" -> ellip := true
              | "yexcep" ->
                  excep :=
                    Some
                      (List.map (parse_typeref ln)
                         (List.filter (fun s -> s <> "") (String.split_on_char ' ' v)))
              | "ycon" -> (
                  match String.split_on_char ' ' v with
                  | [ n; value ] -> (
                      match Int64.of_string_opt value with
                      | Some x -> constants := (n, x) :: !constants
                      | None -> fail ln "malformed ycon value")
                  | _ -> fail ln "malformed ycon")
              | "yname" -> names := v :: !names
              | _ -> fail ln "unknown ty attribute '%s'" k)
            b.b_attrs;
          info :=
            (match !kind with
             | "ptr" -> Yptr !target
             | "ref" -> Yref !target
             | "tref" -> Ytref { target = !target; yconst = !quals_const; yvolatile = !quals_vol }
             | "array" -> Yarray { elem = !elem; size = !size }
             | "func" ->
                 Yfunc { rett = !rett; args = List.rev !args; ellipsis = !ellip;
                         cqual = !quals_const; exceptions = !excep }
             | "enum" -> Yenum { constants = List.rev !constants }
             | "tparam" -> Ytparam
             | "error" -> Yerror
             | _ -> Ybuiltin { yikind = !yikind });
          types :=
            { ty_id = b.b_id; ty_name = b.b_name; ty_loc = !loc; ty_parent = !parent;
              ty_acs = !acs; ty_info = !info; ty_names = List.rev !names }
            :: !types
      | "ma" ->
          let m =
            { ma_id = b.b_id; ma_name = b.b_name; ma_kind = "def"; ma_text = "";
              ma_loc = null_loc }
          in
          List.iter
            (fun (ln, k, v) ->
              match k with
              | "makind" -> m.ma_kind <- v
              | "matext" -> m.ma_text <- Pdb_write.unescape_text v
              | "maloc" -> m.ma_loc <- parse_loc ln v
              | _ -> fail ln "unknown ma attribute '%s'" k)
            b.b_attrs;
          macros := m :: !macros
      | p -> fail ln "unknown item prefix '%s'" p)
    blocks;
  if header = None then fail 1 "no <PDB header line";
  t.files <- List.rev !files;
  t.types <- List.rev !types;
  t.classes <- List.rev !classes;
  t.routines <- List.rev !routines;
  t.templates <- List.rev !templates;
  t.namespaces <- List.rev !namespaces;
  t.pdb_macros <- List.rev !macros;
  t
