(* PDB format tests: writer/parser roundtrip, escaping, property tests,
   and cross-checks of the single-pass cursor parser against the seed
   reference parser (same structure on valid input, same Parse_error line
   numbers and messages on malformed input). *)

module P = Pdt_pdb.Pdb
module W = Pdt_pdb.Pdb_write
module R = Pdt_pdb.Pdb_parse
module Ref = Pdt_pdb.Pdb_parse_ref

let roundtrip pdb =
  let s = W.to_string pdb in
  let pdb' = R.of_string s in
  let s' = W.to_string pdb' in
  (s, s')

let test_empty () =
  let s, s' = roundtrip (P.create ()) in
  Alcotest.(check string) "empty roundtrip" s s'

let test_stack_roundtrip () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "stack roundtrip" s s'

let test_krylov_roundtrip () =
  let vfs = Pdt_workloads.Pooma_like.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Pooma_like.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "krylov roundtrip" s s'

let test_text_escaping () =
  Alcotest.(check string) "escape" "a\\nb\\\\c" (W.escape_text "a\nb\\c");
  Alcotest.(check string) "unescape" "a\nb\\c" (W.unescape_text "a\\nb\\\\c");
  let prop s = W.unescape_text (W.escape_text s) = s in
  Alcotest.(check bool) "multi-line template text" true
    (prop "template <class T>\nclass X {\n  int f();\n};")

let test_parse_error_reporting () =
  (match R.of_string "bogus line without item\n" with
   | exception R.Parse_error (1, _) -> ()
   | _ -> Alcotest.fail "expected parse error");
  match R.of_string "ro#1 f\nrsig banana\n" with
  | exception R.Parse_error (2, _) -> ()
  | _ -> Alcotest.fail "expected parse error on bad typeref"

(* a PDB opens with its "<PDB" line: input without one, even empty or
   all blank, is rejected at line 1 by both parsers and by the tools *)
let test_no_header_rejected () =
  List.iter
    (fun src ->
      (match R.of_string src with
       | exception R.Parse_error (1, _) -> ()
       | _ -> Alcotest.failf "%S parsed as a PDB" src);
      match Ref.of_string src with
      | exception Ref.Parse_error (1, _) -> ()
      | _ -> Alcotest.failf "%S parsed as a PDB by the reference parser" src)
    [ ""; "\n"; "  \n\t\n\n"; "so#1 a.cpp\n" ];
  let path = Filename.temp_file "pdt-empty" ".pdb" in
  let rc =
    Pdt_pdb.Pdb_io.with_loaded ~prog:"test" Pdt_pdb.Pdb_io.of_file path
      (fun _ -> 0)
  in
  Sys.remove path;
  Alcotest.(check int) "a 0-byte file is unreadable" 1 rc

let test_null_locations () =
  let pdb = P.create () in
  pdb.P.routines <-
    [ { P.ro_id = 1; ro_name = "f"; ro_loc = P.null_loc; ro_parent = P.Pnone;
        ro_acs = "NA"; ro_sig = P.Tyref 1; ro_link = "C++"; ro_store = "NA";
        ro_virt = "no"; ro_kind = "NA"; ro_static = false; ro_inline = false;
        ro_templ = None; ro_calls = []; ro_spawns = []; ro_du = []; ro_pos = P.null_extent; ro_defined = false } ];
  pdb.P.types <-
    [ { P.ty_id = 1; ty_name = "void ()"; ty_loc = P.null_loc; ty_parent = P.Pnone;
        ty_acs = "NA";
        ty_info = P.Yfunc { rett = P.Tyref 2; args = []; ellipsis = false;
                            cqual = false; exceptions = None };
        ty_names = [] };
      { P.ty_id = 2; ty_name = "void"; ty_loc = P.null_loc; ty_parent = P.Pnone;
        ty_acs = "NA"; ty_info = P.Ybuiltin { yikind = "NA" }; ty_names = [] } ];
  let s, s' = roundtrip pdb in
  Alcotest.(check string) "null locs roundtrip" s s'

(* The writer emits a non-negative int digit by digit: ids, lines and
   columns at each width boundary and at [max_int] must print as
   [string_of_int] prints them, and a negative array size too. *)
let test_integer_widths () =
  let ints = [ 0; 9; 10; 99; 100; 1_000_000; max_int ] in
  let sizes = List.map (fun n -> (n, n)) ints @ [ (1, -1); (2, min_int) ] in
  let s = string_of_int in
  let at n = { P.lfile = max_int; lline = n; lcol = n } in
  let pdb = P.create () in
  pdb.P.incomplete <- true;
  pdb.P.diag_count <- 1_000_000;
  pdb.P.files <-
    List.map (fun n -> { P.so_id = n; so_name = "f.h"; so_includes = [ n ] }) ints;
  pdb.P.routines <-
    List.map
      (fun n ->
        { P.ro_id = n; ro_name = "r"; ro_loc = at n; ro_parent = P.Pnone;
          ro_acs = "NA"; ro_sig = P.Tyref n; ro_link = "C++"; ro_store = "NA";
          ro_virt = "no"; ro_kind = "NA"; ro_static = false; ro_inline = false;
          ro_templ = None; ro_calls = [ { P.c_callee = n; c_virt = false; c_loc = at n } ];
          ro_spawns = []; ro_du = []; ro_pos = P.null_extent; ro_defined = false })
      ints;
  pdb.P.types <-
    List.map
      (fun (n, size) ->
        { P.ty_id = n; ty_name = "a"; ty_loc = P.null_loc; ty_parent = P.Pnone;
          ty_acs = "NA"; ty_info = P.Yarray { elem = P.Tyref n; size = Some size };
          ty_names = [] })
      sizes;
  let expected =
    String.concat ""
      ([ "<PDB " ^ P.current_version ^ " incomplete " ^ s 1_000_000 ^ ">\n\n" ]
      @ List.map (fun n -> "so#" ^ s n ^ " f.h\nsinc so#" ^ s n ^ "\n\n") ints
      @ List.map
          (fun n ->
            let loc = "so#" ^ s max_int ^ " " ^ s n ^ " " ^ s n in
            "ro#" ^ s n ^ " r\nrloc " ^ loc ^ "\nrsig ty#" ^ s n
            ^ "\nrlink C++\nrstore NA\nrvirt no\nrcall ro#" ^ s n ^ " no " ^ loc
            ^ "\n\n")
          ints
      @ List.map
          (fun (n, size) ->
            "ty#" ^ s n ^ " a\nykind array\nyelem ty#" ^ s n ^ "\nysize " ^ s size
            ^ "\n\n")
          sizes)
  in
  let bytes = W.to_string pdb in
  Alcotest.(check string) "digits as string_of_int prints them" expected bytes;
  Alcotest.(check string) "cursor parser round trip" bytes (W.to_string (R.of_string bytes));
  Alcotest.(check string) "reference parser round trip" bytes
    (W.to_string (Ref.of_string bytes))

let test_typeref_names () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  (* every type has a printable, non-empty name *)
  List.iter
    (fun (ty : P.type_item) ->
      let n = P.typeref_name pdb (P.Tyref ty.P.ty_id) in
      Alcotest.(check bool) ("type name nonempty: " ^ n) true (String.length n > 0))
    pdb.P.types

(* ------------------------------------------------------------------ *)
(* Property tests: random PDBs survive write/parse/write               *)
(* ------------------------------------------------------------------ *)

let gen_name =
  QCheck.Gen.(
    let id_char = oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; return '_' ] in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs)) (list_size (int_range 1 12) id_char))

let gen_loc nfiles =
  QCheck.Gen.(
    oneof
      [ return P.null_loc;
        map3
          (fun f l c -> { P.lfile = f; lline = l; lcol = c })
          (int_range 1 (max 1 nfiles)) (int_range 1 500) (int_range 1 120) ])

let gen_pdb : P.t QCheck.Gen.t =
  QCheck.Gen.(
    let* nfiles = int_range 1 4 in
    let* ntypes = int_range 1 6 in
    let* nclasses = int_range 0 4 in
    let* nroutines = int_range 0 5 in
    let* file_names = list_repeat nfiles gen_name in
    let files =
      List.mapi (fun i n -> { P.so_id = i + 1; so_name = n ^ ".h"; so_includes = [] }) file_names
    in
    let* type_names = list_repeat ntypes gen_name in
    let types =
      List.mapi
        (fun i n ->
          { P.ty_id = i + 1; ty_name = n; ty_loc = P.null_loc; ty_parent = P.Pnone;
            ty_acs = "NA"; ty_info = P.Ybuiltin { yikind = "int" }; ty_names = [] })
        type_names
    in
    let* class_names = list_repeat nclasses gen_name in
    let* class_locs = list_repeat nclasses (gen_loc nfiles) in
    let classes =
      List.mapi
        (fun i (n, l) ->
          { P.cl_id = i + 1; cl_name = n; cl_loc = l; cl_kind = "class";
            cl_parent = P.Pnone; cl_acs = "NA"; cl_templ = None; cl_stempl = None;
            cl_bases = []; cl_friends = []; cl_funcs = []; cl_members = [];
            cl_pos = P.null_extent })
        (List.combine class_names class_locs)
    in
    let* routine_specs =
      list_repeat nroutines (pair gen_name (gen_loc nfiles))
    in
    let routines =
      List.mapi
        (fun i (n, l) ->
          { P.ro_id = i + 1; ro_name = n; ro_loc = l; ro_parent = P.Pnone;
            ro_acs = "pub"; ro_sig = P.Tyref 1; ro_link = "C++"; ro_store = "NA";
            ro_virt = "no"; ro_kind = "NA"; ro_static = i mod 2 = 0;
            ro_inline = false; ro_templ = None; ro_calls = []; ro_spawns = [];
            ro_du = []; ro_pos = P.null_extent; ro_defined = i mod 3 = 0 })
        routine_specs
    in
    let pdb = P.create () in
    pdb.P.files <- files;
    pdb.P.types <- types;
    pdb.P.classes <- classes;
    pdb.P.routines <- routines;
    return pdb)

(* ------------------------------------------------------------------ *)
(* Cursor parser vs the seed reference parser                          *)
(* ------------------------------------------------------------------ *)

(* Each parser raises its own [Parse_error]; fold both (and any
   [Failure] either lets escape) into one comparable, printable
   outcome. *)
let outcome (parse : string -> P.t) (src : string) : string =
  match parse src with
  | _ -> "parsed"
  | exception R.Parse_error (l, m) -> Printf.sprintf "Parse_error line %d: %s" l m
  | exception Ref.Parse_error (l, m) -> Printf.sprintf "Parse_error line %d: %s" l m
  | exception Failure m -> "Failure: " ^ m

(* Malformed (and deliberately odd but accepted) inputs.  The interesting
   rows pin the reference parser's two-pass error ordering: structural
   errors (bad header ids, attributes outside a block) win over semantic
   errors on earlier lines. *)
let malformed_cases =
  [ "rloc so#1 1 1\n";                      (* attribute before any block *)
    "xx#zz name\n";                         (* unparseable header id *)
    "qq#1 x\n";                             (* unknown item prefix *)
    "ro#1 f\nrloc so#1 2\n";                (* truncated location *)
    "ro#1 f\nrloc NULL 0\n";                (* truncated NULL location *)
    "ro#1 f\nrloc so#1 x 3\n";              (* non-numeric line number *)
    "ro#1 f\nrloc na#1 2 3\n";              (* location on a non-file *)
    "ro#1 f\nrsig banana\n";                (* typeref without an id *)
    "ro#1 f\nrcall ro#2\n";                 (* rcall missing virt + loc *)
    "ro#1 f\nrcall xx#2 virt so#1 1 1\n";   (* rcall on a non-routine *)
    "ro#1 f\nbogus value\n";                (* unknown ro attribute *)
    "so#1 a.h\nbogus attr\n";               (* unknown so attribute *)
    "so#1 a.h\nsinc ty#2\n";                (* include of a non-file *)
    "cl#1 C\ncbase pub  no cl#2\n";         (* empty field: 4 cbase fields *)
    "cl#1 C\ncmloc so#1 1 1\n";             (* member attr without cmem *)
    "te#1 T\ntpos so#1 1 1 so#1 1 1 so#1 1\n"; (* truncated extent *)
    "ty#1 E\nykind enum\nycon a xyz\n";     (* malformed ycon value *)
    "ro#1 f\nrsig banana\nxx#zz nm\n";      (* late structural error wins *)
    "ro#1 f\nrsig banana\n\nrloc so#1 1 1\n"; (* ...so does late placement *)
    "ro#1 f\nrloc so#1 -2 0x10\n";          (* exotic ints: accepted *)
    "ty#1 X\nyqual weird\n";                (* unknown qualifier: ignored *)
    "ro#1 f\nrloc so#1 1 1 trailing junk\n" (* extra loc fields: ignored *)
  ]

let test_malformed_matches_reference () =
  List.iter
    (fun src ->
      Alcotest.(check string)
        (String.concat "; " (String.split_on_char '\n' src))
        (outcome Ref.of_string src) (outcome R.of_string src))
    malformed_cases

(* A malformed ycon value is a deferred Parse_error at its line in both
   parsers, not an escaping [Failure "Int64.of_string"], so the tools
   report it like any other; what Int64.of_string reads still parses. *)
let test_ycon_value () =
  let src = "<PDB 1.1>\n\nty#1 E\nykind enum\nycon a xyz\n" in
  let want = "Parse_error line 5: malformed ycon value" in
  Alcotest.(check string) "cursor parser" want (outcome R.of_string src);
  Alcotest.(check string) "reference parser" want (outcome Ref.of_string src);
  Alcotest.(check string) "a later structural error wins"
    "Parse_error line 7: malformed item id 'xx#zz'"
    (outcome R.of_string (src ^ "\nxx#zz n\n"));
  let exotic = "<PDB 1.1>\n\nty#1 E\nykind enum\nycon a -0x10\nycon b 1_000\n" in
  (match (R.of_string exotic).P.types with
   | [ { P.ty_info = P.Yenum { constants }; _ } ] ->
       Alcotest.(check bool) "exotic spellings read" true
         (constants = [ ("a", -16L); ("b", 1000L) ])
   | _ -> Alcotest.fail "one enum type");
  let path = Filename.temp_file "pdt-ycon" ".pdb" in
  Out_channel.with_open_bin path (fun oc -> output_string oc src);
  let rc = Pdt_pdb.Pdb_io.with_loaded ~prog:"test" Pdt_pdb.Pdb_io.of_file path (fun _ -> 0) in
  Sys.remove path;
  Alcotest.(check int) "the tools' handler reports it" 1 rc

(* Both parsers on [src]: the same PDB, or the same error at the same
   line. *)
let agree src =
  match (R.of_string src, Ref.of_string src) with
  | p, q -> p = q
  | exception _ -> outcome R.of_string src = outcome Ref.of_string src

let golden_texts () =
  let dir = Test_golden.golden_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pdb")
  |> List.sort compare
  |> List.map (fun f -> (f, Test_golden.read_file (Filename.concat dir f)))

(* Every line spelling the cursor path must hand to the reference: for
   a line's blanks, a trailing blank or field, a doubled blank, a tab
   and a CR; for each field (the key included), emptied, suffixed,
   signed, 0x-prefixed, '_'-suffixed, over-long (19 zeros appended,
   past the int range), stripped of '#', retyped to ty#, replaced by
   NULL or dropped.  A field's number is what follows its '#', if it
   has one. *)
let perturbations line =
  let blank sep =
    match String.index_opt line ' ' with
    | Some i ->
        String.sub line 0 i ^ sep ^ String.sub line (i + 1) (String.length line - i - 1)
    | None -> line ^ sep
  in
  let fields = String.split_on_char ' ' line in
  let variants f =
    let h = match String.index_opt f '#' with Some i -> i + 1 | None -> 0 in
    let pre = String.sub f 0 h and num = String.sub f h (String.length f - h) in
    [ Some ""; Some (f ^ "x"); Some (pre ^ "-" ^ num); Some (pre ^ "0x" ^ num);
      Some (f ^ "_"); Some (f ^ String.make 19 '0');
      Some (String.concat "" (String.split_on_char '#' f)); Some ("ty#" ^ num);
      Some "NULL"; None ]
  in
  [ line ^ " "; line ^ " x"; blank "  "; blank "\t"; line ^ "\r" ]
  @ List.concat
      (List.mapi
         (fun i f ->
           List.map
             (fun v ->
               String.concat " "
                 (List.concat
                    (List.mapi
                       (fun j g -> if j <> i then [ g ] else Option.to_list v)
                       fields)))
             (variants f))
         fields)

(* The first line of each attribute key and item prefix in the golden
   corpus, perturbed under the lines of its item block before it. *)
let test_perturbed_lines_match_reference () =
  let seen = Hashtbl.create 64 and docs = ref 0 in
  List.iter
    (fun (_, text) ->
      let block = ref [] in
      List.iter
        (fun line ->
          if line = "" || line.[0] = '<' then block := []
          else begin
            let key = List.hd (String.split_on_char ' ' line) in
            let kind =
              match String.index_opt key '#' with Some i -> String.sub key 0 i | None -> key
            in
            if not (Hashtbl.mem seen kind) then begin
              Hashtbl.replace seen kind ();
              List.iter
                (fun l ->
                  let src =
                    String.concat "\n" ("<PDB 1.1>" :: "" :: List.rev (l :: !block)) ^ "\n"
                  in
                  incr docs;
                  if not (agree src) then
                    Alcotest.failf "%S: parsers disagree: %s / %s" src
                      (outcome R.of_string src) (outcome Ref.of_string src))
                (line :: perturbations line)
            end;
            block := line :: !block
          end)
        (String.split_on_char '\n' text))
    (golden_texts ());
  Alcotest.(check int) "49 attribute keys and 7 item prefixes" 56 (Hashtbl.length seen);
  Alcotest.(check bool) "thousands of documents" true (!docs > 3000)

(* The reference reads what the cursor path would: every golden parses
   to the same PDB with CRLF line ends, and with every line indented and
   followed by a blank and a tab. *)
let test_goldens_any_line_spelling () =
  List.iter
    (fun (name, text) ->
      let pdb = R.of_string text in
      let respell f = String.concat "\n" (List.map f (String.split_on_char '\n' text)) in
      Alcotest.(check bool) (name ^ ": CRLF") true
        (R.of_string (respell (fun l -> l ^ "\r")) = pdb);
      Alcotest.(check bool) (name ^ ": indented, blank and tab") true
        (R.of_string (respell (fun l -> "  " ^ l ^ " \t")) = pdb))
    (golden_texts ())

(* The documents [Pdb_parse] hands to the reference so far *)
let fallbacks () =
  match
    List.find_opt (fun (n, _, _) -> n = "pdb.parse_fallback") (Pdt_util.Trace.counters ())
  with
  | Some (_, calls, _) -> calls
  | None -> 0

(* One PDB with each writer spelling the golden and generated PDBs lack:
   an empty name, a negative ysize, an empty and a two-entry yexcep,
   ycon at the Int64 extremes, a class and a routine as friends, a
   joined and a live rspawn, nmem of every item kind, an incomplete
   header, and texts with backslashes. *)
let rare_spellings () =
  let at l = { P.lfile = 1; lline = l; lcol = 2 } in
  let pdb = P.create () in
  pdb.P.incomplete <- true;
  pdb.P.diag_count <- 3;
  pdb.P.files <- [ { P.so_id = 1; so_name = "a.cpp"; so_includes = [] } ];
  pdb.P.namespaces <-
    [ { P.na_id = 1; na_name = "N"; na_loc = at 1; na_parent = P.Pnone;
        na_members = [ P.Rso 1; Rro 2; Rcl 3; Rty 4; Rte 5; Rna 6; Rma 7 ];
        na_alias = None } ];
  pdb.P.templates <-
    [ { P.te_id = 5; te_name = "T"; te_loc = at 2; te_parent = P.Pna 1; te_acs = "NA";
        te_kind = "class"; te_text = "template <class T>\nclass T { char c = '\\\\'; };";
        te_pos = P.null_extent } ];
  let routine id name spawns =
    { P.ro_id = id; ro_name = name; ro_loc = at id; ro_parent = P.Pnone; ro_acs = "NA";
      ro_sig = P.Tyref 2; ro_link = "C++"; ro_store = "NA"; ro_virt = "no"; ro_kind = "NA";
      ro_static = false; ro_inline = false; ro_templ = None; ro_calls = [];
      ro_spawns = spawns; ro_du = []; ro_pos = P.null_extent; ro_defined = true }
  in
  pdb.P.routines <-
    [ routine 1 ""
        [ { P.sp_callee = 2; sp_loc = at 3; sp_join = Some (at 4) };
          { P.sp_callee = 2; sp_loc = at 5; sp_join = None } ];
      routine 2 "g" [] ];
  pdb.P.classes <-
    [ { P.cl_id = 3; cl_name = "C"; cl_loc = at 6; cl_kind = "class"; cl_parent = P.Pnone;
        cl_acs = "NA"; cl_templ = None; cl_stempl = None; cl_bases = [];
        cl_friends = [ `Cl 3; `Ro 2 ]; cl_funcs = []; cl_members = [];
        cl_pos = P.null_extent } ];
  let ty id name info =
    { P.ty_id = id; ty_name = name; ty_loc = P.null_loc; ty_parent = P.Pnone;
      ty_acs = "NA"; ty_info = info; ty_names = [] }
  in
  pdb.P.types <-
    [ ty 1 "" (P.Yarray { elem = P.Tyref 4; size = Some (-1) });
      ty 2 "void ()"
        (P.Yfunc { rett = P.Tyref 4; args = []; ellipsis = false; cqual = false;
                   exceptions = Some [] });
      ty 3 "void (int)"
        (P.Yfunc { rett = P.Tyref 4; args = [ (P.Tyref 4, true) ]; ellipsis = true;
                   cqual = true; exceptions = Some [ P.Tyref 1; P.Clref 3 ] });
      ty 4 "E" (P.Yenum { constants = [ ("lo", Int64.min_int); ("hi", Int64.max_int) ] }) ];
  pdb.P.pdb_macros <-
    [ { P.ma_id = 7; ma_name = "M"; ma_kind = "def"; ma_text = "a \\\n b\\n";
        ma_loc = at 7 } ];
  pdb

(* Everything the system writes reads on the cursor path, to what the
   reference reads; a CRLF copy goes to the reference once, to the
   same PDB. *)
let test_writer_output_on_cursor_path () =
  let module G = Pdt_workloads.Generator in
  let cfg = { G.default_config with seed = 31 } in
  let project = Test_golden.unit_pdbs (G.project_vfs ~cfg ~n_tus:3 ()) in
  let mixed = Test_golden.unit_pdbs (G.mixed_project_vfs ~n_tus:1 ()) in
  let written =
    List.map
      (fun (name, p) -> (name, W.to_string p))
      ([ ("merged project", Pdt_ductape.Ductape.merge project);
         ("rare spellings", rare_spellings ()) ]
      @ List.mapi (fun i p -> (Printf.sprintf "unit %d" i, p)) (project @ mixed))
  in
  List.iter
    (fun (name, text) ->
      let before = fallbacks () in
      Alcotest.(check bool) (name ^ ": the reference's PDB") true
        (R.of_string text = Ref.of_string text);
      Alcotest.(check int) (name ^ ": no fallback") before (fallbacks ()))
    (golden_texts () @ written);
  List.iter
    (fun (name, text) ->
      let crlf = String.concat "\r\n" (String.split_on_char '\n' text) in
      let before = fallbacks () in
      Alcotest.(check bool) (name ^ ": CRLF") true
        (R.of_string crlf = R.of_string text);
      Alcotest.(check int) (name ^ ": one fallback") (before + 1) (fallbacks ()))
    (golden_texts ())

let test_cursor_matches_reference_stack () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let s = W.to_string (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  Alcotest.(check bool) "structurally equal parse" true
    (R.of_string s = Ref.of_string s)

let test_interning_shares_names () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  let s = W.to_string (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let p1 = R.of_string s and p2 = R.of_string s in
  match (p1.P.routines, p2.P.routines) with
  | r1 :: _, r2 :: _ ->
      Alcotest.(check bool) "equal names" true (r1.P.ro_name = r2.P.ro_name);
      Alcotest.(check bool) "physically shared names" true
        (r1.P.ro_name == r2.P.ro_name)
  | _ -> Alcotest.fail "stack PDB has routines"

let prop_matches_reference =
  QCheck.Test.make ~count:100 ~name:"cursor parser = reference parser"
    (QCheck.make gen_pdb) (fun pdb ->
      let s = W.to_string pdb in
      R.of_string s = Ref.of_string s)

let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random PDB write/parse/write stable"
    (QCheck.make gen_pdb) (fun pdb ->
      let s, s' = roundtrip pdb in
      s = s')

let prop_item_count =
  QCheck.Test.make ~count:100 ~name:"item count preserved by parse"
    (QCheck.make gen_pdb) (fun pdb ->
      let s = W.to_string pdb in
      P.item_count (R.of_string s) = P.item_count pdb)

(* Intern.intern_sub's doc promises no allocation on a hit: 1,000 hits
   may cost no more minor words than 10 (a hit used to box its answer in
   an option, 2 words each) *)
let test_intern_hit_allocates_nothing () =
  let src = "xx interned_name yy" in
  let first = Pdt_util.Intern.intern_sub src 3 13 in
  let words n =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Pdt_util.Intern.intern_sub src 3 13))
    done;
    Gc.minor_words () -. before
  in
  let w10 = words 10 in
  let w1000 = words 1000 in
  Alcotest.(check bool) "a hit returns the pooled copy" true
    (Pdt_util.Intern.intern_sub src 3 13 == first);
  Alcotest.(check bool)
    (Printf.sprintf "1000 hits (%.0f words) <= 10 hits (%.0f words)" w1000 w10)
    true (w1000 <= w10)

let suite =
  [ Alcotest.test_case "empty roundtrip" `Quick test_empty;
    Alcotest.test_case "stack roundtrip" `Quick test_stack_roundtrip;
    Alcotest.test_case "krylov roundtrip" `Quick test_krylov_roundtrip;
    Alcotest.test_case "text escaping" `Quick test_text_escaping;
    Alcotest.test_case "parse error reporting" `Quick test_parse_error_reporting;
    Alcotest.test_case "no <PDB header is not a PDB" `Quick test_no_header_rejected;
    Alcotest.test_case "null locations" `Quick test_null_locations;
    Alcotest.test_case "integer widths" `Quick test_integer_widths;
    Alcotest.test_case "typeref names" `Quick test_typeref_names;
    Alcotest.test_case "malformed input matches reference parser" `Quick
      test_malformed_matches_reference;
    Alcotest.test_case "malformed ycon value is a Parse_error" `Quick test_ycon_value;
    Alcotest.test_case "perturbed golden lines match reference parser" `Quick
      test_perturbed_lines_match_reference;
    Alcotest.test_case "goldens parse under CRLF, indent, trailing tab" `Quick
      test_goldens_any_line_spelling;
    Alcotest.test_case "writer output reads on the cursor path" `Quick
      test_writer_output_on_cursor_path;
    Alcotest.test_case "cursor parser matches reference on stack" `Quick
      test_cursor_matches_reference_stack;
    Alcotest.test_case "interning shares parsed names" `Quick
      test_interning_shares_names;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_item_count;
    Alcotest.test_case "intern: a hit allocates nothing" `Quick
      test_intern_hit_allocates_nothing ]
