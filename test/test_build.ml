(* Project-build tests: the Domain-pool scheduler, the content-hash PDB
   cache, and the parallel incremental build driver (pdbbuild's engine).

   The invariants locked in here are the ones the driver's determinism
   story rests on: parallel output is byte-identical to sequential output,
   the merge is input-order independent and idempotent, a warm cache
   recompiles nothing and changes nothing, and neither a failing unit nor
   a corrupt cache entry can sink the build. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module S = Pdt_build.Scheduler
module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb
module G = Pdt_workloads.Generator

let pdb_string = Pdt_pdb.Pdb_write.to_string

(* a unique, not-yet-created directory for a test's cache *)
let fresh_dir () =
  let f = Filename.temp_file "pdt-build-test" ".cache" in
  Sys.remove f;
  f

let n_tus = 5

let project () = G.project_vfs ~n_tus ()

let build ?cache_dir ~domains (vfs, sources) =
  B.build ~options:{ B.default_options with domains; cache_dir } ~vfs sources

(* ---------------- scheduler ---------------- *)

let test_scheduler_map () =
  let items = Array.init 50 (fun i -> i) in
  let r = S.parallel_map ~domains:4 (fun i -> i * i) items in
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v
      | Error _ -> Alcotest.fail "unexpected error slot")
    r

let test_scheduler_isolates_exceptions () =
  let items = Array.init 20 (fun i -> i) in
  let r =
    S.parallel_map ~domains:4
      (fun i -> if i mod 7 = 3 then failwith "boom" else i)
      items
  in
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check bool) "ok slot" true (v = i && i mod 7 <> 3)
      | Error e ->
          Alcotest.(check bool) "error slot" true
            (i mod 7 = 3 && e = Failure "boom"))
    r

(* A worker-domain death (as opposed to a task exception, which run1
   captures per-slot) must not be swallowed: the job the dead worker had
   popped surfaces as that exact exception, not as an anonymous "lost
   job", and every other slot still completes.  [should_stop] runs
   outside run1's try, so raising from it is a deliberate worker crash. *)
let test_scheduler_worker_crash_surfaces () =
  let fired = Atomic.make false in
  let crash () =
    if Atomic.compare_and_set fired false true then
      failwith "deliberate worker crash"
    else false
  in
  let items = Array.init 24 (fun i -> i) in
  let r = S.parallel_map ~domains:4 ~should_stop:crash (fun i -> i) items in
  let crashed =
    Array.to_list r
    |> List.filter (function
         | Error (Failure m) -> m = "deliberate worker crash"
         | _ -> false)
  in
  Alcotest.(check int) "exactly one slot carries the worker's exception" 1
    (List.length crashed);
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) i v
      | Error (Failure m) when m = "deliberate worker crash" -> ()
      | Error e -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string e))
    r

(* ---------------- parallel = sequential ---------------- *)

let test_parallel_equals_sequential () =
  let seq = build ~domains:1 (project ()) in
  let par = build ~domains:4 (project ()) in
  Alcotest.(check int) "no failures (seq)" 0 seq.B.failed;
  Alcotest.(check int) "no failures (par)" 0 par.B.failed;
  Alcotest.(check string) "byte-identical merged PDB"
    (pdb_string seq.B.merged) (pdb_string par.B.merged)

let test_build_equals_compile_project () =
  (* the driver reproduces the library's sequential compile-then-merge path *)
  let vfs, sources = project () in
  let merged, _ = Pdt.compile_project ~vfs sources in
  let r = build ~domains:4 (project ()) in
  Alcotest.(check string) "same as Pdt.compile_project"
    (pdb_string merged) (pdb_string r.B.merged)

(* ---------------- merge determinism ---------------- *)

let project_pdbs () =
  let vfs, sources = project () in
  List.map
    (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
    sources

let test_merge_order_independent () =
  let pdbs = project_pdbs () in
  let reference = pdb_string (D.merge pdbs) in
  let permutations =
    [ List.rev pdbs;
      (match pdbs with [] -> [] | x :: rest -> rest @ [ x ]);
      List.sort
        (fun a b -> compare (P.item_count b) (P.item_count a))
        pdbs ]
  in
  List.iteri
    (fun i perm ->
      Alcotest.(check string)
        (Printf.sprintf "permutation %d merges identically" i)
        reference (pdb_string (D.merge perm)))
    permutations

let test_merge_idempotent_normalized () =
  let pdbs = project_pdbs () in
  let merged = D.merge pdbs in
  Alcotest.(check string) "merge [merged] = merged"
    (pdb_string merged)
    (pdb_string (D.merge [ merged ]));
  let single = List.hd pdbs in
  let normalized = D.merge [ single ] in
  Alcotest.(check string) "merge [p] is a fixpoint"
    (pdb_string normalized)
    (pdb_string (D.merge [ normalized ]))

(* ---------------- parallel tree merge ---------------- *)

module MP = Pdt_build.Merge_par

(* The tree merge is only correct because D.merge is canonical, i.e. its
   output does not depend on how the inputs were grouped into partial
   merges.  Pin that property directly with hand-built trees. *)
let test_merge_grouping_independent () =
  let pdbs = project_pdbs () in
  let reference = pdb_string (D.merge pdbs) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  let balanced = D.merge [ D.merge (take 3 pdbs); D.merge (drop 3 pdbs) ] in
  Alcotest.(check string) "balanced tree = flat merge" reference
    (pdb_string balanced);
  let skewed =
    List.fold_left
      (fun acc p -> D.merge [ acc; p ])
      (List.hd pdbs) (List.tl pdbs)
  in
  Alcotest.(check string) "left-skewed tree = flat merge" reference
    (pdb_string skewed)

let test_parallel_merge_byte_identical () =
  let pdbs = project_pdbs () in
  let reference = pdb_string (D.merge pdbs) in
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "tree merge with %d domains" d)
        reference
        (pdb_string (MP.merge ~domains:d pdbs)))
    [ 1; 2; 8 ]

let test_parallel_merge_order_independent () =
  let pdbs = project_pdbs () in
  let reference = pdb_string (D.merge pdbs) in
  let permutations =
    [ List.rev pdbs;
      (match pdbs with [] -> [] | x :: rest -> rest @ [ x ]) ]
  in
  List.iteri
    (fun i perm ->
      Alcotest.(check string)
        (Printf.sprintf "tree merge of permutation %d" i)
        reference
        (pdb_string (MP.merge ~domains:2 perm)))
    permutations

(* A declaration in one PDB and the definition in another must merge to
   the same bytes whichever input, chunk, or tree level sees them first —
   and the definition must survive. *)
let test_parallel_merge_decl_def () =
  let mini ~defined =
    let p = P.create () in
    p.P.files <- [ { P.so_id = 1; so_name = "a.h"; so_includes = [] } ];
    p.P.types <-
      [ { P.ty_id = 2; ty_name = "int"; ty_loc = P.null_loc;
          ty_parent = P.Pnone; ty_acs = "NA";
          ty_info = P.Ybuiltin { yikind = "int" }; ty_names = [] };
        { P.ty_id = 3; ty_name = ""; ty_loc = P.null_loc;
          ty_parent = P.Pnone; ty_acs = "NA";
          ty_info =
            P.Yfunc
              { rett = P.Tyref 2; args = []; ellipsis = false;
                cqual = false; exceptions = None };
          ty_names = [] } ];
    p.P.routines <-
      [ { P.ro_id = 4; ro_name = "f";
          ro_loc = { P.lfile = 1; lline = 3; lcol = 1 };
          ro_parent = P.Pnone; ro_acs = "NA"; ro_sig = P.Tyref 3;
          ro_link = "C++"; ro_store = "NA"; ro_virt = "no"; ro_kind = "NA";
          ro_static = false; ro_inline = false; ro_templ = None;
          ro_calls = []; ro_spawns = []; ro_du = []; ro_pos = P.null_extent; ro_defined = defined } ];
    p
  in
  let decl = mini ~defined:false and def = mini ~defined:true in
  let a = pdb_string (D.merge [ decl; def ]) in
  let b = pdb_string (D.merge [ def; decl ]) in
  Alcotest.(check string) "decl/def order irrelevant" a b;
  let grouped = pdb_string (D.merge [ D.merge [ decl ]; D.merge [ def ] ]) in
  Alcotest.(check string) "decl/def grouping irrelevant" a grouped;
  let merged = D.merge [ decl; def ] in
  match merged.P.routines with
  | [ r ] -> Alcotest.(check bool) "definition survives" true r.P.ro_defined
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected 1 merged routine, got %d" (List.length rs))

(* shapes.h defines [Square : Shape]; a.cpp uses Square, and each
   b<i>.cpp only forward-declares it.  Square has no data members, so only
   its extent tells the definition from the bare [class Square;]. *)
let shapes_project (bs : int list) =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.add_file vfs "shapes.h"
    "class Shape { public: virtual int area() const { return 0; } };\n\
     class Square : public Shape { public: int area() const { return 4; } };\n";
  Pdt_util.Vfs.add_file vfs "a.cpp"
    "#include \"shapes.h\"\nint main() { Square s; return s.area(); }\n";
  let b i =
    let name = Printf.sprintf "b%d.cpp" i in
    Pdt_util.Vfs.add_file vfs name
      (Printf.sprintf "class Square;\nint use%d(Square * p) { return 0; }\n" i);
    name
  in
  (vfs, "a.cpp" :: List.map b bs)

(* A forward declaration must not strip the class's definition from the
   merged PDB, whichever unit sorts first by digest. *)
let test_forward_decl_keeps_definition () =
  for i = 0 to 15 do
    let what = Printf.sprintf "a.cpp + b%d.cpp" i in
    let r = build ~domains:1 (shapes_project [ i ]) in
    Alcotest.(check int) (what ^ ": no failures") 0 r.B.failed;
    let d = D.index r.B.merged in
    match List.find_opt (fun (c : P.class_item) -> c.P.cl_name = "Square") (D.classes d) with
    | None -> Alcotest.fail (what ^ ": Square missing from the merged PDB")
    | Some sq ->
        Alcotest.(check (list string)) (what ^ ": Square keeps its base") [ "Shape" ]
          (List.map (fun (_, _, (c : P.class_item)) -> c.P.cl_name) (D.bases d sq));
        Alcotest.(check bool) (what ^ ": Square keeps its extent") true
          (sq.P.cl_pos <> P.null_extent)
  done

(* ---------------- the incremental cache ---------------- *)

let test_warm_cache_recompiles_nothing () =
  let cache_dir = fresh_dir () in
  let cold = build ~cache_dir ~domains:4 (project ()) in
  Alcotest.(check int) "cold: all compiled" (n_tus + 1) cold.B.compiled;
  Alcotest.(check int) "cold: none cached" 0 cold.B.cached;
  let warm = build ~cache_dir ~domains:4 (project ()) in
  Alcotest.(check int) "warm: none compiled" 0 warm.B.compiled;
  Alcotest.(check int) "warm: all cached" (n_tus + 1) warm.B.cached;
  Alcotest.(check string) "warm merged PDB identical"
    (pdb_string cold.B.merged) (pdb_string warm.B.merged)

let test_edit_invalidates_one_entry () =
  let cache_dir = fresh_dir () in
  let _ = build ~cache_dir ~domains:2 (project ()) in
  let vfs, sources = project () in
  (* a source edit that changes the PDB of tu1 only *)
  Pdt_util.Vfs.add_file vfs "tu1.cpp"
    (G.translation_unit G.default_config ~tu_index:1
     ^ "\nint tu1_extra( ) { return 41; }\n");
  let r = build ~cache_dir ~domains:2 (vfs, sources) in
  Alcotest.(check int) "exactly one recompile" 1 r.B.compiled;
  Alcotest.(check int) "the rest served from cache" n_tus r.B.cached;
  Alcotest.(check bool) "edited routine present" true
    (List.exists (fun (ro : P.routine_item) -> ro.P.ro_name = "tu1_extra")
       r.B.merged.P.routines)

let test_header_edit_invalidates_includers () =
  (* the key covers the include closure: touching generated.h invalidates
     every C++ unit that includes it *)
  let cache_dir = fresh_dir () in
  let _ = build ~cache_dir ~domains:2 (project ()) in
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "generated.h"
    (G.header G.default_config ^ "\n// touched\n");
  let r = build ~cache_dir ~domains:2 (vfs, sources) in
  Alcotest.(check int) "every includer recompiled" (n_tus + 1) r.B.compiled;
  Alcotest.(check int) "nothing cached" 0 r.B.cached

let test_corrupt_cache_recompiles () =
  let cache_dir = fresh_dir () in
  let cold = build ~cache_dir ~domains:2 (project ()) in
  (* truncate / garble every entry on disk — recursively, since v4
     shards entries under objects/<hh>/ *)
  let rec garble dir =
    Array.iter
      (fun f ->
        let path = Filename.concat dir f in
        if Sys.is_directory path then garble path
        else if Filename.check_suffix path ".pdb" then begin
          let oc = open_out_bin path in
          output_string oc "garbage, not a cache entry";
          close_out oc
        end)
      (Sys.readdir dir)
  in
  garble cache_dir;
  let r = build ~cache_dir ~domains:2 (project ()) in
  Alcotest.(check int) "corrupt entries recompiled" (n_tus + 1) r.B.compiled;
  Alcotest.(check int) "no corrupt entry served" 0 r.B.cached;
  Alcotest.(check string) "merged PDB unaffected"
    (pdb_string cold.B.merged) (pdb_string r.B.merged)

let test_cache_load_rejects_stale_version () =
  let cache_dir = fresh_dir () in
  let vfs, sources = project () in
  let source = List.hd sources in
  let pdb = Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs source).Pdt.program in
  let cache = C.create ~dir:cache_dir () in
  let key = C.key ~vfs ~options:"opts" source in
  C.store_serialized cache key (pdb_string pdb);
  (match C.load cache key with
   | Some (loaded, _, _) ->
       Alcotest.(check string) "store/load roundtrip" (pdb_string pdb)
         (pdb_string loaded)
   | None -> Alcotest.fail "freshly stored entry must load");
  (* rewrite the entry with a wrong-version header: stale, not crash *)
  let path = C.entry_path cache key
  and body = pdb_string pdb in
  let oc = open_out_bin path in
  Printf.fprintf oc "PDT-CACHE v%d key=%s\n%s" (C.format_version + 1) key body;
  close_out oc;
  Alcotest.(check bool) "stale version is a miss" true (C.load cache key = None)

let test_cache_key_covers_options () =
  let vfs, sources = project () in
  let source = List.hd sources in
  let k1 = C.key ~vfs ~options:"a" source in
  let k2 = C.key ~vfs ~options:"b" source in
  let k1' = C.key ~vfs ~options:"a" source in
  Alcotest.(check string) "key is deterministic" k1 k1';
  Alcotest.(check bool) "options change the key" true (k1 <> k2)

(* A cache's file table answers only for the bytes it holds.  A cache
   that keyed every unit before two in-place edits of generated.h (new
   bytes, then trailing blanks only) must then give the keys and
   dependency hashes a fresh cache gives, from one domain or two. *)
let test_file_table_checks_bytes () =
  let module I = Pdt_build.Incremental in
  let vfs, sources = project () in
  let header = Option.get (Pdt_util.Vfs.read_raw vfs "generated.h") in
  let fingerprints ~domains cache =
    S.parallel_map ~domains
      (fun source ->
        let deps = List.map fst (C.include_closure ~cache ~vfs source) in
        (C.key ~cache ~vfs ~options:"o" source, I.dep_hash ~cache ~vfs deps))
      (Array.of_list sources)
    |> Array.to_list
    |> List.map (function Ok v -> v | Error e -> raise e)
  in
  let fresh () = fingerprints ~domains:1 (C.create ~dir:(fresh_dir ()) ()) in
  let edits =
    [ ("new bytes", header ^ "int table_edit() { return 1; }\n");
      ("trailing blanks", header ^ "int table_edit() { return 1; }  \t\n\n\n") ]
  in
  List.iter
    (fun domains ->
      Pdt_util.Vfs.add_file vfs "generated.h" header;
      let kept = C.create ~dir:(fresh_dir ()) () in
      let before = fingerprints ~domains kept in
      List.iter
        (fun (what, contents) ->
          Pdt_util.Vfs.add_file vfs "generated.h" contents;
          let expected = fresh () in
          Alcotest.(check bool) (what ^ ": the edit moved the keys") true
            (expected <> before);
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: kept table = fresh table, %d domain(s)" what domains)
            expected (fingerprints ~domains kept))
        edits)
    [ 1; 2 ]

(* Spellings of [#include "a.h"] the preprocessor follows, since it reads
   lexer tokens: comments and line splices may sit around the [#], the
   [include] and the header name, and a comment that spans a line break
   starts a new line.  The last two check that a literal holding a
   comment opener or a quote does not hide the directive after it. *)
let include_spellings =
  [ ("comment before #", "/* c */ #include \"a.h\"\n");
    ("comment after #", "#/**/include \"a.h\"\n");
    ("comment before the name", "#include/**/\"a.h\"\n");
    ("splice after #", "#\\\ninclude \"a.h\"\n");
    ("splice before the name", "#include \\\n\"a.h\"\n");
    ("comment across a line break", "/* c\n*/ #include \"a.h\"\n");
    ("comment opener in a string", "const char *s = \"/*\";\n#include \"a.h\"\n");
    ("quote in a character", "char q = '\"';\n#include \"a.h\"\n") ]

let spelling_project spelling =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.add_file vfs "a.h" "int a_one() { return 1; }\n";
  Pdt_util.Vfs.add_file vfs "main.cpp" (spelling ^ "int main() { return a_one(); }\n");
  (vfs, [ "main.cpp" ])

let test_include_closure_covers_deps () =
  List.iter
    (fun (what, spelling) ->
      let vfs, sources = spelling_project spelling in
      let c = B.compile_unit B.default_options ~vfs (List.hd sources) in
      Alcotest.(check bool) (what ^ ": compiles clean") true (c.B.c_degraded = None);
      Alcotest.(check bool) (what ^ ": a.h was read") true (List.mem "a.h" c.B.c_deps);
      let closure = List.map fst (C.include_closure ~vfs (List.hd sources)) in
      List.iter
        (fun dep ->
          if not (List.mem dep closure) then
            Alcotest.failf "%s: %s was read but is not in the include closure" what dep)
        c.B.c_deps)
    include_spellings

(* The scan reads bytes, not tokens, so it must agree with the lexer on
   where comments, splices, literals and lines begin.  Over random strings
   of the fragments that move those boundaries, every include the
   preprocessor would follow must be among the scan's. *)
let prop_include_scan_covers_directives =
  let fragments =
    [| "#"; "include"; "\"a.h\""; "<b.h>"; "/*"; "*/"; "//"; "\\\n"; "\\\r\n";
       "\n"; "\r\n"; " "; "\t"; "'"; "\""; "\\"; "x"; "/"; "*"; "<"; ">"; "c.h" |]
  in
  QCheck.Test.make ~count:5000 ~name:"cache key: include scan sees every directive"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(map (String.concat "") (list_size (int_range 1 14) (oneofa fragments))))
    (fun src ->
      let toks = Pdt_lex.Lexer.tokenize ~diags:(Pdt_util.Diag.create ()) ~file:"f" src in
      let scanned = C.scan_includes src in
      List.for_all
        (function
          | Pdt_pp.Preproc.Directive (_, { tok = Pdt_lex.Token.Ident "include"; _ } :: rest)
            -> (
              match Pdt_pp.Preproc.include_target rest with
              | Some (name, system) -> List.mem (system, name) scanned
              | None -> true)
          | _ -> true)
        (Pdt_pp.Preproc.split_lines toks))

(* After a.h gains a routine, a rebuild over the warm cache must give
   what a build with no cache gives, for the pool and the incremental
   driver alike. *)
let test_header_edit_under_any_spelling () =
  let module I = Pdt_build.Incremental in
  List.iter
    (fun (what, spelling) ->
      let edit (vfs, sources) =
        Pdt_util.Vfs.add_file vfs "a.h"
          "int a_one() { return 1; }\nint a_two() { return 2; }\n";
        (vfs, sources)
      in
      let fresh = pdb_string (build ~domains:1 (edit (spelling_project spelling))).B.merged in
      let cache_dir = fresh_dir () in
      ignore (build ~cache_dir ~domains:1 (spelling_project spelling));
      let r = build ~cache_dir ~domains:1 (edit (spelling_project spelling)) in
      Alcotest.(check string) (what ^ ": cached rebuild = no-cache build") fresh
        (pdb_string r.B.merged);
      let options =
        { I.default_options with
          build = { B.default_options with domains = 1; cache_dir = Some (fresh_dir ()) } }
      in
      let vfs, sources = spelling_project spelling in
      ignore (I.build ~options ~vfs sources);
      let vfs, sources = edit (spelling_project spelling) in
      Alcotest.(check string) (what ^ ": incremental rebuild = no-cache build") fresh
        (pdb_string (I.build ~options ~vfs sources).I.merged))
    include_spellings

(* ---------------- merge digests ---------------- *)

(* Every (digest, PDB) pair a build hands the merge must carry that PDB's
   own digest, the MD5 of its canonical ASCII.  A digest taken from other
   bytes would reorder inputs only where same-key entities conflict, which
   no byte-identity pin is sure to hit, so this is the guard.  Every unit
   must have taken its digest from the bytes in hand (the cache body or
   farm payload) rather than leaving the merge to serialize the PDB. *)
let check_merge_digests what (r : B.result) =
  let inputs = B.merge_inputs r.B.units in
  Alcotest.(check int) (what ^ ": one input per unit") (List.length r.B.units)
    (List.length inputs);
  List.iter
    (fun (d, p) ->
      if d <> Pdt_pdb.Pdb_digest.of_pdb p then
        Alcotest.failf "%s: a merge input's digest is not its PDB's" what)
    inputs;
  List.iter
    (fun (u : B.unit_result) ->
      Alcotest.(check bool) (what ^ ": digest from bytes in hand: " ^ u.B.source)
        true (u.B.digest <> None))
    r.B.units

let test_merge_digests_pool () =
  let cache_dir = fresh_dir () in
  let build () =
    let vfs, sources = project () in
    B.build
      ~options:{ B.default_options with domains = 2; cache_dir = Some cache_dir }
      ~vfs sources
  in
  let cold = build () in
  Alcotest.(check int) "cold: all compiled" (n_tus + 1) cold.B.compiled;
  check_merge_digests "cold" cold;
  let warm = build () in
  Alcotest.(check int) "warm: all cached" (n_tus + 1) warm.B.cached;
  check_merge_digests "warm" warm;
  Alcotest.(check string) "cold and warm builds merge the same bytes"
    (pdb_string cold.B.merged) (pdb_string warm.B.merged)

(* An incremental edit-rebuild merges unit PDBs into group partials, then
   the partials; both take their digests from cache bodies (through
   Cache.load) or from the serialization made for the store.
   Check every entry the rebuild can take a digest from. *)
let test_merge_digests_incremental () =
  let module I = Pdt_build.Incremental in
  let cache_dir = fresh_dir () in
  let options =
    { I.group_size = 2;
      build = { B.default_options with domains = 2; cache_dir = Some cache_dir } }
  in
  ignore (I.build ~options ~vfs:(fst (project ())) (snd (project ())));
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "tu1.cpp"
    (G.translation_unit G.default_config ~tu_index:1
     ^ "\nint tu1_extra( ) { return 41; }\n");
  let r = I.build ~options ~vfs sources in
  Alcotest.(check bool) "delta path taken" false r.I.fallback;
  Alcotest.(check bool) "cached group partials spliced" true (r.I.groups_reused > 0);
  Alcotest.(check string) "bytes = from-scratch build"
    (pdb_string (build ~domains:1 (vfs, sources)).B.merged)
    (pdb_string r.I.merged);
  let cache = C.create ~dir:cache_dir () in
  let rec entries dir acc =
    Array.fold_left
      (fun acc f ->
        let path = Filename.concat dir f in
        if Sys.is_directory path then entries path acc
        else if Filename.check_suffix f ".pdb" then Filename.chop_suffix f ".pdb" :: acc
        else acc)
      acc (Sys.readdir dir)
  in
  let keys = entries (Filename.concat cache_dir "objects") [] in
  (* n_tus + 1 unit entries plus the group partials of both runs *)
  Alcotest.(check bool) "unit and group entries present" true
    (List.length keys > n_tus + 1);
  List.iter
    (fun key ->
      match C.load cache key with
      | Some (p, _, d) ->
          if d <> Pdt_pdb.Pdb_digest.of_pdb p then
            Alcotest.failf "entry %s: digest is not its PDB's" key
      | None -> Alcotest.failf "entry %s did not load" key)
    keys

(* In process a unit keeps no bytes: only a farm worker ships them, and
   the merge needs just the digest, which must still be its PDB's.
   Checked on a cached build and on the unit runner an incremental
   rebuild goes through, after an edit (one unit stored, the rest
   loaded). *)
let test_units_drop_bytes () =
  let module I = Pdt_build.Incremental in
  let cache_dir = fresh_dir () in
  let o = { B.default_options with domains = 2; cache_dir = Some cache_dir } in
  let check what (units : B.unit_result list) =
    List.iter
      (fun (u : B.unit_result) ->
        Alcotest.(check bool) (what ^ ": no bytes held: " ^ u.B.source) true
          (u.B.bytes = None);
        Alcotest.(check (option string)) (what ^ ": digest of the PDB: " ^ u.B.source)
          (Option.map Pdt_pdb.Pdb_digest.of_pdb u.B.pdb) u.B.digest)
      units
  in
  let vfs, sources = project () in
  ignore (B.build ~options:o ~vfs sources);
  let warm = B.build ~options:o ~vfs sources in
  Alcotest.(check int) "warm: all cached" (n_tus + 1) warm.B.cached;
  check "cached build" warm.B.units;
  ignore (I.build ~options:{ I.default_options with I.build = o } ~vfs sources);
  Pdt_util.Vfs.add_file vfs "tu1.cpp"
    (G.translation_unit G.default_config ~tu_index:1 ^ "\nint tu1_extra( ) { return 41; }\n");
  let us = B.run_units o (Some (C.create ~dir:cache_dir ())) ~vfs (Array.of_list sources) in
  Alcotest.(check int) "one unit stored" 1
    (Array.fold_left
       (fun n (u : B.unit_result) -> if u.B.status = B.Compiled then n + 1 else n)
       0 us);
  check "unit runner" (Array.to_list us)

(* ---------------- failure isolation ---------------- *)

let test_failed_unit_does_not_sink_build () =
  let vfs, sources = project () in
  (* an unreadable unit is a hard failure (I/O), not a degraded compile *)
  let r = build ~domains:4 (vfs, sources @ [ "missing.cpp" ]) in
  Alcotest.(check int) "one unit failed" 1 r.B.failed;
  Alcotest.(check int) "the rest compiled" (n_tus + 1) r.B.compiled;
  (match B.failures r with
   | [ (source, msg) ] ->
       Alcotest.(check string) "failure names the unit" "missing.cpp" source;
       Alcotest.(check bool) "failure carries diagnostics" true (msg <> "")
   | _ -> Alcotest.fail "expected exactly one failure");
  (* the merged PDB equals the build without the failed unit *)
  let clean = build ~domains:4 (project ()) in
  Alcotest.(check string) "merged PDB excludes only the failed unit"
    (pdb_string clean.B.merged) (pdb_string r.B.merged)

let test_degraded_unit_still_merges () =
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "broken.cpp" (G.broken_unit ~tu_index:9);
  let r = build ~domains:4 (vfs, sources @ [ "broken.cpp" ]) in
  Alcotest.(check int) "one unit degraded" 1 r.B.degraded;
  Alcotest.(check int) "no unit failed" 0 r.B.failed;
  Alcotest.(check int) "the rest compiled" (n_tus + 1) r.B.compiled;
  (match B.degraded_units r with
   | [ (source, msg) ] ->
       Alcotest.(check string) "report names the unit" "broken.cpp" source;
       Alcotest.(check bool) "report carries diagnostics" true (msg <> "")
   | _ -> Alcotest.fail "expected exactly one degraded unit");
  (* the partial PDB is merged in, and its marker propagates *)
  Alcotest.(check bool) "merged PDB marked incomplete" true
    r.B.merged.P.incomplete;
  Alcotest.(check bool) "merged PDB counts the diagnostics" true
    (r.B.merged.P.diag_count > 0);
  let clean = build ~domains:4 (project ()) in
  Alcotest.(check bool) "merge contains at least the clean units' items" true
    (P.item_count r.B.merged >= P.item_count clean.B.merged)

(* ---------------- mixed-language projects ---------------- *)

let test_mixed_language_project () =
  let vfs, sources = G.mixed_project_vfs ~n_tus:2 () in
  let r = build ~domains:4 (vfs, sources) in
  Alcotest.(check int) "no failures" 0 r.B.failed;
  Alcotest.(check int) "all units compiled" (List.length sources) r.B.compiled;
  let routine_names =
    List.map (fun (ro : P.routine_item) -> ro.P.ro_name) r.B.merged.P.routines
  in
  Alcotest.(check bool) "C++ routine present" true
    (List.mem "tu0_driver" routine_names);
  Alcotest.(check bool) "Fortran routine present" true
    (List.exists
       (fun n ->
         let sub = "gen0_scale" in
         let ln = String.length n and ls = String.length sub in
         let rec go i = i + ls <= ln && (String.sub n i ls = sub || go (i + 1)) in
         go 0)
       routine_names);
  Alcotest.(check bool) "Java class present" true
    (List.exists (fun (c : P.class_item) -> c.P.cl_name = "Gen0")
       r.B.merged.P.classes)

(* ---------------- pdbbuild output replacement ---------------- *)

(* pdbd re-reads a pdbbuild output on reload, and the ASCII format has no
   end marker, so a torn output parses as a smaller PDB without error.  A
   rebuild must therefore replace the output file, never rewrite it in
   place: a reader holding the previous output open keeps reading the
   previous bytes, and no temp file is left beside the output. *)
let test_rebuild_replaces_output () =
  let dir = fresh_dir () in
  C.mkdir_p dir;
  let out = Filename.concat dir "merged.pdb" in
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "pdbbuild.exe")
  in
  let pdbbuild sources =
    let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe
        (Array.of_list ((exe :: sources) @ [ "-o"; out; "--no-cache" ]))
        Unix.stdin null null
    in
    Unix.close null;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "pdbbuild did not exit 0"
  in
  let read_all fd =
    let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
    let rec go () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents b
      | n -> Buffer.add_subbytes b chunk 0 n; go ()
    in
    go ()
  in
  let sources = G.write_project ~n_tus ~dir () in
  pdbbuild sources;
  let before = In_channel.with_open_bin out In_channel.input_all in
  let held = Unix.openfile out [ Unix.O_RDONLY ] 0 in
  (* a smaller project, so the new output differs from the old *)
  pdbbuild [ List.hd sources ];
  let held_bytes = read_all held in
  Unix.close held;
  Alcotest.(check string) "held fd still reads the previous output" before
    held_bytes;
  Alcotest.(check bool) "output path holds the new PDB" true
    (In_channel.with_open_bin out In_channel.input_all <> before);
  let leftovers =
    List.filter
      (String.starts_with ~prefix:"merged.pdb.")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check (list string)) "no temp file left beside the output" []
    leftovers

(* ---------------- front-end memo ---------------- *)

(* [n] units [<stem>_a.cpp], [<stem>_b.cpp], ...: unit [i] holds
   [pre i], then [#include "<stem>.h"], then [body c i] for its letter
   [c].  A header's tokens are kept on its second request, and a run of
   those tokens is parsed for keeps on its second sighting, so the
   fourth unit is the first that can reuse a parse. *)
let memo_units stem n ~pre ~body =
  List.init n (fun i ->
      let c = Char.chr (Char.code 'a' + i) in
      ( Printf.sprintf "%s_%c.cpp" stem c,
        Printf.sprintf "%s#include \"%s.h\"\n%s" (pre i) stem (body c i) ))

(* Headers that a per-build memo must not short-circuit wrongly: an
   [#ifdef] a unit flips before its [#include], a macro the header
   expands, a last declaration the unit completes, a lexical error, a
   recoverable syntax error, and a nested template-id whose '>>' the
   parser splits. *)
let memo_files =
  let none _ = "" in
  [ ("flip.h",
     "#ifndef FLIP_H\n#define FLIP_H\nclass Box {\npublic:\n\
      #ifdef WIDE\n  long v;\n#else\n  int v;\n#endif\n\
      long get() const { return v; }\n};\n#endif\n") ]
  @ memo_units "flip" 5
      ~pre:(fun i -> if i = 4 then "#define WIDE 1\n" else "")
      ~body:(Printf.sprintf "long f%c() { Box b; b.v = %d; return b.get(); }\n")
  @ [ ("cell.h", "class Cell {\npublic:\n  ELEM v;\n  ELEM get() const { return v; }\n};\n") ]
  @ memo_units "cell" 4
      ~pre:(fun i -> if i mod 2 = 0 then "#define ELEM int\n" else "#define ELEM double\n")
      ~body:(Printf.sprintf "double c%c() { Cell c; c.v = %d; return c.get(); }\n")
  @ [ ("partial.h", "int x\n") ]
  @ memo_units "partial" 4 ~pre:none
      ~body:(fun c i -> Printf.sprintf "= %d;\nint p%c() { return x; }\n" i c)
  @ [ ("lexbad.h", "int bad = 09;\nclass L {\npublic:\n  int v;\n};\n") ]
  @ memo_units "lexbad" 3 ~pre:none
      ~body:(Printf.sprintf "int l%c() { L l; l.v = %d; return l.v; }\n")
  @ [ ("synbad.h", "class S {\npublic:\n  int v;\n};\nint oops( ;\nint ok() { return 1; }\n") ]
  @ memo_units "synbad" 4 ~pre:none
      ~body:(Printf.sprintf "int s%c() { S s; s.v = %d; return s.v + ok(); }\n")
  @ [ ("nest.h", "template<class T> struct W { T v; };\nW<W<int>> g;\n") ]
  @ memo_units "nest" 4 ~pre:none
      ~body:(Printf.sprintf "int n%c() { return g.v.v + %d; }\n")

let memo_vfs () =
  let vfs = Pdt_util.Vfs.create () in
  List.iter (fun (p, c) -> Pdt_util.Vfs.add_file vfs p c) memo_files;
  vfs

let memo_sources prefix =
  List.filter
    (fun (p, _) ->
      String.starts_with ~prefix p && Filename.check_suffix p ".cpp")
    memo_files
  |> List.map fst

let status_string = function
  | B.Compiled -> "compiled"
  | B.Cached -> "cached"
  | B.Degraded m -> "degraded: " ^ m
  | B.Failed m -> "failed: " ^ m
  | B.Skipped -> "skipped"

(* what a compile without the memo gives a unit: the PDB bytes, the
   status Build would report, and the full diagnostics text *)
let memo_free vfs source =
  let c = Pdt.compile ~vfs source in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let text = Pdt_util.Diag.to_string c.Pdt.diags in
  if Pdt_util.Diag.has_errors c.Pdt.diags then begin
    pdb.P.incomplete <- true;
    pdb.P.diag_count <- Pdt_util.Diag.error_count c.Pdt.diags;
    (pdb_string pdb, B.Degraded text, text)
  end
  else (pdb_string pdb, B.Compiled, text)

let test_memo_matches_memo_free () =
  let vfs = memo_vfs () in
  let sources = memo_sources "" in
  let expected = List.map (memo_free vfs) sources in
  List.iter
    (fun domains ->
      let r = build ~domains (vfs, sources) in
      List.iter2
        (fun (u : B.unit_result) (bytes, status, _) ->
          let what = Printf.sprintf "%s at %d domains" u.B.source domains in
          Alcotest.(check string) (what ^ ": status") (status_string status)
            (status_string u.B.status);
          Alcotest.(check string) (what ^ ": PDB") bytes
            (match u.B.pdb with Some p -> pdb_string p | None -> "<none>"))
        r.B.units expected)
    [ 1; 2 ];
  (* warnings too: the diagnostics text of each compile, twice round one
     memo so the second pass meets every entry the first one stored *)
  let memo = Pdt.memo () in
  List.iter
    (fun pass ->
      List.iter2
        (fun source (bytes, _, text) ->
          let c = Pdt.compile ~memo ~vfs source in
          let what = Printf.sprintf "%s, pass %d" source pass in
          Alcotest.(check string) (what ^ ": diagnostics") text
            (Pdt_util.Diag.to_string c.Pdt.diags);
          let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
          if Pdt_util.Diag.has_errors c.Pdt.diags then begin
            pdb.P.incomplete <- true;
            pdb.P.diag_count <- Pdt_util.Diag.error_count c.Pdt.diags
          end;
          Alcotest.(check string) (what ^ ": PDB") bytes (pdb_string pdb))
        sources expected)
    [ 1; 2 ]

(* calls of the counter [name] since the last reset *)
let counter name =
  match
    List.find_opt (fun (n, _, _) -> n = name) (Pdt_util.Trace.counters ())
  with
  | Some (_, calls, _) -> calls
  | None -> 0

(* lex and parse hits of a 1-domain build of the units named [prefix]* *)
let memo_hits prefix =
  Pdt_util.Trace.reset_counters ();
  ignore (build ~domains:1 (memo_vfs (), memo_sources prefix));
  (counter "lex.memo_hit", counter "parse.prefix_hit")

let test_memo_hits_only_where_sound () =
  let check prefix (lex, parse) =
    Alcotest.(check (pair int int)) (prefix ^ ".h: lex and parse hits")
      (lex, parse) (memo_hits prefix)
  in
  (* flip_a lexes alone and flip_b keeps the lex; flip_c keeps the parse
     of the run flip_b met first and flip_d reuses it; flip_e's WIDE
     branch puts other records between the same ends *)
  check "flip" (3, 1);
  (* every unit's ELEM expands to new token records: cell_c keeps a parse
     that cell_d's run does not match *)
  check "cell" (2, 0);
  (* "int x" alone is cut off mid-declaration *)
  check "partial" (2, 0);
  (* a lex with an error is not kept *)
  check "lexbad" (0, 0);
  (* a parse with an error is not reused *)
  check "synbad" (2, 0);
  (* nest_d gets the run with its '>>' split by nest_c's parse *)
  check "nest" (2, 1)

let test_memo_hit_counts () =
  let vfs, sources = G.project_vfs ~n_tus:24 () in
  let memo_free =
    D.merge
      (List.map
         (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
         sources)
  in
  let hits domains =
    Pdt_util.Trace.reset_counters ();
    let r = build ~domains (vfs, sources) in
    Alcotest.(check int) "clean build" 0 (r.B.failed + r.B.degraded);
    Alcotest.(check string)
      (Printf.sprintf "merged bytes at %d domains equal memo-free compiles'"
         domains)
      (pdb_string memo_free) (pdb_string r.B.merged);
    counter "parse.prefix_hit"
  in
  (* the first unit lexes generated.h, the second keeps the lex and meets
     the run, the third keeps the run's parse *)
  Alcotest.(check int) "every unit after the third reuses the header parse" 22
    (hits 1);
  Alcotest.(check bool) "at most one extra miss at 2 domains" true
    (hits 2 >= 21)

let suite =
  [ Alcotest.test_case "scheduler: map preserves order" `Quick test_scheduler_map;
    Alcotest.test_case "scheduler: exceptions stay per-slot" `Quick
      test_scheduler_isolates_exceptions;
    Alcotest.test_case "scheduler: worker crash surfaces, not swallowed" `Quick
      test_scheduler_worker_crash_surfaces;
    Alcotest.test_case "parallel = sequential bytes" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "driver = compile_project" `Quick
      test_build_equals_compile_project;
    Alcotest.test_case "merge is input-order independent" `Quick
      test_merge_order_independent;
    Alcotest.test_case "merge is idempotent (normalized)" `Quick
      test_merge_idempotent_normalized;
    Alcotest.test_case "merge is grouping independent" `Quick
      test_merge_grouping_independent;
    Alcotest.test_case "tree merge byte-identical (1/2/8 domains)" `Quick
      test_parallel_merge_byte_identical;
    Alcotest.test_case "tree merge input-order independent" `Quick
      test_parallel_merge_order_independent;
    Alcotest.test_case "tree merge decl/def pairs" `Quick
      test_parallel_merge_decl_def;
    Alcotest.test_case "forward declaration keeps the definition" `Quick
      test_forward_decl_keeps_definition;
    Alcotest.test_case "warm cache recompiles nothing" `Quick
      test_warm_cache_recompiles_nothing;
    Alcotest.test_case "edit invalidates exactly one entry" `Quick
      test_edit_invalidates_one_entry;
    Alcotest.test_case "header edit invalidates includers" `Quick
      test_header_edit_invalidates_includers;
    Alcotest.test_case "corrupt cache entries recompile" `Quick
      test_corrupt_cache_recompiles;
    Alcotest.test_case "stale cache version is a miss" `Quick
      test_cache_load_rejects_stale_version;
    Alcotest.test_case "cache key covers options" `Quick
      test_cache_key_covers_options;
    Alcotest.test_case "cache key: file table checks the bytes" `Quick
      test_file_table_checks_bytes;
    Alcotest.test_case "cache key: include closure covers what is read" `Quick
      test_include_closure_covers_deps;
    QCheck_alcotest.to_alcotest prop_include_scan_covers_directives;
    Alcotest.test_case "cache key: header edit under any include spelling" `Quick
      test_header_edit_under_any_spelling;
    Alcotest.test_case "merge digests: pool, cold/warm" `Quick
      test_merge_digests_pool;
    Alcotest.test_case "merge digests: incremental edit-rebuild" `Quick
      test_merge_digests_incremental;
    Alcotest.test_case "in-process units drop their bytes" `Quick test_units_drop_bytes;
    Alcotest.test_case "failed unit does not sink the build" `Quick
      test_failed_unit_does_not_sink_build;
    Alcotest.test_case "degraded unit still merges" `Quick
      test_degraded_unit_still_merges;
    Alcotest.test_case "mixed C++/Fortran/Java project" `Quick
      test_mixed_language_project;
    Alcotest.test_case "front-end memo: units match memo-free compiles" `Quick
      test_memo_matches_memo_free;
    Alcotest.test_case "front-end memo: hits only where sound" `Quick
      test_memo_hits_only_where_sound;
    Alcotest.test_case "front-end memo: one header parse per build" `Quick
      test_memo_hit_counts;
    Alcotest.test_case "rebuild replaces output, never rewrites" `Quick
      test_rebuild_replaces_output ]
