(* Golden-corpus regression harness.

   Each workload in the corpus is compiled exactly the way the pdtc driver
   compiles a single translation unit (Pdt.compile with default options,
   Analyzer.run with Location_based mapping, Pdb_write.to_string) and the
   serialized PDB is compared BYTE-FOR-BYTE against a checked-in golden
   file under test/golden/.  Any change to the lexer, parser, sema,
   analyzer, or PDB writer that alters output for real programs fails here
   with a unified diff, so intentional format changes leave a reviewable
   trail in version control.

   Regenerating after an intentional change:

     PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test golden

   rewrites the goldens in the source tree (test/golden/ relative to the
   repo root; override the destination with PDT_GOLDEN_DIR), then commit
   the diff.  The test fails when regenerating so a stale
   PDT_GOLDEN_REGEN in the environment cannot silently greenlight CI. *)

module A = Pdt_analyzer.Analyzer
module W = Pdt_pdb.Pdb_write

let pdb_of_cpp ~vfs main : string =
  let c = Pdt.compile ~vfs main in
  if Pdt_util.Diag.has_errors c.Pdt.diags then
    Alcotest.fail
      (main ^ " no longer compiles clean:\n" ^ Pdt_util.Diag.to_string c.Pdt.diags);
  W.to_string (A.run c.Pdt.program)

(* ministl ships only headers; give it the same kind of driver the paper's
   Table 1 measurements used: a main that instantiates the containers *)
let ministl_driver =
  {|#include <vector.h>
#include <list.h>
#include <pair.h>
#include <algorithm.h>

int count_evens(const vector<int>& v) {
  int n = 0;
  for (int i = 0; i < v.size(); i = i + 1)
    if (v[i] % 2 == 0) n = n + 1;
  return n;
}

int main() {
  vector<int> v;
  v.push_back(3);
  v.push_back(4);
  list<double> l;
  l.push_back(2.5);
  pair<int, double> p(v.size(), l.front());
  return count_evens(v) + p.first;
}
|}

let ministl_pdb () =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_workloads.Ministl.mount vfs;
  Pdt_util.Vfs.add_file vfs "ministl_main.cpp" ministl_driver;
  pdb_of_cpp ~vfs "ministl_main.cpp"

let fortran_pdb () =
  let diags = Pdt_util.Diag.create () in
  let prog =
    Pdt_f90.F90_sema.compile_string ~file:Pdt_workloads.Fortran_demo.main_file
      ~diags Pdt_workloads.Fortran_demo.linear_algebra_f90
  in
  if Pdt_util.Diag.has_errors diags then
    Alcotest.fail ("fortran demo no longer compiles clean:\n" ^ Pdt_util.Diag.to_string diags);
  W.to_string (A.run prog)

let corpus : (string * (unit -> string)) list =
  [ ("stack", fun () ->
        pdb_of_cpp ~vfs:(Pdt_workloads.Stack.vfs ()) Pdt_workloads.Stack.main_file);
    ("ministl", ministl_pdb);
    ("pooma_like", fun () ->
        pdb_of_cpp ~vfs:(Pdt_workloads.Pooma_like.vfs ())
          Pdt_workloads.Pooma_like.main_file);
    ("parallel_stencil", fun () ->
        pdb_of_cpp ~vfs:(Pdt_workloads.Parallel_stencil.vfs ())
          Pdt_workloads.Parallel_stencil.main_file);
    ("fortran_demo", fortran_pdb);
    ("duchain_demo", fun () ->
        pdb_of_cpp ~vfs:(Pdt_workloads.Duchain_demo.vfs ())
          Pdt_workloads.Duchain_demo.main_file);
    ("parallel_spawn", fun () ->
        pdb_of_cpp ~vfs:(Pdt_workloads.Parallel_spawn.vfs ())
          Pdt_workloads.Parallel_spawn.main_file) ]

(* Under `dune runtest` the cwd is _build/default/test and dune has copied
   the goldens here via the glob dep; under `dune exec test/main.exe` from
   the repo root they are read from the source tree directly.  Walk up to
   the project root (source root or its _build/default mirror — both carry
   README.md next to a test/ directory) so both invocations agree. *)
let project_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "README.md")
       && Sys.is_directory (Filename.concat dir "test")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent
  in
  up (Sys.getcwd ())

let golden_dir () =
  match Sys.getenv_opt "PDT_GOLDEN_DIR" with
  | Some d -> d
  | None -> (
      match project_root () with
      | Some root -> Filename.concat (Filename.concat root "test") "golden"
      | None -> "golden")

let golden_read_path name = Filename.concat (golden_dir ()) (name ^ ".pdb")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* a compact unified-style diff: everything up to the first differing line
   is context, then +/- lines until the streams re-converge or the window
   closes — enough to see *what* changed without an LCS pass *)
let diff (expected : string) (actual : string) : string =
  let e = String.split_on_char '\n' expected |> Array.of_list in
  let a = String.split_on_char '\n' actual |> Array.of_list in
  let n = min (Array.length e) (Array.length a) in
  let first = ref 0 in
  while !first < n && e.(!first) = a.(!first) do incr first done;
  let b = Buffer.create 1024 in
  Printf.bprintf b "--- golden\n+++ actual\n@@ line %d @@\n" (!first + 1);
  for i = max 0 (!first - 2) to !first - 1 do
    Printf.bprintf b " %s\n" e.(i)
  done;
  let window = 20 in
  for i = !first to min (Array.length e - 1) (!first + window) do
    Printf.bprintf b "-%s\n" e.(i)
  done;
  if Array.length e - !first > window + 1 then
    Printf.bprintf b "-... (%d more golden lines)\n" (Array.length e - !first - window - 1);
  for i = !first to min (Array.length a - 1) (!first + window) do
    Printf.bprintf b "+%s\n" a.(i)
  done;
  if Array.length a - !first > window + 1 then
    Printf.bprintf b "+... (%d more actual lines)\n" (Array.length a - !first - window - 1);
  Buffer.contents b

(* A whole-file golden under the golden dir; [suite] is the alcotest suite
   whose run regenerates it, [what] names the pinned text in the failure
   message. *)
let check_text_golden ~suite ~what ~name actual =
  let dir = golden_dir () in
  let path = Filename.concat dir name in
  if Sys.getenv_opt "PDT_GOLDEN_REGEN" = Some "1" then begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    write_file path actual;
    Alcotest.fail
      (Printf.sprintf
         "regenerated %s (%d bytes) — unset PDT_GOLDEN_REGEN and rerun" path
         (String.length actual))
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.fail
        (Printf.sprintf
           "missing golden %s — run PDT_GOLDEN_REGEN=1 dune exec test/main.exe \
            -- test %s" path suite);
    let expected = read_file path in
    if expected <> actual then
      Alcotest.fail
        (Printf.sprintf "%s: %s changed (golden %d bytes, actual %d)\n%s" name what
           (String.length expected) (String.length actual) (diff expected actual))
  end

let check_golden (name, produce) () =
  check_text_golden ~suite:"golden" ~what:"PDB output" ~name:(name ^ ".pdb") (produce ())

(* the corpus goldens must also still parse and round-trip, so a golden
   can never go stale in a way the rest of the suite would miss *)
let test_goldens_roundtrip () =
  List.iter
    (fun (name, _) ->
      let path = golden_read_path name in
      if Sys.file_exists path then begin
        let text = read_file path in
        let pdb = Pdt_pdb.Pdb_parse.of_string text in
        Alcotest.(check string) (name ^ " round-trips") text (W.to_string pdb)
      end)
    corpus

(* ---------------- merged-PDB digests ---------------- *)

(* merge_digests.txt pins the bytes Ductape.merge produces, one line per
   merge case: the case name, the merged PDB's digest and its item count.
   The cases are generated projects (flat, as 8-unit group partials and
   reversed, which must all agree), more generator shapes, the C++
   golden workloads pairwise and all together, a mixed-language project,
   damaged inputs with a fifth of one item kind dropped so that
   references dangle, and a class defined in one unit and only
   forward-declared in others.  A merge change that moves any byte of
   any case fails here. *)

module B = Pdt_build.Build
module G = Pdt_workloads.Generator
module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb

let unit_pdbs (vfs, sources) =
  List.map (fun s -> (B.compile_unit B.default_options ~vfs s).B.c_pdb) sources

let rec chunks n = function
  | [] -> []
  | l -> List.filteri (fun i _ -> i < n) l :: chunks n (List.filteri (fun i _ -> i >= n) l)

let item_kinds =
  [| "files"; "namespaces"; "templates"; "classes"; "routines"; "types"; "macros" |]

(* Drop a fifth (at least one) of the items of kind [seed mod 7] from
   every input, picked by a seeded generator.  Each damaged case also
   generates its project from its seed, so kinds with one item per input
   (namespaces, macros) still differ between seeds. *)
let damage ~seed (pdbs : P.t list) : P.t list =
  let r = G.rng seed in
  let drop_fifth l =
    let ranked = List.mapi (fun i _ -> (G.next r, i)) l |> List.sort compare in
    let victims = List.filteri (fun k _ -> k < max 1 (List.length l / 5)) ranked in
    List.filteri (fun i _ -> not (List.exists (fun (_, v) -> v = i) victims)) l
  in
  List.map
    (fun (p : P.t) ->
      let p = { p with P.files = p.P.files } (* a copy; the input stays whole *) in
      (match seed mod 7 with
       | 0 -> p.P.files <- drop_fifth p.P.files
       | 1 -> p.P.namespaces <- drop_fifth p.P.namespaces
       | 2 -> p.P.templates <- drop_fifth p.P.templates
       | 3 -> p.P.classes <- drop_fifth p.P.classes
       | 4 -> p.P.routines <- drop_fifth p.P.routines
       | 5 -> p.P.types <- drop_fifth p.P.types
       | _ -> p.P.pdb_macros <- drop_fifth p.P.pdb_macros);
      p)
    pdbs

(* (seed, (class templates, chain depth, methods, function templates,
   plain classes, instantiation types), TUs) *)
let shapes =
  [ (1, (1, 1, 1, 1, 1, 1), 1); (2, (2, 1, 2, 1, 1, 2), 2);
    (3, (3, 2, 2, 2, 2, 2), 3); (4, (4, 3, 3, 2, 1, 3), 4);
    (5, (2, 2, 4, 3, 3, 1), 5); (6, (5, 4, 2, 1, 2, 4), 6);
    (7, (3, 1, 1, 4, 4, 5), 3); (8, (6, 5, 3, 2, 2, 3), 4);
    (9, (4, 4, 4, 4, 4, 4), 2); (10, (8, 3, 4, 4, 4, 3), 8);
    (11, (2, 2, 2, 0, 0, 2), 4); (12, (7, 2, 1, 3, 1, 5), 5) ]

let merge_cases () : (string * P.t) list =
  let flat_grouped_reversed name pdbs =
    [ (name ^ "/flat", D.merge pdbs);
      (name ^ "/groups8", D.merge (List.map D.merge (chunks 8 pdbs)));
      (name ^ "/reversed", D.merge (List.rev pdbs)) ]
  in
  let default_shape =
    List.concat_map
      (fun seed ->
        flat_grouped_reversed
          (Printf.sprintf "gen-default-s%d-24tu" seed)
          (unit_pdbs (G.project_vfs ~cfg:{ G.default_config with seed } ~n_tus:24 ())))
      [ 7; 31; 42 ]
  in
  let other_shapes =
    List.map
      (fun (seed, (t, d, m, f, p, i), n_tus) ->
        let cfg =
          { G.seed; n_class_templates = t; chain_depth = d; methods_per_class = m;
            n_function_templates = f; n_plain_classes = p; n_instantiation_types = i }
        in
        ( Printf.sprintf "gen-s%d-t%d-d%d-m%d-f%d-p%d-i%d-%dtu/flat" seed t d m f p i n_tus,
          D.merge (unit_pdbs (G.project_vfs ~cfg ~n_tus ())) ))
      shapes
  in
  let workloads =
    List.filter_map
      (fun (name, _) ->
        if name = "fortran_demo" then None
        else Some (name, Pdt_pdb.Pdb_parse.of_string (read_file (golden_read_path name))))
      corpus
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let corpus_cases =
    List.map
      (fun ((a, pa), (b, pb)) -> (Printf.sprintf "corpus/%s+%s" a b, D.merge [ pa; pb ]))
      (pairs workloads)
    @ [ ("corpus/all", D.merge (List.map snd workloads)) ]
  in
  let mixed ?(seed = G.default_config.G.seed) () =
    unit_pdbs (G.mixed_project_vfs ~cfg:{ G.default_config with seed } ~n_tus:3 ())
  in
  let damaged =
    List.map
      (fun seed ->
        ( Printf.sprintf "damaged/s%d-%s" seed item_kinds.(seed mod 7),
          D.merge (damage ~seed (mixed ~seed ())) ))
      (List.init 14 (fun i -> i + 1))
  in
  let forward_decl =
    [ ("fwd-decl/a+b0", D.merge (unit_pdbs (Test_build.shapes_project [ 0 ])));
      ( "fwd-decl/a+b0..b15",
        D.merge (unit_pdbs (Test_build.shapes_project (List.init 16 Fun.id))) ) ]
  in
  default_shape @ other_shapes @ corpus_cases
  @ [ ("mixed-3tu-f90-java/flat", D.merge (mixed ())) ]
  @ damaged @ forward_decl

let test_merge_digests () =
  let lines =
    List.map
      (fun (name, m) ->
        Printf.sprintf "%s %s %d\n" name (Pdt_pdb.Pdb_digest.of_pdb m) (P.item_count m))
      (merge_cases ())
  in
  check_text_golden ~suite:"golden" ~what:"merged PDB digests" ~name:"merge_digests.txt"
    (String.concat "" lines)

(* ---------------- the paper's counts ---------------- *)

(* paper_counts.txt pins the counts behind EXPERIMENTS.md's B1 (§2: a
   template chain of length L instantiated in used mode, against the
   prelinker's automatic mode simulated on the same IL), B2 (Table 2:
   pdbmerge over the per-unit PDBs of an N-TU generated project), Table 1
   (attribute lines per item kind in the Stack PDB), Figure 4 (the Stack
   PDB's population of each DUCTAPE hierarchy level) and the §3.1
   specialization-mapping ablation. *)

let paper_counts () =
  let b = Buffer.create 2048 in
  let pr fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') b fmt in
  let analyze c = A.run c.Pdt.program in
  pr "B1: used-mode vs automatic instantiation (paper section 2)";
  pr "| chain length | used: passes | used: IL entities | auto: prelink rounds | %s |"
    "auto: IL entities";
  List.iter
    (fun n ->
      let cfg = { G.default_config with n_class_templates = n; chain_depth = 2 } in
      let c = Pdt.compile_string (G.single_file_program ~cfg ()) in
      let r = Pdt_prelink.Prelink.simulate c.Pdt.program in
      (* used mode instantiates everything in the one compilation above *)
      pr "| %d | 1 | %d | %d | %d |" n r.used_mode_il_entities r.rounds
        r.automatic_mode_il_entities)
    [ 2; 4; 6; 8; 10; 12 ];
  pr "";
  pr "B2: pdbmerge duplicate elimination (paper Table 2)";
  pr "| TUs | items before | items after | duplicate instantiations eliminated | ratio |";
  List.iter
    (fun n_tus ->
      let vfs, files = G.project_vfs ~n_tus () in
      let _, s =
        Pdt_tools.Pdbmerge.merge (List.map (fun f -> analyze (Pdt.compile_exn ~vfs f)) files)
      in
      pr "| %d | %d | %d | %d | %.2f |" n_tus s.items_before s.items_after
        s.duplicate_instantiations
        (float_of_int s.items_before /. float_of_int (max 1 s.items_after)))
    [ 2; 4; 8; 12 ];
  let stack =
    analyze (Pdt.compile_exn ~vfs:(Pdt_workloads.Stack.vfs ()) Pdt_workloads.Stack.main_file)
  in
  let lines = String.split_on_char '\n' (W.to_string stack) in
  let attrs kind prefix names =
    let count a = List.length (List.filter (String.starts_with ~prefix:(a ^ " ")) lines) in
    pr "| %s | %s | %s |" kind prefix
      (String.concat " " (List.map (fun a -> Printf.sprintf "%s=%d" a (count a)) names))
  in
  pr "";
  pr "Table 1: attribute lines per item type, Stack PDB";
  pr "| item type | prefix | attribute lines |";
  attrs "SOURCE FILES" "so" [ "sinc" ];
  attrs "ROUTINES" "ro" [ "rloc"; "rclass"; "rsig"; "rcall"; "rtempl"; "rpos" ];
  attrs "CLASSES" "cl" [ "ckind"; "ctempl"; "cfunc"; "cmem"; "cpos" ];
  attrs "TYPES" "ty" [ "ykind"; "yrett"; "yargt" ];
  attrs "TEMPLATES" "te" [ "tkind"; "ttext" ];
  attrs "NAMESPACES" "na" [ "nmem" ];
  attrs "MACROS" "ma" [ "makind"; "matext" ];
  let d = D.index stack in
  let items = D.items d in
  let level name p = pr "| %s | %d |" name (List.length (List.filter p items)) in
  pr "";
  pr "Figure 4: DUCTAPE item hierarchy, Stack PDB";
  pr "| class | items |";
  level "pdbSimpleItem" (fun _ -> true);
  level "pdbFile" (function D.File _ -> true | _ -> false);
  level "pdbItem" D.is_item;
  level "pdbMacro" (function D.Macro _ -> true | _ -> false);
  level "pdbType" (function D.Type _ -> true | _ -> false);
  level "pdbFatItem" D.is_fat_item;
  level "pdbTemplate" (function D.Template _ -> true | _ -> false);
  level "pdbNamespace" (function D.Namespace _ -> true | _ -> false);
  level "pdbTemplateItem" D.is_template_item;
  level "pdbClass" (function D.Class _ -> true | _ -> false);
  level "pdbRoutine" (function D.Routine _ -> true | _ -> false);
  pr "| template instantiations | %d |" (List.length (D.template_items d));
  let c =
    Pdt.compile_string
      ~opts:{ Pdt_sema.Sema.default_options with map_specializations = true }
      "template <class T> class Traits { public: int size() { return 1; } };\n\
       template <> class Traits<char> { public: int size() { return 99; } };\n\
       template <class T> class Traits<T *> { public: int size() { return 8; } };\n\
       int main() { Traits<int> a; Traits<char> b; Traits<double *> c;\n\
       \  return a.size() + b.size() + c.size(); }"
  in
  let classes mapping =
    (A.run ~opts:{ A.default_options with mapping } c.Pdt.program).P.classes
  in
  let mapped mapping =
    List.length
      (List.filter
         (fun (cl : P.class_item) -> cl.cl_templ <> None || cl.cl_stempl <> None)
         (classes mapping))
  in
  pr "";
  pr "Ablation: specialization mapping (paper section 3.1)";
  pr "| classes | count |";
  pr "| instantiations + specializations | %d |"
    (List.length
       (List.filter (fun (cl : P.class_item) -> String.contains cl.cl_name '<')
          (classes A.Location_based)));
  pr "| mapped, location-based (paper) | %d |" (mapped A.Location_based);
  pr "| mapped, IL ids (proposed fix) | %d |" (mapped A.Il_ids);
  Buffer.contents b

let test_paper_counts () =
  check_text_golden ~suite:"golden" ~what:"paper counts" ~name:"paper_counts.txt"
    (paper_counts ())

let suite =
  List.map
    (fun (name, produce) ->
      Alcotest.test_case ("golden: " ^ name) `Quick (check_golden (name, produce)))
    corpus
  @ [ Alcotest.test_case "goldens parse and round-trip" `Quick test_goldens_roundtrip;
      Alcotest.test_case "golden: merge digests" `Quick test_merge_digests;
      Alcotest.test_case "golden: paper counts" `Quick test_paper_counts ]
