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

let suite =
  List.map
    (fun (name, produce) ->
      Alcotest.test_case ("golden: " ^ name) `Quick (check_golden (name, produce)))
    corpus
  @ [ Alcotest.test_case "goldens parse and round-trip" `Quick test_goldens_roundtrip ]
