(* Incremental re-analysis: the Goblint-style patch-pair suite.

   Each case under test/incremental/<name>/ is a checked-in corpus
   program (its base files), a unified-diff edit (edit.patch) and an
   EXPECT line stating what incremental re-analysis may and may not
   recompute after the edit:

     reanalyzed=N reused=M

   The oracle has two halves.  The *stats* half pins the dirty-cone
   computation: a header edit must re-analyze exactly the units whose
   include cone contains the header; a whitespace-only edit must
   re-analyze nothing.  The *bytes* half pins soundness: the incremental
   merged PDB must be byte-identical to a cold from-scratch build of the
   same (patched) tree — reuse is only ever an optimization, never an
   observable behavior.

   Adding a pair: create test/incremental/<name>/ with the base files,
   an edit.patch produced by `diff -u` (labels a/<file> and b/<file>;
   /dev/null for additions and deletions), an EXPECT line, a glob line
   in test/dune, and the case name in `cases` below.  See
   EXPERIMENTS.md. *)

module B = Pdt_build.Build
module I = Pdt_build.Incremental

let pdb_string = Pdt_pdb.Pdb_write.to_string

let domains =
  match Option.bind (Sys.getenv_opt "PDT_TEST_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1

(* ---------------- corpus discovery (same walk as test_golden) ---------------- *)

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

let corpus_dir () =
  match project_root () with
  | Some root -> Filename.concat (Filename.concat root "test") "incremental"
  | None -> "incremental"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir () =
  let f = Filename.temp_file "pdt-incr-test" ".cache" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---------------- a minimal unified-diff applier ---------------- *)

(* Just enough of the format for the corpus patches: file sections with
   `--- a/<path>` / `+++ b/<path>` labels (/dev/null for add/delete) and
   `@@ -l[,n] +l[,n] @@` hunks of ' '/'-'/'+' lines.  Context and
   deletion lines are verified against the base text, so a stale patch
   fails loudly instead of silently testing the wrong program. *)

let split_lines s =
  let ls = String.split_on_char '\n' s in
  match List.rev ls with "" :: rest -> List.rev rest | _ -> ls

let join_lines ls = String.concat "\n" ls ^ "\n"

let strip_label l =
  (* "a/util.h" -> "util.h"; "/dev/null" stays *)
  if l = "/dev/null" then l
  else match String.index_opt l '/' with
    | Some i when i <= 2 -> String.sub l (i + 1) (String.length l - i - 1)
    | _ -> l

let parse_hunk_header line =
  try Scanf.sscanf line "@@ -%d%s@!" (fun a rest ->
      (* rest is ",n +c[,d] @@" or " +c[,d] @@" — only the old start
         matters for application *)
      ignore rest; Some a)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

type section = { s_old : string; s_new : string; s_lines : string list }

let parse_sections (patch : string) : section list =
  let rec go acc cur = function
    | [] -> List.rev (match cur with Some s -> s :: acc | None -> acc)
    | line :: rest ->
        if String.length line >= 4 && String.sub line 0 4 = "--- " then
          let old_label = strip_label (String.sub line 4 (String.length line - 4)) in
          (match rest with
           | new_line :: rest' when String.length new_line >= 4
                                    && String.sub new_line 0 4 = "+++ " ->
               let new_label =
                 strip_label (String.sub new_line 4 (String.length new_line - 4))
               in
               let acc = match cur with Some s -> s :: acc | None -> acc in
               go acc (Some { s_old = old_label; s_new = new_label; s_lines = [] }) rest'
           | _ -> Alcotest.fail "patch: --- not followed by +++")
        else
          (match cur with
           | None -> go acc cur rest  (* preamble *)
           | Some s -> go acc (Some { s with s_lines = line :: s.s_lines }) rest)
  in
  go [] None (split_lines patch)
  |> List.map (fun s -> { s with s_lines = List.rev s.s_lines })

let apply_section (files : (string * string) list) (s : section) :
    (string * string) list =
  if s.s_new = "/dev/null" then List.remove_assoc s.s_old files
  else begin
    let old_lines =
      if s.s_old = "/dev/null" then []
      else
        match List.assoc_opt s.s_old files with
        | Some c -> split_lines c
        | None -> Alcotest.fail ("patch: no such base file " ^ s.s_old)
    in
    let old_arr = Array.of_list old_lines in
    let out = Buffer.create 256 in
    let emit l = Buffer.add_string out l; Buffer.add_char out '\n' in
    let cursor = ref 0 in
    let expect_old tag l =
      if !cursor >= Array.length old_arr || old_arr.(!cursor) <> l then
        Alcotest.fail
          (Printf.sprintf "patch: %s line %S does not match %s:%d" tag l
             s.s_old (!cursor + 1));
      incr cursor
    in
    List.iter
      (fun line ->
        match parse_hunk_header line with
        | Some a ->
            let upto = max 0 (a - 1) in
            while !cursor < upto do
              emit old_arr.(!cursor);
              incr cursor
            done
        | None ->
            if line = "" then emit ""  (* empty context line *)
            else
              let tag = line.[0] in
              let body = String.sub line 1 (String.length line - 1) in
              (match tag with
               | ' ' -> expect_old "context" body; emit body
               | '-' -> expect_old "deletion" body
               | '+' -> emit body
               | '\\' -> ()  (* "\ No newline at end of file" *)
               | _ -> Alcotest.fail ("patch: unexpected line " ^ line)))
      s.s_lines;
    while !cursor < Array.length old_arr do
      emit old_arr.(!cursor);
      incr cursor
    done;
    let content = Buffer.contents out in
    let content =
      (* join_lines discipline: Buffer already ends each line with \n *)
      if content = "" then "" else join_lines (split_lines content)
    in
    (s.s_new, content) :: List.remove_assoc s.s_new files
  end

let apply_patch files patch =
  List.fold_left apply_section files (parse_sections patch)

(* ---------------- running one pair ---------------- *)

let is_source f =
  List.mem (Filename.extension f) [ ".cpp"; ".cc"; ".f90"; ".java" ]

let vfs_of files =
  let vfs = Pdt_util.Vfs.create () in
  List.iter (fun (p, c) -> Pdt_util.Vfs.add_file vfs p c) files;
  vfs

let sources_of files =
  List.filter is_source (List.map fst files) |> List.sort compare

(* cold oracle: a cacheless from-scratch build of the same tree *)
let cold_bytes files =
  let r =
    B.build
      ~options:{ B.default_options with domains; cache_dir = None }
      ~vfs:(vfs_of files) (sources_of files)
  in
  Alcotest.(check int) "cold build has no failures" 0 r.B.failed;
  pdb_string r.B.merged

let load_case name =
  let dir = Filename.concat (corpus_dir ()) name in
  if not (Sys.file_exists dir) then
    Alcotest.fail ("missing patch-pair corpus dir " ^ dir);
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "edit.patch" && f <> "EXPECT")
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  let patch = read_file (Filename.concat dir "edit.patch") in
  let expect =
    let line = String.trim (read_file (Filename.concat dir "EXPECT")) in
    try Scanf.sscanf line "reanalyzed=%d reused=%d" (fun a b -> (a, b))
    with _ -> Alcotest.fail ("bad EXPECT in " ^ name ^ ": " ^ line)
  in
  (files, patch, expect)

let incr_build ~cache_dir files =
  I.build
    ~options:
      { I.default_options with
        build = { B.default_options with domains; cache_dir = Some cache_dir } }
    ~vfs:(vfs_of files) (sources_of files)

let check_pair name () =
  let files0, patch, (exp_re, exp_used) = load_case name in
  let cache = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  (* run 1: cold — everything re-analyzes, bytes match from scratch *)
  let r1 = incr_build ~cache_dir:cache files0 in
  Alcotest.(check int) "cold run reuses nothing" 0 r1.I.reused;
  Alcotest.(check int)
    "cold run re-analyzes every unit"
    (List.length (sources_of files0))
    r1.I.reanalyzed;
  Alcotest.(check string) "cold incremental bytes = from-scratch bytes"
    (cold_bytes files0) (pdb_string r1.I.merged);
  (* apply the patch, run 2: the delta *)
  let files1 = apply_patch files0 patch in
  let r2 = incr_build ~cache_dir:cache files1 in
  Alcotest.(check bool) "delta path did not fall back" false r2.I.fallback;
  Alcotest.(check (pair int int))
    "reanalyzed/reused stats"
    (exp_re, exp_used)
    (r2.I.reanalyzed, r2.I.reused);
  Alcotest.(check int)
    "reanalyzed + reused = total units"
    (List.length (sources_of files1))
    (r2.I.reanalyzed + r2.I.reused);
  Alcotest.(check string) "patched incremental bytes = from-scratch bytes"
    (cold_bytes files1) (pdb_string r2.I.merged)

(* a third run with no further edit must reuse everything *)
let check_quiescent () =
  let files0, patch, _ = load_case "header_edit" in
  let cache = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  ignore (incr_build ~cache_dir:cache files0);
  let files1 = apply_patch files0 patch in
  ignore (incr_build ~cache_dir:cache files1);
  let r3 = incr_build ~cache_dir:cache files1 in
  Alcotest.(check (pair int int))
    "quiescent rebuild reuses everything"
    (0, List.length (sources_of files1))
    (r3.I.reanalyzed, r3.I.reused);
  Alcotest.(check bool) "groups served from partial-merge cache" true
    (r3.I.groups_reused >= 1)

(* corrupt state file: the driver must degrade to re-analysis, not crash
   and not trust the bytes *)
let check_corrupt_state () =
  let files0, _, _ = load_case "tu_edit" in
  let cache = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
  ignore (incr_build ~cache_dir:cache files0);
  let state = Filename.concat cache "incremental.state" in
  let oc = open_out_bin state in
  output_string oc "PDT-INCR v1 digest=deadbeef\ngarbage\tlines\n";
  close_out oc;
  let r = incr_build ~cache_dir:cache files0 in
  Alcotest.(check bool) "no fallback needed" false r.I.fallback;
  Alcotest.(check string) "bytes still correct"
    (cold_bytes files0) (pdb_string r.I.merged)

let cases =
  [ "header_edit"; "tu_edit"; "template_edit"; "whitespace_noop";
    "add_delete" ]

let suite =
  List.map
    (fun name ->
      Alcotest.test_case ("patch pair: " ^ name) `Quick (check_pair name))
    cases
  @ [ Alcotest.test_case "quiescent rebuild reuses everything" `Quick
        check_quiescent;
      Alcotest.test_case "corrupt state degrades cleanly" `Quick
        check_corrupt_state ]
