(* The pdtc command line, run as a process: what it prints on stdout and
   stderr, the PDB it writes and its exit code, for each kind of unit it
   can be given — clean, warning, recoverable error, fatal error, the
   Fortran 90 and Java front ends — and for its usage errors. *)

let pdtc_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pdtc.exe")

let fresh_dir () =
  let f = Filename.temp_file "pdt-pdtc-test" ".d" in
  Sys.remove f;
  Sys.mkdir f 0o755;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let contains sub s =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  go 0

type outcome = { code : int; stdout : string; stderr : string }

(* Run pdtc with [args]; its output streams go to files in [dir]. *)
let pdtc ~dir args =
  let out = Filename.concat dir "stdout.txt"
  and err = Filename.concat dir "stderr.txt" in
  let open_log p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let o = open_log out and e = open_log err in
  let exe = pdtc_exe () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin o e in
  Unix.close o;
  Unix.close e;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | _ -> Alcotest.fail "pdtc did not exit normally"
  in
  { code; stdout = read_file out; stderr = read_file err }

(* [f dir src pdb]: [src] holds [text] under [name], [pdb] is the output
   path pdtc is given. *)
let with_unit name text f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let src = Filename.concat dir name in
  write_file src text;
  f dir src (Filename.concat dir "out.pdb")

let check_wrote what r ~pdb ~items =
  Alcotest.(check string) (what ^ ": stdout")
    (Printf.sprintf "wrote %s (%s)\n" pdb items) r.stdout

let first_line path =
  let s = read_file path in
  match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s

let test_clean_cpp () =
  with_unit "clean.cpp"
    "int add(int a, int b) { return a + b; }\nint main() { return add(1, 2); }\n"
  @@ fun dir src pdb ->
  let r = pdtc ~dir [ src; "-o"; pdb ] in
  Alcotest.(check int) "exit 0" 0 r.code;
  check_wrote "clean" r ~pdb ~items:"6 items";
  Alcotest.(check string) "nothing on stderr" "" r.stderr;
  Alcotest.(check string) "complete PDB" "<PDB 1.1>" (first_line pdb)

let test_warning_cpp () =
  with_unit "warn.cpp" "#warning \"careful\"\nint main() { return 0; }\n"
  @@ fun dir src pdb ->
  let r = pdtc ~dir [ src; "-o"; pdb ] in
  Alcotest.(check int) "a warning still exits 0" 0 r.code;
  check_wrote "warning" r ~pdb ~items:"4 items";
  Alcotest.(check string) "the warning on stderr"
    (src ^ ":1:1: warning: #warning \"careful\"\n") r.stderr

let test_recoverable_error_cpp () =
  with_unit "bad.cpp"
    "int good() { return 1; }\nint bad( { return ; }\nint main() { return good(); }\n"
  @@ fun dir src pdb ->
  let r = pdtc ~dir [ src; "-o"; pdb ] in
  Alcotest.(check int) "exit 1" 1 r.code;
  check_wrote "degraded" r ~pdb ~items:"4 items, incomplete";
  Alcotest.(check string) "the diagnostic on stderr"
    (src ^ ":2:10: error: expected type but found '{'\n") r.stderr;
  Alcotest.(check string) "PDB flagged incomplete" "<PDB 1.1 incomplete 1>"
    (first_line pdb)

let test_fatal_error_cpp () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* a directory passes the command line's existence check, but the front
     end cannot open it *)
  let src = Filename.concat dir "unit.cpp" in
  Sys.mkdir src 0o755;
  let pdb = Filename.concat dir "out.pdb" in
  let r = pdtc ~dir [ src; "-o"; pdb ] in
  Alcotest.(check int) "exit 1" 1 r.code;
  Alcotest.(check string) "nothing written" "" r.stdout;
  Alcotest.(check string) "one pdtc: line"
    ("pdtc: <builtin>:0:0: fatal error: cannot open source file " ^ src ^ "\n")
    r.stderr;
  Alcotest.(check bool) "no PDB" false (Sys.file_exists pdb)

let test_other_front_ends () =
  List.iter
    (fun (name, text, items) ->
      with_unit name text @@ fun dir src pdb ->
      let r = pdtc ~dir [ src; "-o"; pdb ] in
      Alcotest.(check int) (name ^ ": exit 0") 0 r.code;
      check_wrote name r ~pdb ~items;
      Alcotest.(check string) (name ^ ": nothing on stderr") "" r.stderr)
    [ ("clean.f90",
       "module m\ncontains\n  subroutine s(x)\n    integer :: x\n    x = 1\n\
       \  end subroutine s\nend module m\n",
       "6 items");
      ("Clean.java", "class Clean { int f() { return 1; } }\n", "5 items") ];
  List.iter
    (fun (name, text, diag) ->
      with_unit name text @@ fun dir src pdb ->
      let r = pdtc ~dir [ src; "-o"; pdb ] in
      Alcotest.(check int) (name ^ ": exit 1") 1 r.code;
      Alcotest.(check string) (name ^ ": nothing written") "" r.stdout;
      Alcotest.(check string) (name ^ ": the diagnostic on stderr")
        (src ^ diag ^ "\n") r.stderr;
      Alcotest.(check bool) (name ^ ": no PDB") false (Sys.file_exists pdb))
    [ ("bad.f90", "module m\n  subroutine (\nend\n",
       ":2:14: error: expected name, found (");
      ("Bad.java", "class Bad { int f( { return 1; }\n",
       ":1:20: error: expected type, found '{'") ]

let test_usage_errors () =
  with_unit "clean.cpp" "int main() { return 0; }\n" @@ fun dir src pdb ->
  List.iter
    (fun (args, stderr) ->
      let r = pdtc ~dir args in
      Alcotest.(check int) (String.concat " " args ^ ": exit 124") 124 r.code;
      Alcotest.(check string) "stdout empty" "" r.stdout;
      Alcotest.(check string) "the message" stderr r.stderr)
    [ ([ src; "--limit"; "bogus"; "-o"; pdb ],
       "pdtc: malformed limit 'bogus' (want name=value)\n");
      ([ src; "--max-errors"; "3"; "--limit"; "errors=x"; "-o"; pdb ],
       "pdtc: limit 'errors': 'x' is not an integer\n");
      ([ src; src ],
       "pdtc: several sources given; use pdbbuild to build them into one \
        merged PDB\n") ];
  Alcotest.(check bool) "no PDB" false (Sys.file_exists pdb)

let suite =
  [ Alcotest.test_case "clean C++: exit 0, wrote line" `Quick test_clean_cpp;
    Alcotest.test_case "warning on stderr, exit 0" `Quick test_warning_cpp;
    Alcotest.test_case "syntax error: incomplete PDB, exit 1" `Quick
      test_recoverable_error_cpp;
    Alcotest.test_case "fatal error: a pdtc: line, exit 1" `Quick
      test_fatal_error_cpp;
    Alcotest.test_case "Fortran 90 and Java units" `Quick test_other_front_ends;
    Alcotest.test_case "usage errors exit 124" `Quick test_usage_errors ]
