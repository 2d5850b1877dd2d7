(* Unit tests for the preprocessor. *)

open Pdt_util
open Pdt_lex
open Pdt_pp

let run ?(files = []) main_src =
  let vfs = Vfs.create () in
  List.iter (fun (p, c) -> Vfs.add_file vfs p c) files;
  Vfs.add_file vfs "main.cpp" main_src;
  let diags = Diag.create () in
  let r = Preproc.run ~vfs ~diags "main.cpp" in
  (r, diags)

let spellings r = List.map (fun (t : Token.tok) -> Token.spelling t.tok) r.Preproc.tokens

let check ?files msg main expected =
  let r, _ = run ?files main in
  Alcotest.(check (list string)) msg expected (spellings r)

let test_object_macro () =
  check "simple" "#define N 10\nint x = N;" [ "int"; "x"; "="; "10"; ";" ];
  check "chained" "#define A B\n#define B 42\nA" [ "42" ];
  check "self-referential stops" "#define X X + 1\nX" [ "X"; "+"; "1" ]

let test_function_macro () =
  check "basic" "#define SQ(x) ((x)*(x))\nSQ(3)"
    [ "("; "("; "3"; ")"; "*"; "("; "3"; ")"; ")" ];
  check "two args" "#define ADD(a,b) a + b\nADD(1, 2)" [ "1"; "+"; "2" ];
  check "nested call" "#define SQ(x) ((x)*(x))\nSQ(SQ(2))"
    [ "("; "("; "("; "("; "2"; ")"; "*"; "("; "2"; ")"; ")"; ")"; "*";
      "("; "("; "("; "2"; ")"; "*"; "("; "2"; ")"; ")"; ")"; ")" ];
  check "not a call without parens" "#define F(x) x\nF + 1" [ "F"; "+"; "1" ];
  check "arg with commas in parens" "#define ID(x) x\nID(f(a, b))"
    [ "f"; "("; "a"; ","; "b"; ")" ]

let test_stringize_paste () =
  let r, _ = run "#define STR(x) #x\nSTR(hello world)" in
  (match r.Preproc.tokens with
   | [ { tok = Token.StringLit (_, "hello world"); _ } ] -> ()
   | ts ->
       Alcotest.failf "stringize: %s"
         (String.concat " " (List.map (fun (t : Token.tok) -> Token.describe t.tok) ts)));
  check "paste" "#define GLUE(a,b) a##b\nGLUE(foo, bar)" [ "foobar" ];
  check "paste to number" "#define GLUE(a,b) a##b\nGLUE(1, 2)" [ "12" ]

let test_conditionals () =
  check "ifdef taken" "#define A\n#ifdef A\nyes\n#endif" [ "yes" ];
  check "ifdef not taken" "#ifdef A\nyes\n#endif" [];
  check "ifndef guard" "#ifndef G\n#define G\nbody\n#endif\n#ifndef G\nagain\n#endif"
    [ "body" ];
  check "else branch" "#ifdef A\nyes\n#else\nno\n#endif" [ "no" ];
  check "elif" "#define V 2\n#if V == 1\none\n#elif V == 2\ntwo\n#else\nother\n#endif"
    [ "two" ];
  check "nested inactive" "#ifdef A\n#ifdef B\nx\n#endif\ny\n#endif\nz" [ "z" ];
  check "if defined()" "#define A 1\n#if defined(A) && A > 0\nok\n#endif" [ "ok" ];
  check "arith" "#if 2 * 3 + 1 == 7\nok\n#endif" [ "ok" ];
  check "ternary" "#if 1 ? 0 : 1\nbad\n#else\nok\n#endif" [ "ok" ];
  check "unknown ident is 0" "#if FOO\nbad\n#else\nok\n#endif" [ "ok" ]

let test_includes () =
  let files =
    [ ("inc/a.h", "#pragma once\nint a;\n#include \"b.h\"\n");
      ("inc/b.h", "int b;\n") ]
  in
  let r, _ =
    let vfs = Vfs.create ~include_paths:[ "inc" ] () in
    List.iter (fun (p, c) -> Vfs.add_file vfs p c) files;
    Vfs.add_file vfs "main.cpp" "#include <a.h>\nint m;\n";
    let diags = Diag.create () in
    (Preproc.run ~vfs ~diags "main.cpp", diags)
  in
  Alcotest.(check (list string)) "tokens"
    [ "int"; "a"; ";"; "int"; "b"; ";"; "int"; "m"; ";" ]
    (spellings r);
  let names = List.map (fun f -> f.Preproc.f_path) r.Preproc.source_files in
  Alcotest.(check (list string)) "file order" [ "main.cpp"; "inc/a.h"; "inc/b.h" ] names;
  let main_rec = List.hd r.Preproc.source_files in
  Alcotest.(check (list string)) "main includes" [ "inc/a.h" ] main_rec.Preproc.f_includes

let test_pragma_once () =
  let files = [ ("h.h", "#pragma once\nint h;\n") ] in
  check ~files "double include" "#include \"h.h\"\n#include \"h.h\"\n"
    [ "int"; "h"; ";" ]

let test_include_guard () =
  let files = [ ("g.h", "#ifndef G_H\n#define G_H\nint g;\n#endif\n") ] in
  check ~files "guarded double include" "#include \"g.h\"\n#include \"g.h\"\n"
    [ "int"; "g"; ";" ]

let test_undef () =
  check "undef" "#define A 1\n#undef A\n#ifdef A\nbad\n#endif\nA" [ "A" ]

let test_error_directive () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "main.cpp" "#error boom\n";
  let diags = Diag.create () in
  (try ignore (Preproc.run ~vfs ~diags "main.cpp") with Diag.Error _ -> ());
  Alcotest.(check bool) "has error" true (Diag.has_errors diags)

let test_macro_log () =
  let r, _ = run "#define A 1\n#define F(x) x+1\n#define A 1\n" in
  let names = List.map (fun m -> m.Preproc.m_name) r.Preproc.macros in
  Alcotest.(check (list string)) "log order" [ "A"; "F"; "A" ] names;
  let f = List.nth r.Preproc.macros 1 in
  Alcotest.(check bool) "function-like" true (f.Preproc.m_kind = Preproc.Function_like);
  Alcotest.(check (list string)) "params" [ "x" ] f.Preproc.m_params

let test_predefined () =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "main.cpp" "#ifdef __PDT__\nok\n#endif\n";
  let diags = Diag.create () in
  let r = Preproc.run ~predefined:[ ("__PDT__", "1") ] ~vfs ~diags "main.cpp" in
  Alcotest.(check (list string)) "predefined visible" [ "ok" ]
    (List.map (fun (t : Token.tok) -> Token.spelling t.tok) r.Preproc.tokens)

(* a leading-0 literal is octal in #if too *)
let test_octal_condition () =
  check "010 == 8" "#if 010 == 8\nok\n#else\nbad\n#endif" [ "ok" ]

(* a #define continued with a line splice, LF or CRLF, is one directive *)
let test_continued_define () =
  List.iter
    (fun (what, src) ->
      let r, diags = run src in
      Alcotest.(check (list string)) what [ "int"; "a"; "="; "1"; ";" ] (spellings r);
      Alcotest.(check int) (what ^ ": no diagnostics") 0
        (List.length (Diag.diagnostics diags)))
    [ ("LF", "#define X \\\n 1\nint a = X;\n");
      ("CRLF", "#define X \\\r\n 1\r\nint a = X;\r\n") ]

(* to the preprocessor a keyword is an identifier *)
let test_keyword_macros () =
  check "keywords expand" "#define inline\n#define unsigned int\ninline unsigned f( ) { return 1; }"
    [ "int"; "f"; "("; ")"; "{"; "return"; "1"; ";"; "}" ];
  check "#ifdef a keyword" "#define inline\n#ifdef inline\nyes\n#endif" [ "yes" ];
  check "#ifndef a keyword" "#define inline\n#ifndef inline\nno\n#endif" [];
  check "defined a keyword" "#define inline\n#if defined(inline) && defined inline\nyes\n#endif"
    [ "yes" ];
  check "#undef a keyword" "#define inline static\n#undef inline\ninline" [ "inline" ]

let run_with_budget ~max_tokens src =
  let vfs = Vfs.create () in
  Vfs.add_file vfs "main.cpp" src;
  let diags = Diag.create () in
  let limits =
    Limits.create ~budgets:{ Limits.default_budgets with Limits.max_tokens } ()
  in
  (Preproc.run ~limits ~vfs ~diags "main.cpp", diags)

(* the token budget holds for text with no macro in it: a TU of exactly
   the budget passes, one more token breaches it.  The text between two
   directives is one logical line to the preprocessor, charged whole *)
let test_token_budget_macro_free () =
  let decls = String.concat "" (List.init 100 (Printf.sprintf "int a%d ;\n")) in
  let r, diags = run_with_budget ~max_tokens:300 decls in
  Alcotest.(check int) "all 300 tokens out" 300 (List.length r.Preproc.tokens);
  Alcotest.(check bool) "at the budget: no breach" false (Diag.has_errors diags);
  let r, diags = run_with_budget ~max_tokens:300 (decls ^ "x\n") in
  Alcotest.(check bool) "one over: breach recorded" true (Diag.has_errors diags);
  Alcotest.(check int) "the breaching text is dropped" 0
    (List.length r.Preproc.tokens)

(* a line whose expansion breaches the budget is charged and appended as
   one unit: none of its tokens reach the output *)
let test_token_budget_macro_line () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "#define T0 x x\n";
  for i = 1 to 24 do
    Buffer.add_string b (Printf.sprintf "#define T%d T%d T%d\n" i (i - 1) (i - 1))
  done;
  Buffer.add_string b "int a ; int y = T24 ;\n";
  let r, diags = run_with_budget ~max_tokens:10_000 (Buffer.contents b) in
  Alcotest.(check bool) "breach recorded" true (Diag.has_errors diags);
  Alcotest.(check (list string)) "no token of the line" [] (spellings r)

let suite =
  [ Alcotest.test_case "object-like macros" `Quick test_object_macro;
    Alcotest.test_case "function-like macros" `Quick test_function_macro;
    Alcotest.test_case "stringize and paste" `Quick test_stringize_paste;
    Alcotest.test_case "conditionals" `Quick test_conditionals;
    Alcotest.test_case "includes and file records" `Quick test_includes;
    Alcotest.test_case "pragma once" `Quick test_pragma_once;
    Alcotest.test_case "include guards" `Quick test_include_guard;
    Alcotest.test_case "undef" `Quick test_undef;
    Alcotest.test_case "#error" `Quick test_error_directive;
    Alcotest.test_case "macro log for PDB" `Quick test_macro_log;
    Alcotest.test_case "predefined macros" `Quick test_predefined;
    Alcotest.test_case "octal literal in #if" `Quick test_octal_condition;
    Alcotest.test_case "continued #define, LF and CRLF" `Quick
      test_continued_define;
    Alcotest.test_case "macros named after keywords" `Quick test_keyword_macros;
    Alcotest.test_case "token budget: macro-free TU" `Quick
      test_token_budget_macro_free;
    Alcotest.test_case "token budget: macro line dropped whole" `Quick
      test_token_budget_macro_line ]
