(* Unit tests for the C++ lexer. *)

open Pdt_util
open Pdt_lex

let lex src =
  let diags = Diag.create () in
  let toks = Lexer.tokenize ~diags ~file:"t.cpp" src in
  (toks, diags)

let kinds src = List.map (fun (t : Token.tok) -> t.tok) (fst (lex src))

let spellings src = List.map Token.spelling (kinds src)

let check_spellings msg src expected =
  Alcotest.(check (list string)) msg expected (spellings src)

let test_idents_keywords () =
  check_spellings "mix" "class Stack int foo _bar x9"
    [ "class"; "Stack"; "int"; "foo"; "_bar"; "x9" ];
  match kinds "class Stack" with
  | [ Token.Kw "class"; Token.Ident "Stack" ] -> ()
  | _ -> Alcotest.fail "keyword/ident classification"

let test_numbers () =
  (match kinds "42 0x1F 3.14 1e10 2.5e-3 10L 7u 1.5f" with
   | [ Token.IntLit (_, 42L); Token.IntLit (_, 0x1FL); Token.FloatLit (_, f1);
       Token.FloatLit (_, f2); Token.FloatLit (_, f3); Token.IntLit (_, 10L);
       Token.IntLit (_, 7L); Token.FloatLit (_, f4) ] ->
       Alcotest.(check (float 1e-9)) "pi" 3.14 f1;
       Alcotest.(check (float 1e0)) "1e10" 1e10 f2;
       Alcotest.(check (float 1e-9)) "exp" 2.5e-3 f3;
       Alcotest.(check (float 1e-9)) "f suffix" 1.5 f4
   | ts ->
       Alcotest.failf "wrong tokens: %s"
         (String.concat " " (List.map Token.describe ts)))

let test_strings_chars () =
  (match kinds {|"hello" 'a' '\n' "tab\there"|} with
   | [ Token.StringLit (_, "hello"); Token.CharLit (_, 97); Token.CharLit (_, 10);
       Token.StringLit (_, "tab\there") ] -> ()
   | ts ->
       Alcotest.failf "wrong tokens: %s"
         (String.concat " " (List.map Token.describe ts)))

let test_punctuators () =
  check_spellings "maximal munch" "a<<=b >>= -> ->* ... :: ++ -- << >> <= >= == != && ||"
    [ "a"; "<<="; "b"; ">>="; "->"; "->*"; "..."; "::"; "++"; "--"; "<<"; ">>";
      "<="; ">="; "=="; "!="; "&&"; "||" ];
  check_spellings "angle brackets kept merged" "vector<Stack<int>> v"
    [ "vector"; "<"; "Stack"; "<"; "int"; ">>"; "v" ]

let test_comments () =
  check_spellings "line comment" "a // comment here\nb" [ "a"; "b" ];
  check_spellings "block comment" "a /* x\ny */ b" [ "a"; "b" ];
  check_spellings "comment inside expr" "1 +/*c*/ 2" [ "1"; "+"; "2" ]

let test_positions () =
  let toks, _ = lex "ab cd\n  ef" in
  let locs = List.map (fun (t : Token.tok) -> (t.loc.Srcloc.line, t.loc.Srcloc.col)) toks in
  Alcotest.(check (list (pair int int))) "positions" [ (1, 1); (1, 4); (2, 3) ] locs;
  let bols = List.map (fun (t : Token.tok) -> t.bol) toks in
  Alcotest.(check (list bool)) "bol flags" [ true; false; true ] bols

let test_line_splice () =
  check_spellings "backslash-newline" "foo\\\nbar" [ "foo"; "bar" ];
  let toks, _ = lex "#define X \\\n 1\nY" in
  (* the spliced line keeps X and 1 on one logical line for the PP, but the
     lexer just skips the splice *)
  Alcotest.(check int) "token count" 5 (List.length toks)

let describe_all ts = String.concat " " (List.map Token.describe ts)

(* A leading-0 integer literal is octal; an invalid octal digit is an
   error that still yields a token. *)
let test_octal_literals () =
  (match kinds "010 0 017u 0x10 08.5" with
   | [ Token.IntLit ("010", 8L); Token.IntLit ("0", 0L);
       Token.IntLit ("017u", 15L); Token.IntLit ("0x10", 16L);
       Token.FloatLit ("08.5", 8.5) ] -> ()
   | ts -> Alcotest.failf "wrong tokens: %s" (describe_all ts));
  let toks, diags = lex "08 ;" in
  (match List.map (fun (t : Token.tok) -> t.tok) toks with
   | [ Token.IntLit ("08", _); Token.Punct ";" ] -> ()
   | ts -> Alcotest.failf "wrong tokens: %s" (describe_all ts));
  Alcotest.(check bool) "invalid octal digit is an error" true
    (Diag.has_errors diags);
  Alcotest.(check bool) "the error says so" true
    (let text = Diag.to_string diags and sub = "invalid digit in octal constant" in
     let n = String.length sub in
     let rec go i =
       i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
     in
     go 0)

(* the digits before an exponent may be missing after the point *)
let test_exponent_after_point () =
  match lex "1.e5 2.E-1" with
  | ([ { Token.tok = Token.FloatLit ("1.e5", v1); _ };
       { Token.tok = Token.FloatLit ("2.E-1", v2); _ } ], diags) ->
      Alcotest.(check (float 1e-9)) "1.e5" 100000.0 v1;
      Alcotest.(check (float 1e-9)) "2.E-1" 0.2 v2;
      Alcotest.(check int) "no diagnostics" 0 (List.length (Diag.diagnostics diags))
  | (toks, _) ->
      Alcotest.failf "wrong tokens: %s"
        (describe_all (List.map (fun (t : Token.tok) -> t.tok) toks))

(* octal (1-3 digits) and hex escapes cook to their value, silently *)
let test_numeric_escapes () =
  match lex {|'\101' '\x41' '\0' '\12' "\x41\101" "\1234"|} with
  | ([ { Token.tok = Token.CharLit (_, 65); _ };
       { Token.tok = Token.CharLit (_, 65); _ };
       { Token.tok = Token.CharLit (_, 0); _ };
       { Token.tok = Token.CharLit (_, 10); _ };
       { Token.tok = Token.StringLit (_, "AA"); _ };
       { Token.tok = Token.StringLit (_, "S4"); _ } ], diags) ->
      Alcotest.(check int) "no diagnostics" 0 (List.length (Diag.diagnostics diags))
  | (toks, _) ->
      Alcotest.failf "wrong tokens: %s"
        (describe_all (List.map (fun (t : Token.tok) -> t.tok) toks))

(* a backslash before CRLF splices like one before LF, and the token after
   a splice continues the logical line *)
let test_crlf_splice () =
  List.iter
    (fun (what, src) ->
      let toks, diags = lex src in
      Alcotest.(check (list string)) (what ^ ": spellings")
        [ "#"; "define"; "X"; "1"; "Y" ]
        (List.map (fun (t : Token.tok) -> Token.spelling t.tok) toks);
      Alcotest.(check (list bool)) (what ^ ": bol flags")
        [ true; false; false; false; true ]
        (List.map (fun (t : Token.tok) -> t.bol) toks);
      Alcotest.(check int) (what ^ ": no diagnostics") 0
        (List.length (Diag.diagnostics diags)))
    [ ("CRLF", "#define X \\\r\n 1\r\nY"); ("LF", "#define X \\\n 1\nY") ]

(* The parent lexer's punctuator scan, kept as an oracle: skip blanks and
   comments, take an identifier run, else the longest Token.punctuators
   entry by a linear scan of the whole table, else one stray character. *)
let reference_split (s : string) : (string * int) list =
  let n = String.length s in
  let at i p = i + String.length p <= n && String.sub s i (String.length p) = p in
  let is_ident c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let rec go i acc =
    if i >= n || at i "//" then List.rev acc
    else if s.[i] = ' ' then go (i + 1) acc
    else if at i "/*" then
      let rec close j = if j + 1 >= n then n else if at j "*/" then j + 2 else close (j + 1) in
      go (close (i + 2)) acc
    else if is_ident s.[i] then
      let rec stop j = if j < n && is_ident s.[j] then stop (j + 1) else j in
      let j = stop i in
      go j ((String.sub s i (j - i), i + 1) :: acc)
    else
      let len =
        match List.find_opt (at i) Token.punctuators with
        | Some p -> String.length p
        | None -> 1
      in
      go (i + len) ((String.sub s i len, i + 1) :: acc)
  in
  go 0 []

let test_punctuators_match_reference () =
  let alphabet = "<>=!&|+-*/%^~.:#,;?(){}[] a@" in
  let k = String.length alphabet in
  let checked = ref 0 in
  let check s =
    let toks, _ = lex s in
    let got =
      List.map (fun (t : Token.tok) -> (Token.spelling t.tok, t.loc.Srcloc.col)) toks
    in
    if got <> reference_split s then
      Alcotest.failf "%S: lexer and reference split disagree" s;
    incr checked
  in
  for len = 1 to 3 do
    let rec strings prefix len =
      if len = 0 then check prefix
      else
        for i = 0 to k - 1 do
          strings (prefix ^ String.make 1 alphabet.[i]) (len - 1)
        done
    in
    strings "" len
  done;
  Alcotest.(check int) "every string of length 1-3 checked"
    (k + (k * k) + (k * k * k)) !checked

let test_unterminated () =
  let diags = Diag.create () in
  (try ignore (Lexer.tokenize ~diags ~file:"t.cpp" "\"abc") with Diag.Error _ -> ());
  Alcotest.(check bool) "error recorded" true (Diag.has_errors diags)

let test_text_reconstruction () =
  let toks, _ = lex "template <class T> class Stack { };" in
  Alcotest.(check string) "roundtrip text"
    "template <class T> class Stack { };"
    (Token.text_of_toks toks)

let suite =
  [ Alcotest.test_case "idents and keywords" `Quick test_idents_keywords;
    Alcotest.test_case "numeric literals" `Quick test_numbers;
    Alcotest.test_case "string and char literals" `Quick test_strings_chars;
    Alcotest.test_case "punctuators" `Quick test_punctuators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "source positions" `Quick test_positions;
    Alcotest.test_case "line splices" `Quick test_line_splice;
    Alcotest.test_case "octal integer literals" `Quick test_octal_literals;
    Alcotest.test_case "exponent after a bare point" `Quick test_exponent_after_point;
    Alcotest.test_case "octal and hex escapes" `Quick test_numeric_escapes;
    Alcotest.test_case "CRLF line splice" `Quick test_crlf_splice;
    Alcotest.test_case "punctuators = reference split" `Quick
      test_punctuators_match_reference;
    Alcotest.test_case "unterminated literal" `Quick test_unterminated;
    Alcotest.test_case "text reconstruction" `Quick test_text_reconstruction ]
