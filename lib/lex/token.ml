(** C++ tokens.

    Keywords and punctuators are carried as strings (validated by the lexer
    against the tables below): the parser matches on [Kw "class"],
    [Punct "::"], etc., which keeps the grammar code close to the standard's
    terminology. *)

open Pdt_util

type t =
  | Ident of string
  | Kw of string
  | IntLit of string * int64      (** spelling, value *)
  | FloatLit of string * float    (** spelling, value *)
  | CharLit of string * int       (** spelling, code point *)
  | StringLit of string * string  (** spelling (with quotes), cooked value *)
  | Punct of string
  | Eof

(** A located token.  [bol] is true for the first token of a physical line
    (the preprocessor uses it to recognize directives); [space] is true when
    the token was preceded by whitespace or a comment (used for faithful
    stringification and text reconstruction). *)
type tok = { tok : t; loc : Srcloc.t; bol : bool; space : bool }

let keywords =
  [ "asm"; "auto"; "bool"; "break"; "case"; "catch"; "char"; "class"; "const";
    "const_cast"; "continue"; "default"; "delete"; "do"; "double";
    "dynamic_cast"; "else"; "enum"; "explicit"; "export"; "extern"; "false";
    "float"; "for"; "friend"; "goto"; "if"; "inline"; "int"; "long";
    "mutable"; "namespace"; "new"; "operator"; "private"; "protected";
    "public"; "register"; "reinterpret_cast"; "return"; "short"; "signed";
    "sizeof"; "static"; "static_cast"; "struct"; "switch"; "template"; "this";
    "throw"; "true"; "try"; "typedef"; "typeid"; "typename"; "union";
    "unsigned"; "using"; "virtual"; "void"; "volatile"; "wchar_t"; "while" ]

(** Each keyword's [Kw] token, shared by every occurrence the lexer
    finds. *)
let keyword_tokens : (string, t) Hashtbl.t =
  let h = Hashtbl.create 97 in
  List.iter (fun k -> Hashtbl.replace h k (Kw k)) keywords;
  h

(** All punctuators, longest first so the lexer can use maximal munch. *)
let punctuators =
  [ "<<="; ">>="; "->*"; "..."; "::"; "->"; "++"; "--"; "<<"; ">>"; "<=";
    ">="; "=="; "!="; "&&"; "||"; "+="; "-="; "*="; "/="; "%="; "&="; "|=";
    "^="; "##"; ".*"; "{"; "}"; "["; "]"; "("; ")"; ";"; ":"; "?"; "."; "+";
    "-"; "*"; "/"; "%"; "^"; "&"; "|"; "~"; "!"; "="; "<"; ">"; ","; "#" ]

(** Spelling of a token, without any surrounding whitespace. *)
let spelling = function
  | Ident s | Kw s | Punct s -> s
  | IntLit (s, _) | FloatLit (s, _) | CharLit (s, _) | StringLit (s, _) -> s
  | Eof -> "<eof>"

let describe = function
  | Ident s -> Printf.sprintf "identifier '%s'" s
  | Kw s -> Printf.sprintf "keyword '%s'" s
  | IntLit (s, _) -> Printf.sprintf "integer literal '%s'" s
  | FloatLit (s, _) -> Printf.sprintf "floating literal '%s'" s
  | CharLit (s, _) -> Printf.sprintf "character literal %s" s
  | StringLit (s, _) -> Printf.sprintf "string literal %s" s
  | Punct s -> Printf.sprintf "'%s'" s
  | Eof -> "end of input"

let equal_kind a b =
  match (a, b) with
  | Ident x, Ident y | Kw x, Kw y | Punct x, Punct y -> String.equal x y
  | IntLit (x, _), IntLit (y, _)
  | FloatLit (x, _), FloatLit (y, _)
  | CharLit (x, _), CharLit (y, _)
  | StringLit (x, _), StringLit (y, _) -> String.equal x y
  | Eof, Eof -> true
  | _ -> false

(** Reconstruct program text from a token sequence, inserting single spaces
    where the original had whitespace.  Used by the preprocessor for macro
    text recording and by TAU's source rewriter. *)
let text_of_toks toks =
  let b = Buffer.create 64 in
  List.iteri
    (fun i t ->
      if i > 0 && t.space then Buffer.add_char b ' ';
      Buffer.add_string b (spelling t.tok))
    toks;
  Buffer.contents b
