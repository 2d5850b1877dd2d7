(** Recursive-descent parser for the C++ subset.

    Operates on the preprocessed token stream.  Two classic C++ parsing
    problems are handled the way production front ends handle them:

    - {b declaration vs. expression} ambiguity in statements is resolved by a
      tentative parse: we try to parse a declaration, and commit only when the
      base type names a known type (class, enum, typedef, template, or
      template parameter registered during parsing) and the declarator shape
      is valid; otherwise we backtrack and parse an expression;
    - {b template-id} recognition ([x < y] vs [x<y>]) uses the registry of
      template names plus a tentative parse of the argument list, and [>>] is
      split into two [>] tokens when it closes nested template argument
      lists (the [vector<Stack<int>>] problem).

    The parser records source extents (header/body ranges) for classes,
    routines and templates — these become the [cpos]/[rpos]/[tpos] PDB
    attributes — and the raw text of template declarations (the PDB [ttext]
    attribute). *)

open Pdt_util
open Pdt_lex
open Pdt_ast.Ast

exception Parse_error of Srcloc.t * string

exception Bail
(* internal: the per-TU error budget is exhausted; unwind to the entry
   point, which returns the partial AST accumulated so far *)

type t = {
  toks : Token.tok array;
  mutable pos : int;
  mutable undo : (int * Token.tok) list;  (* '>>'-split mutations, newest first *)
  mutable undo_len : int;
  mutable no_gt : bool;  (* inside a template argument: '>' is not an operator *)
  diags : Diag.engine;
  limits : Limits.t;
  mutable speculative : int;  (* > 0 inside a tentative parse: recovery off *)
  mutable recovered : int;    (* syntax errors recovered so far (vs max_errors) *)
  mutable past_end : bool;    (* some read fell off the end of [toks] *)
  (* registries for disambiguation; values are reference counts so scoped
     registration can push/pop *)
  type_names : (string, int) Hashtbl.t;
  template_names : (string, int) Hashtbl.t;
}

let eof_tok : Token.tok =
  { tok = Token.Eof; loc = Srcloc.dummy; bol = false; space = false }

let create ?(limits = Limits.default ()) ~diags toks =
  let t =
    { toks; pos = 0; undo = []; undo_len = 0; no_gt = false;
      diags; limits; speculative = 0; recovered = 0; past_end = false;
      type_names = Hashtbl.create 64; template_names = Hashtbl.create 64 }
  in
  (* built-in library type names that behave like types even without a
     visible declaration (parallel to the compiler's built-ins) *)
  List.iter (fun n -> Hashtbl.replace t.type_names n 1) [ "size_t"; "ptrdiff_t" ];
  t

(* ------------------------------------------------------------------ *)
(* Cursor                                                              *)
(* ------------------------------------------------------------------ *)

(* Every read goes through [cur] or [peek_at], so [past_end] tells
   whether a parse looked beyond its last token. *)
let cur t : Token.tok =
  if t.pos < Array.length t.toks then t.toks.(t.pos)
  else begin
    t.past_end <- true;
    eof_tok
  end

let peek_at t n : Token.tok =
  if t.pos + n + 1 < Array.length t.toks then t.toks.(t.pos + n + 1)
  else begin
    t.past_end <- true;
    eof_tok
  end

let advance t = t.pos <- t.pos + 1

(* When the grammar needs a single '>' but the lexer produced '>>' (nested
   template argument lists): consume the first '>' by rewriting the token in
   place to a plain '>', which then denotes the second half.  The mutation is
   recorded so tentative parses can roll it back. *)
let split_gtgt t =
  match (cur t).tok with
  | Token.Punct ">>" ->
      let old = t.toks.(t.pos) in
      t.undo <- (t.pos, old) :: t.undo;
      t.undo_len <- t.undo_len + 1;
      t.toks.(t.pos) <-
        { old with
          tok = Token.Punct ">";
          loc = { old.loc with Srcloc.col = old.loc.Srcloc.col + 1 } }
  | _ -> ()

type mark = { m_pos : int; m_undo_len : int }

let save t = { m_pos = t.pos; m_undo_len = t.undo_len }

let restore t m =
  while t.undo_len > m.m_undo_len do
    (match t.undo with
     | (i, tk) :: rest ->
         t.toks.(i) <- tk;
         t.undo <- rest
     | [] -> assert false);
    t.undo_len <- t.undo_len - 1
  done;
  t.pos <- m.m_pos

let loc t = (cur t).loc

let err t fmt = Fmt.kstr (fun m -> raise (Parse_error (loc t, m))) fmt

(* Recursion governor: every self-recursive production passes through one of
   the [with_depth]-wrapped entry points, so pathological nesting raises
   {!Limits.Exceeded} (converted to a Fatal diagnostic at the TU entry)
   instead of overflowing the stack. *)
let with_depth t f =
  Limits.enter_parse t.limits;
  Fun.protect ~finally:(fun () -> Limits.exit_parse t.limits) f

(* Tentative parses run under [speculating]: error recovery must not fire
   (and must not record diagnostics) for a parse the caller intends to roll
   back. *)
let speculating t f =
  t.speculative <- t.speculative + 1;
  Fun.protect ~finally:(fun () -> t.speculative <- t.speculative - 1) f

(* Record one recovered syntax error; once the per-TU budget is spent, note
   the give-up as a Fatal diagnostic and unwind with {!Bail}. *)
let record_recovery t l m =
  t.recovered <- t.recovered + 1;
  Diag.error t.diags l "%s" m;
  if t.recovered >= t.limits.Limits.budgets.Limits.max_errors then begin
    Diag.fatal_note t.diags l
      "too many syntax errors (budget %d); giving up on this translation unit"
      t.limits.Limits.budgets.Limits.max_errors;
    raise Bail
  end

(* Panic-mode synchronization: skip to the next ';' at brace depth 0
   (consumed) or to a '}' closing the current block (left for the caller's
   loop), tracking nested braces on the way. *)
let sync_to_boundary t =
  let rec go depth =
    match (cur t).tok with
    | Token.Eof -> ()
    | Token.Punct ";" when depth = 0 -> advance t
    | Token.Punct "{" ->
        advance t;
        go (depth + 1)
    | Token.Punct "}" when depth = 0 -> ()
    | Token.Punct "}" ->
        advance t;
        go (depth - 1)
    | _ ->
        advance t;
        go depth
  in
  go 0

let check_punct t p = match (cur t).tok with Token.Punct q -> String.equal p q | _ -> false
let check_kw t k = match (cur t).tok with Token.Kw q -> String.equal k q | _ -> false
let check_ident t = match (cur t).tok with Token.Ident _ -> true | _ -> false

let eat_punct t p =
  if check_punct t p then (advance t; true) else false

let eat_kw t k = if check_kw t k then (advance t; true) else false

let expect_punct t p =
  if not (eat_punct t p) then
    err t "expected '%s' but found %s" p (Token.describe (cur t).tok)

let expect_ident t =
  match (cur t).tok with
  | Token.Ident s ->
      advance t;
      s
  | _ -> err t "expected identifier but found %s" (Token.describe (cur t).tok)

(* the source location just before the current token — used for end-of-range *)
let prev_loc t =
  if t.pos = 0 then loc t
  else
    let p = t.toks.(t.pos - 1) in
    p.loc

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)
(* ------------------------------------------------------------------ *)

let reg tbl name =
  Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let unreg tbl name =
  match Hashtbl.find_opt tbl name with
  | Some 1 | None -> Hashtbl.remove tbl name
  | Some n -> Hashtbl.replace tbl name (n - 1)

let register_type t name = reg t.type_names name

(* class templates are type names; function templates must NOT become type
   names or calls like [dot(x, y)] would parse as functional casts *)
let register_template_type t name =
  reg t.template_names name;
  reg t.type_names name

let register_template_func t name = reg t.template_names name

let is_type_name t name = Hashtbl.mem t.type_names name
let is_template_name t name = Hashtbl.mem t.template_names name

(* ------------------------------------------------------------------ *)
(* Names and types                                                     *)
(* ------------------------------------------------------------------ *)

let rec parse_template_args t : template_arg list =
  (* assumes '<' already consumed; consumes the closing '>' *)
  if eat_punct t ">" then []
  else begin
    let rec args acc =
      let a = parse_template_arg t in
      if eat_punct t "," then args (a :: acc)
      else begin
        (match (cur t).tok with
         | Token.Punct ">" -> advance t
         | Token.Punct ">>" -> split_gtgt t
         | _ -> err t "expected '>' closing template argument list");
        List.rev (a :: acc)
      end
    in
    args []
  end

and parse_template_arg t : template_arg =
  (* A template argument is a type if it starts like one; otherwise an
     expression (constant).  Tentative: try type first.  While parsing the
     expression form, a top-level '>' closes the argument list rather than
     comparing (the C++98 rule). *)
  let m = save t in
  match parse_type_opt t ~allow_abstract:true with
  | Some ty
    when (match (cur t).tok with
          | Token.Punct (">" | ">>" | ",") -> true
          | _ -> false) -> TA_type ty
  | _ ->
      restore t m;
      let saved = t.no_gt in
      t.no_gt <- true;
      let e = parse_conditional t in
      t.no_gt <- saved;
      TA_expr e

(* qualified-name := ['::'] part ('::' part)*   where part may have <args> *)
and parse_qual_name ?(in_expr = false) t : qual_name =
  let global = eat_punct t "::" in
  let rec parts acc =
    let id =
      if check_kw t "operator" then parse_operator_name t
      else if check_punct t "~" then begin
        advance t;
        "~" ^ expect_ident t
      end
      else expect_ident t
    in
    let targs =
      if check_punct t "<" && should_parse_template_args t ~in_expr ~id then begin
        advance t;
        Some (parse_template_args t)
      end
      else None
    in
    let part = { id; targs } in
    if check_punct t "::"
       && (match (peek_at t 0).tok with
           | Token.Ident _ | Token.Kw "operator" | Token.Punct "~" -> true
           | _ -> false)
    then begin
      advance t;
      parts (part :: acc)
    end
    else List.rev (part :: acc)
  in
  { global; parts = parts [] }

(* Decide whether '<' after [id] begins a template argument list. *)
and should_parse_template_args t ~in_expr ~id =
  if not in_expr then
    (* in type context, '<' after a name is always a template-id *)
    true
  else if is_template_name t id then begin
    (* still verify tentatively so 'a < b' with template-named a can't wedge *)
    let m = save t in
    advance t (* '<' *);
    match
      speculating t @@ fun () ->
      ignore (parse_template_args t);
      (* a template-id in an expression must be followed by '(' or '::' *)
      match (cur t).tok with
      | Token.Punct ("(" | "::") -> true
      | _ -> false
    with
    | ok ->
        restore t m;
        ok
    | exception Parse_error _ ->
        restore t m;
        false
    | exception e ->
        (* non-speculative failure (e.g. a budget breach): restore the mark
           so diagnostics point at the true error location, then re-raise *)
        restore t m;
        raise e
  end
  else false

and parse_operator_name t : string =
  (* assumes current token is 'operator' *)
  advance t;
  match (cur t).tok with
  | Token.Punct "(" when (peek_at t 0).tok = Token.Punct ")" ->
      advance t; advance t; "operator()"
  | Token.Punct "[" when (peek_at t 0).tok = Token.Punct "]" ->
      advance t; advance t; "operator[]"
  | Token.Punct p ->
      advance t;
      "operator" ^ p
  | Token.Kw ("new" | "delete") ->
      let k = Token.spelling (cur t).tok in
      advance t;
      if check_punct t "[" && (peek_at t 0).tok = Token.Punct "]" then begin
        advance t; advance t;
        "operator " ^ k ^ "[]"
      end
      else "operator " ^ k
  | _ ->
      (* conversion operator: 'operator' type — encode the target type in the
         name, as front ends do *)
      let ty = parse_type t ~allow_abstract:true in
      "operator " ^ type_to_string ty

(* builtin type specifier words *)
and builtin_of_kws kws : builtin option =
  let base = ref None and signedness = ref None and length = ref None in
  let ok = ref true in
  List.iter
    (fun k ->
      match k with
      | "void" -> base := Some `Void
      | "bool" -> base := Some `Bool
      | "char" -> base := Some `Char
      | "wchar_t" -> base := Some `Wchar
      | "int" -> if !base = None then base := Some `Int
      | "float" -> base := Some `Float
      | "double" -> base := Some `Double
      | "signed" -> signedness := Some `Signed
      | "unsigned" -> signedness := Some `Unsigned
      | "short" -> length := Some `Short
      | "long" ->
          length := (match !length with Some `Long -> Some `LongLong | _ -> Some `Long)
      | _ -> ok := false)
    kws;
  if not !ok then None
  else
    match (!base, !signedness, !length) with
    | None, None, None -> None
    | None, s, l -> Some { base = `Int; signedness = s; length = l }
    | Some b, s, l -> Some { base = b; signedness = s; length = l }

and is_builtin_kw = function
  | "void" | "bool" | "char" | "wchar_t" | "int" | "float" | "double"
  | "signed" | "unsigned" | "short" | "long" -> true
  | _ -> false

(* Parse a type, or return None (with cursor restored) if the tokens do not
   begin a type.  [allow_abstract] permits declarator-less types (casts,
   template args, parameter types). *)
and parse_type_opt t ~allow_abstract : type_expr option =
  ignore allow_abstract;
  let m = save t in
  match speculating t (fun () -> parse_type t ~allow_abstract) with
  | ty -> Some ty
  | exception Parse_error _ ->
      restore t m;
      None
  | exception e ->
      (* restore before re-raising non-speculative failures *)
      restore t m;
      raise e

and parse_type t ~allow_abstract : type_expr =
  with_depth t @@ fun () -> parse_type_body t ~allow_abstract

and parse_type_body t ~allow_abstract : type_expr =
  (* leading cv-qualifiers *)
  let const = ref false and volatile = ref false in
  let rec cv () =
    if eat_kw t "const" then (const := true; cv ())
    else if eat_kw t "volatile" then (volatile := true; cv ())
  in
  cv ();
  ignore (eat_kw t "typename");
  cv ();
  let base =
    match (cur t).tok with
    | Token.Kw k when is_builtin_kw k ->
        let rec kws acc =
          match (cur t).tok with
          | Token.Kw k when is_builtin_kw k ->
              advance t;
              kws (k :: acc)
          | _ -> List.rev acc
        in
        let words = kws [] in
        (match builtin_of_kws words with
         | Some b -> TBuiltin b
         | None -> err t "invalid builtin type combination")
    | Token.Kw ("class" | "struct" | "union" | "enum") ->
        (* elaborated type specifier: 'class Name' used as a type *)
        advance t;
        TName (parse_qual_name t)
    | Token.Ident id ->
        if is_type_name t id || check_qualified_type t then
          TName (parse_qual_name t)
        else err t "'%s' does not name a type" id
    | Token.Punct "::" -> TName (parse_qual_name t)
    | _ -> err t "expected type but found %s" (Token.describe (cur t).tok)
  in
  cv ();
  let ty = if !volatile then TVolatile base else base in
  let ty = if !const then TConst ty else ty in
  (* pointer / reference suffixes with interleaved cv *)
  let rec suffixes ty =
    if eat_punct t "*" then begin
      let ty = ref (TPtr ty) in
      let rec q () =
        if eat_kw t "const" then (ty := TConst !ty; q ())
        else if eat_kw t "volatile" then (ty := TVolatile !ty; q ())
      in
      q ();
      suffixes !ty
    end
    else if check_punct t "&" && allow_abstract_ref t ~allow_abstract then begin
      advance t;
      suffixes (TRef ty)
    end
    else ty
  in
  suffixes ty

(* In abstract contexts 'T &' is part of the type.  In declarator contexts the
   '&' belongs to the declarator, but parse_type is only used for the
   decl-specifier part there, so accepting '&' here is still correct because
   declarator parsing calls parse_type with allow_abstract=false and handles
   '&' itself.  We therefore accept '&' only when abstract. *)
and allow_abstract_ref t ~allow_abstract =
  ignore t;
  allow_abstract

(* a qualified name that is probably a type: Ident '::' ... *)
and check_qualified_type t =
  match ((cur t).tok, (peek_at t 0).tok) with
  | Token.Ident _, Token.Punct "::" -> true
  | Token.Ident id, Token.Punct "<" ->
      (* only class templates form type names; a function template followed
         by '<' is a call with explicit arguments *)
      is_template_name t id && is_type_name t id
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

and mk_expr t e0 lo : expr = ignore t; { e = e0; eloc = lo }

and parse_expression t : expr =
  let lo = loc t in
  let e = parse_assignment t in
  if check_punct t "," then begin
    advance t;
    let rest = parse_expression t in
    mk_expr t (Comma (e, rest)) lo
  end
  else e

and parse_assignment t : expr =
  let lo = loc t in
  if check_kw t "throw" then begin
    advance t;
    let arg =
      match (cur t).tok with
      | Token.Punct (";" | ")" | "," | "]") -> None
      | _ -> Some (parse_assignment t)
    in
    mk_expr t (ThrowE arg) lo
  end
  else
    let lhs = parse_conditional t in
    match (cur t).tok with
    | Token.Punct (("=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^=" | "<<=" | ">>=") as op) ->
        advance t;
        let rhs = parse_assignment t in
        mk_expr t (Assign (op, lhs, rhs)) lo
    | _ -> lhs

and parse_conditional t : expr =
  let lo = loc t in
  let c = parse_binary t 1 in
  if eat_punct t "?" then begin
    let a = parse_expression t in
    expect_punct t ":";
    let b = parse_assignment t in
    mk_expr t (Cond (c, a, b)) lo
  end
  else c

and binop_prec = function
  | "*" | "/" | "%" -> 10
  | "+" | "-" -> 9
  | "<<" | ">>" -> 8
  | "<" | ">" | "<=" | ">=" -> 7
  | "==" | "!=" -> 6
  | "&" -> 5
  | "^" -> 4
  | "|" -> 3
  | "&&" -> 2
  | "||" -> 1
  | _ -> 0

and parse_binary t min_prec : expr =
  let lo = loc t in
  let lhs = ref (parse_unary t) in
  let continue_ = ref true in
  while !continue_ do
    match (cur t).tok with
    | Token.Punct (">" | ">>") when t.no_gt -> continue_ := false
    | Token.Punct op when binop_prec op >= min_prec && binop_prec op > 0 ->
        advance t;
        let rhs = parse_binary t (binop_prec op + 1) in
        lhs := mk_expr t (Binary (op, !lhs, rhs)) lo
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary t : expr = with_depth t @@ fun () -> parse_unary_body t

and parse_unary_body t : expr =
  let lo = loc t in
  match (cur t).tok with
  | Token.Punct (("!" | "~" | "-" | "+" | "*" | "&" | "++" | "--") as op) ->
      advance t;
      let e = parse_unary t in
      mk_expr t (Unary (op, e)) lo
  | Token.Kw "sizeof" ->
      advance t;
      if check_punct t "(" then begin
        let m = save t in
        advance t;
        match parse_type_opt t ~allow_abstract:true with
        | Some ty when check_punct t ")" ->
            advance t;
            mk_expr t (SizeofT ty) lo
        | _ ->
            restore t m;
            let e = parse_unary t in
            mk_expr t (SizeofE e) lo
      end
      else
        let e = parse_unary t in
        mk_expr t (SizeofE e) lo
  | Token.Kw "new" ->
      advance t;
      let ty = parse_new_type t in
      if eat_punct t "[" then begin
        let n = parse_expression t in
        expect_punct t "]";
        mk_expr t (New (ty, None, Some n)) lo
      end
      else if eat_punct t "(" then begin
        let args = parse_call_args t in
        mk_expr t (New (ty, Some args, None)) lo
      end
      else mk_expr t (New (ty, None, None)) lo
  | Token.Kw "delete" ->
      advance t;
      let arr =
        if check_punct t "[" && (peek_at t 0).tok = Token.Punct "]" then begin
          advance t; advance t; true
        end
        else false
      in
      let e = parse_unary t in
      mk_expr t (Delete (arr, e)) lo
  | _ -> parse_postfix t

(* 'new T' — T without trailing () . pointer suffixes allowed *)
and parse_new_type t : type_expr =
  let base =
    match (cur t).tok with
    | Token.Kw k when is_builtin_kw k ->
        let rec kws acc =
          match (cur t).tok with
          | Token.Kw k when is_builtin_kw k -> advance t; kws (k :: acc)
          | _ -> List.rev acc
        in
        (match builtin_of_kws (kws []) with
         | Some b -> TBuiltin b
         | None -> err t "invalid type after new")
    | _ -> TName (parse_qual_name t)
  in
  let rec stars ty = if eat_punct t "*" then stars (TPtr ty) else ty in
  stars base

and parse_call_args t : expr list =
  (* assumes '(' consumed; consumes ')' *)
  if eat_punct t ")" then []
  else begin
    let rec args acc =
      let a = parse_assignment t in
      if eat_punct t "," then args (a :: acc)
      else begin
        expect_punct t ")";
        List.rev (a :: acc)
      end
    in
    args []
  end

and parse_postfix t : expr =
  let lo = loc t in
  let prim = parse_primary t in
  let rec post e =
    match (cur t).tok with
    | Token.Punct "(" ->
        advance t;
        let args = parse_call_args t in
        post (mk_expr t (Call (e, args)) lo)
    | Token.Punct "[" ->
        advance t;
        let i = parse_expression t in
        expect_punct t "]";
        post (mk_expr t (Index (e, i)) lo)
    | Token.Punct "." ->
        advance t;
        let m = parse_qual_name ~in_expr:true t in
        post (mk_expr t (Member (e, false, m)) lo)
    | Token.Punct "->" ->
        advance t;
        let m = parse_qual_name ~in_expr:true t in
        post (mk_expr t (Member (e, true, m)) lo)
    | Token.Punct "++" ->
        advance t;
        post (mk_expr t (Postfix ("++", e)) lo)
    | Token.Punct "--" ->
        advance t;
        post (mk_expr t (Postfix ("--", e)) lo)
    | _ -> e
  in
  post prim

and parse_primary t : expr =
  let lo = loc t in
  match (cur t).tok with
  | Token.IntLit (_, v) ->
      advance t;
      mk_expr t (IntE v) lo
  | Token.FloatLit (_, v) ->
      advance t;
      mk_expr t (FloatE v) lo
  | Token.CharLit (_, c) ->
      advance t;
      mk_expr t (CharE c) lo
  | Token.StringLit (_, s) ->
      advance t;
      mk_expr t (StringE s) lo
  | Token.Kw "true" ->
      advance t;
      mk_expr t (BoolE true) lo
  | Token.Kw "false" ->
      advance t;
      mk_expr t (BoolE false) lo
  | Token.Kw "this" ->
      advance t;
      mk_expr t ThisE lo
  | Token.Kw (("static_cast" | "dynamic_cast" | "const_cast" | "reinterpret_cast") as k) ->
      advance t;
      expect_punct t "<";
      let ty = parse_type t ~allow_abstract:true in
      (match (cur t).tok with
       | Token.Punct ">" -> advance t
       | Token.Punct ">>" -> split_gtgt t
       | _ -> err t "expected '>' after cast type");
      expect_punct t "(";
      let e = parse_expression t in
      expect_punct t ")";
      mk_expr t (NamedCast (k, ty, e)) lo
  | Token.Punct "(" -> (
      (* C-style cast vs parenthesized expression: tentative type parse.
         Inside parentheses '>' is an ordinary operator again. *)
      let saved_no_gt = t.no_gt in
      t.no_gt <- false;
      Fun.protect ~finally:(fun () -> t.no_gt <- saved_no_gt) @@ fun () ->
      let m = save t in
      advance t;
      match parse_type_opt t ~allow_abstract:true with
      | Some ty
        when check_punct t ")"
             && (match (peek_at t 0).tok with
                 | Token.Ident _ | Token.IntLit _ | Token.FloatLit _
                 | Token.CharLit _ | Token.StringLit _
                 | Token.Kw ("this" | "true" | "false" | "sizeof" | "new") -> true
                 | Token.Punct ("(" | "!" | "~" | "*" | "&" | "-") -> true
                 | _ -> false) ->
          advance t;
          let e = parse_unary t in
          mk_expr t (CCast (ty, e)) lo
      | _ ->
          restore t m;
          advance t;
          let e = parse_expression t in
          expect_punct t ")";
          e)
  | Token.Kw k when is_builtin_kw k ->
      (* functional cast on a builtin: int(x) *)
      let rec kws acc =
        match (cur t).tok with
        | Token.Kw k when is_builtin_kw k ->
            advance t;
            kws (k :: acc)
        | _ -> List.rev acc
      in
      let b =
        match builtin_of_kws (kws []) with
        | Some b -> TBuiltin b
        | None -> err t "invalid type in functional cast"
      in
      expect_punct t "(";
      let args = parse_call_args t in
      mk_expr t (Construct (b, args)) lo
  | Token.Ident id
    when (is_type_name t id || is_template_name t id)
         && is_functional_cast_ahead t -> (
      (* T(args) where T is a known type: constructor call *)
      let m = save t in
      match parse_type_opt t ~allow_abstract:true with
      | Some ty when check_punct t "(" ->
          advance t;
          let args = parse_call_args t in
          mk_expr t (Construct (ty, args)) lo
      | _ ->
          restore t m;
          let q = parse_qual_name ~in_expr:true t in
          mk_expr t (IdE q) lo)
  | Token.Ident _ | Token.Punct "::" | Token.Kw "operator" | Token.Punct "~" ->
      let q = parse_qual_name ~in_expr:true t in
      mk_expr t (IdE q) lo
  | tok -> err t "expected expression but found %s" (Token.describe tok)

(* Heuristic: a known type name followed by '(' or '<...>(' is a functional
   cast / constructor call; a bare name is just an id (could be a variable
   shadowing: accepted limitation of the subset). *)
and is_functional_cast_ahead t =
  let m = save t in
  match
    speculating t @@ fun () ->
    match parse_type_opt t ~allow_abstract:true with
    | Some _ -> check_punct t "("
    | None -> false
  with
  | result ->
      restore t m;
      result
  | exception Parse_error _ ->
      restore t m;
      false
  | exception e ->
      restore t m;
      raise e

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_statement t : stmt = with_depth t @@ fun () -> parse_statement_body t

and parse_statement_body t : stmt =
  let lo = loc t in
  let mk s0 = { s = s0; sloc = lo } in
  match (cur t).tok with
  | Token.Punct "{" -> parse_compound t
  | Token.Punct ";" ->
      advance t;
      mk (SExpr None)
  | Token.Kw "if" ->
      advance t;
      expect_punct t "(";
      let c = parse_condition t in
      expect_punct t ")";
      let thn = parse_statement t in
      let els = if eat_kw t "else" then Some (parse_statement t) else None in
      mk (SIf (c, thn, els))
  | Token.Kw "while" ->
      advance t;
      expect_punct t "(";
      let c = parse_condition t in
      expect_punct t ")";
      mk (SWhile (c, parse_statement t))
  | Token.Kw "do" ->
      advance t;
      let body = parse_statement t in
      if not (eat_kw t "while") then err t "expected 'while' after do-body";
      expect_punct t "(";
      let c = parse_expression t in
      expect_punct t ")";
      expect_punct t ";";
      mk (SDoWhile (body, c))
  | Token.Kw "for" ->
      advance t;
      expect_punct t "(";
      let init =
        if eat_punct t ";" then None
        else begin
          let s = parse_decl_or_expr_stmt t in
          Some s
        end
      in
      let cond = if check_punct t ";" then None else Some (parse_expression t) in
      expect_punct t ";";
      let step = if check_punct t ")" then None else Some (parse_expression t) in
      expect_punct t ")";
      mk (SFor (init, cond, step, parse_statement t))
  | Token.Kw "return" ->
      advance t;
      let e = if check_punct t ";" then None else Some (parse_expression t) in
      expect_punct t ";";
      mk (SReturn e)
  | Token.Kw "break" ->
      advance t;
      expect_punct t ";";
      mk SBreak
  | Token.Kw "continue" ->
      advance t;
      expect_punct t ";";
      mk SContinue
  | Token.Kw "switch" ->
      advance t;
      expect_punct t "(";
      let e = parse_expression t in
      expect_punct t ")";
      expect_punct t "{";
      let rec cases acc =
        if eat_punct t "}" then List.rev acc
        else if eat_kw t "case" then begin
          let g = parse_conditional t in
          expect_punct t ":";
          let body = case_body t in
          cases ({ case_guard = Some g; case_body = body } :: acc)
        end
        else if eat_kw t "default" then begin
          expect_punct t ":";
          let body = case_body t in
          cases ({ case_guard = None; case_body = body } :: acc)
        end
        else err t "expected 'case', 'default' or '}' in switch body"
      and case_body t =
        let rec go acc =
          match (cur t).tok with
          | Token.Kw ("case" | "default") | Token.Punct "}" -> List.rev acc
          | _ -> go (parse_statement t :: acc)
        in
        go []
      in
      mk (SSwitch (e, cases []))
  | Token.Kw "try" ->
      advance t;
      let body = parse_compound t in
      let rec handlers acc =
        if eat_kw t "catch" then begin
          expect_punct t "(";
          let p =
            if eat_punct t "..." then None
            else begin
              let ty = parse_type t ~allow_abstract:true in
              let name =
                match (cur t).tok with
                | Token.Ident s ->
                    advance t;
                    Some s
                | _ -> None
              in
              Some { pname = name; ptype = ty; pdefault = None; ploc = lo }
            end
          in
          expect_punct t ")";
          let hb = parse_compound t in
          handlers ({ h_param = p; h_body = hb } :: acc)
        end
        else List.rev acc
      in
      let hs = handlers [] in
      if hs = [] then err t "expected 'catch' after try-block";
      mk (STry (body, hs))
  | Token.Kw "throw" ->
      let e = parse_expression t in
      expect_punct t ";";
      mk (SExpr (Some e))
  | Token.Ident "spawn"
    when (match (peek_at t 0).tok with
          | Token.Ident _ | Token.Punct "::" -> true
          | _ -> false) -> (
      (* contextual keyword: [spawn f(args);] launches the call on a new
         thread.  'spawn' remains a valid ordinary identifier everywhere
         else, so commit only when the remainder parses as a call statement
         and fall back to declaration/expression parsing otherwise. *)
      let m = save t in
      match
        speculating t @@ fun () ->
        advance t;
        let e = parse_expression t in
        if check_punct t ";" && (match e.e with Call _ -> true | _ -> false)
        then (advance t; Some e)
        else None
      with
      | Some e -> mk (SSpawn e)
      | None | (exception Parse_error _) ->
          restore t m;
          parse_decl_or_expr_stmt t)
  | Token.Ident "join"
    when (match (peek_at t 0).tok with
          | Token.Punct ";" | Token.Ident _ | Token.Punct "::" -> true
          | _ -> false) -> (
      (* contextual keyword: [join;] waits for every outstanding spawn in
         the routine, [join f;] for the threads running [f]. *)
      let m = save t in
      match
        speculating t @@ fun () ->
        advance t;
        if eat_punct t ";" then Some None
        else
          let q = parse_qual_name ~in_expr:true t in
          if eat_punct t ";" then Some (Some q) else None
      with
      | Some target -> mk (SJoin target)
      | None | (exception Parse_error _) ->
          restore t m;
          parse_decl_or_expr_stmt t)
  | _ -> parse_decl_or_expr_stmt t

and parse_condition t : expr = parse_expression t

and parse_compound t : stmt =
  let lo = loc t in
  expect_punct t "{";
  let rec go acc =
    if eat_punct t "}" then List.rev acc
    else if (cur t).tok = Token.Eof then
      err t "unexpected end of file in compound statement"
    else
      match parse_statement t with
      | s -> go (s :: acc)
      | exception Parse_error (l, m) when t.speculative = 0 ->
          (* panic-mode recovery: report, skip to the next statement
             boundary, and keep collecting statements *)
          record_recovery t l m;
          sync_to_boundary t;
          go acc
  in
  { s = SCompound (go []); sloc = lo }

(* declaration-statement or expression-statement; consumes ';' *)
and parse_decl_or_expr_stmt t : stmt =
  let lo = loc t in
  let m = save t in
  let as_decl () =
    match try_parse_var_decls t with
    | Some vds ->
        expect_punct t ";";
        Some { s = SDecl vds; sloc = lo }
    | None -> None
  in
  match as_decl () with
  | Some s -> s
  | None ->
      restore t m;
      let e = parse_expression t in
      expect_punct t ";";
      { s = SExpr (Some e); sloc = lo }

(* Try to parse "type declarator (, declarator)*" without consuming ';'.
   Returns None (cursor unspecified) on failure. *)
and try_parse_var_decls t : var_decl list option =
  let starts_like_type =
    match (cur t).tok with
    | Token.Kw k ->
        is_builtin_kw k
        || (match k with
            | "const" | "volatile" | "typename" | "static" | "extern"
            | "register" | "mutable" -> true
            | _ -> false)
    | Token.Ident id -> is_type_name t id || check_qualified_type t
    | Token.Punct "::" -> true
    | _ -> false
  in
  if not starts_like_type then None
  else begin
    let m = save t in
    match
      speculating t @@ fun () ->
      let storage =
        let st = ref no_storage in
        let rec go () =
          if eat_kw t "static" then (st := { !st with st_static = true }; go ())
          else if eat_kw t "extern" then (st := { !st with st_extern = true }; go ())
          else if eat_kw t "register" then (st := { !st with st_register = true }; go ())
          else if eat_kw t "mutable" then (st := { !st with st_mutable = true }; go ())
        in
        go ();
        !st
      in
      let base = parse_type t ~allow_abstract:false in
      let rec declarators acc =
        let vloc = loc t in
        (* declarator: * & prefixes then identifier then [n] suffix *)
        let ty = ref base in
        let rec prefixes () =
          if eat_punct t "*" then begin
            ty := TPtr !ty;
            let rec q () =
              if eat_kw t "const" then (ty := TConst !ty; q ())
              else if eat_kw t "volatile" then (ty := TVolatile !ty; q ())
            in
            q ();
            prefixes ()
          end
          else if eat_punct t "&" then begin
            ty := TRef !ty;
            prefixes ()
          end
        in
        prefixes ();
        let name =
          match (cur t).tok with
          | Token.Ident s ->
              advance t;
              s
          | tok -> raise (Parse_error (loc t, "expected declarator name, found " ^ Token.describe tok))
        in
        (* array suffixes *)
        (* suffix dimensions: the first [] is the outermost dimension, so
           collect then fold right-to-left *)
        let rec dims acc =
          if eat_punct t "[" then begin
            let n = if check_punct t "]" then None else Some (parse_conditional t) in
            expect_punct t "]";
            dims (n :: acc)
          end
          else acc  (* innermost first *)
        in
        List.iter (fun n -> ty := TArray (!ty, n)) (dims []);
        let init =
          if eat_punct t "=" then EqInit (parse_assignment t)
          else if check_punct t "(" then begin
            advance t;
            CtorInit (parse_call_args t)
          end
          else NoInit
        in
        let vd = { v_name = name; v_type = !ty; v_init = init; v_loc = vloc; v_storage = storage } in
        if eat_punct t "," then declarators (vd :: acc)
        else if check_punct t ";" then List.rev (vd :: acc)
        else raise (Parse_error (loc t, "expected ',' or ';' after declarator"))
      in
      declarators []
    with
    | vds -> Some vds
    | exception Parse_error _ -> None
    | exception e ->
        (* restore before re-raising non-speculative failures *)
        restore t m;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

(* parameter-list: assumes '(' consumed; consumes ')' *)
and parse_params t : param list * bool =
  if eat_punct t ")" then ([], false)
  else begin
    let rec go acc =
      if eat_punct t "..." then begin
        expect_punct t ")";
        (List.rev acc, true)
      end
      else begin
        let ploc = loc t in
        let base = parse_type t ~allow_abstract:true in
        (* declarator part: * & already folded into type by parse_type in
           abstract mode; here may come a name and array suffixes *)
        let ty = ref base in
        let name =
          match (cur t).tok with
          | Token.Ident s ->
              advance t;
              Some s
          | _ -> None
        in
        (* suffix dimensions: the first [] is the outermost dimension, so
           collect then fold right-to-left *)
        let rec dims acc =
          if eat_punct t "[" then begin
            let n = if check_punct t "]" then None else Some (parse_conditional t) in
            expect_punct t "]";
            dims (n :: acc)
          end
          else acc  (* innermost first *)
        in
        List.iter (fun n -> ty := TArray (!ty, n)) (dims []);
        let default = if eat_punct t "=" then Some (parse_assignment t) else None in
        let p = { pname = name; ptype = !ty; pdefault = default; ploc } in
        if eat_punct t "," then go (p :: acc)
        else begin
          expect_punct t ")";
          (List.rev (p :: acc), false)
        end
      end
    in
    go []
  end

(* exception-specification: throw ( type-list? ) *)
and parse_throw_spec t : type_expr list option =
  if eat_kw t "throw" then begin
    expect_punct t "(";
    if eat_punct t ")" then Some []
    else begin
      let rec go acc =
        let ty = parse_type t ~allow_abstract:true in
        if eat_punct t "," then go (ty :: acc)
        else begin
          expect_punct t ")";
          Some (List.rev (ty :: acc))
        end
      in
      go []
    end
  end
  else None

(* ctor-initializers: ': name(args) (, name(args))*' *)
and parse_ctor_inits t : (string * expr list) list =
  if eat_punct t ":" then begin
    let rec go acc =
      let n = expect_ident t in
      let n =
        (* base-class initializer may be a template-id: Base<T>(...) *)
        if check_punct t "<" then begin
          advance t;
          let args = parse_template_args t in
          n ^ "<" ^ String.concat ", "
                      (List.map
                         (function
                           | TA_type ty -> type_to_string ty
                           | TA_expr e -> expr_to_string e)
                         args)
          ^ ">"
        end
        else n
      in
      expect_punct t "(";
      let args = parse_call_args t in
      if eat_punct t "," then go ((n, args) :: acc) else List.rev ((n, args) :: acc)
    in
    go []
  end
  else []

(* class definition after the class-key; [key_loc] is the location of the
   class keyword *)
and parse_class t key key_loc : class_def =
  let name =
    match (cur t).tok with
    | Token.Ident id ->
        advance t;
        let targs =
          if check_punct t "<" then begin
            (* specialization: class Stack<char> / partial: Stack<T*> *)
            advance t;
            Some (parse_template_args t)
          end
          else None
        in
        register_type t id;
        Some { id; targs }
    | _ -> None
  in
  let bases =
    if eat_punct t ":" then begin
      let rec go acc =
        let b_loc = loc t in
        let virt1 = eat_kw t "virtual" in
        let acc_spec =
          if eat_kw t "public" then Some Public
          else if eat_kw t "protected" then Some Protected
          else if eat_kw t "private" then Some Private
          else None
        in
        let virt = virt1 || eat_kw t "virtual" in
        let n = parse_qual_name t in
        let b = { b_access = acc_spec; b_virtual = virt; b_name = n; b_loc } in
        if eat_punct t "," then go (b :: acc) else List.rev (b :: acc)
      in
      go []
    end
    else []
  in
  let header_end = prev_loc t in
  let header = Srcloc.range key_loc header_end in
  if check_punct t "{" then begin
    let body_start = loc t in
    advance t;
    let class_id = Option.map (fun (p : name_part) -> p.id) name in
    let rec members acc =
      if check_punct t "}" then List.rev acc
      else if (cur t).tok = Token.Eof then
        err t "unexpected end of file in class body"
      else
        match parse_member t ?class_id () with
        | m -> members (m :: acc)
        | exception Parse_error (l, msg) when t.speculative = 0 ->
            record_recovery t l msg;
            sync_to_boundary t;
            members acc
    in
    let ms = members [] in
    let body_end = loc t in
    expect_punct t "}";
    { c_key = key; c_name = name; c_bases = bases; c_members = ms;
      c_header = header; c_body = Some (Srcloc.range body_start body_end) }
  end
  else
    { c_key = key; c_name = name; c_bases = bases; c_members = [];
      c_header = header; c_body = None }

and class_key_of_kw = function
  | "class" -> Class_key
  | "struct" -> Struct_key
  | "union" -> Union_key
  | k -> invalid_arg ("class_key_of_kw: " ^ k)

(* one member declaration inside a class body *)
and parse_member t ?class_id () : decl =
  with_depth t @@ fun () -> parse_member_body t ?class_id ()

and parse_member_body t ?class_id () : decl =
  let lo = loc t in
  match (cur t).tok with
  | Token.Kw (("public" | "protected" | "private") as k)
    when (peek_at t 0).tok = Token.Punct ":" ->
      advance t;
      advance t;
      let a = match k with
        | "public" -> Public
        | "protected" -> Protected
        | _ -> Private
      in
      { d = DAccess a; dloc = lo }
  | Token.Kw "friend" ->
      advance t;
      let inner = parse_member t ?class_id () in
      { d = DFriend inner; dloc = lo }
  | Token.Kw "template" -> parse_template t ?class_id ()
  | Token.Kw "typedef" -> parse_typedef t
  | Token.Kw "enum" -> parse_enum t
  | Token.Kw (("class" | "struct" | "union") as k)
    when (match (peek_at t 0).tok with
          | Token.Ident _ -> (
              match (peek_at t 1).tok with
              | Token.Punct ("{" | ":" | ";") -> true
              | _ -> false)
          | Token.Punct "{" -> true
          | _ -> false) ->
      advance t;
      let cd = parse_class t (class_key_of_kw k) lo in
      expect_punct t ";";
      { d = DClass cd; dloc = lo }
  | Token.Kw "using" ->
      advance t;
      let is_ns = eat_kw t "namespace" in
      let q = parse_qual_name t in
      expect_punct t ";";
      { d = DUsing (q, is_ns); dloc = lo }
  | Token.Punct ";" ->
      advance t;
      { d = DEmpty; dloc = lo }
  | _ -> parse_function_or_var t ?class_id ~in_class:true ()

and parse_typedef t : decl =
  let lo = loc t in
  advance t (* typedef *);
  let base = parse_type t ~allow_abstract:false in
  let ty = ref base in
  let rec prefixes () =
    if eat_punct t "*" then (ty := TPtr !ty; prefixes ())
    else if eat_punct t "&" then (ty := TRef !ty; prefixes ())
  in
  prefixes ();
  let name = expect_ident t in
  (* array suffix *)
  let rec dims acc =
    if eat_punct t "[" then begin
      let n = if check_punct t "]" then None else Some (parse_conditional t) in
      expect_punct t "]";
      dims (n :: acc)
    end
    else acc
  in
  List.iter (fun n -> ty := TArray (!ty, n)) (dims []);
  expect_punct t ";";
  register_type t name;
  { d = DTypedef (!ty, name); dloc = lo }

and parse_enum t : decl =
  let lo = loc t in
  advance t (* enum *);
  let name =
    match (cur t).tok with
    | Token.Ident id ->
        advance t;
        register_type t id;
        Some id
    | _ -> None
  in
  expect_punct t "{";
  let rec go acc =
    if eat_punct t "}" then List.rev acc
    else begin
      let eloc = loc t in
      let n = expect_ident t in
      let v = if eat_punct t "=" then Some (parse_conditional t) else None in
      ignore (eat_punct t ",");
      go ((n, v, eloc) :: acc)
    end
  in
  let items = go [] in
  expect_punct t ";";
  { d = DEnum (name, items); dloc = lo }

(* A function or variable declaration/definition, at namespace or class
   scope.  This is the workhorse: it parses decl-specifiers, then a
   (possibly qualified) declarator, and decides function vs variable by the
   presence of '('. *)
and parse_function_or_var t ?class_id ~in_class () : decl =
  let lo = loc t in
  let quals = ref no_quals in
  let storage = ref no_storage in
  let rec specs () =
    if eat_kw t "virtual" then (quals := { !quals with q_virtual = true }; specs ())
    else if eat_kw t "static" then (
      quals := { !quals with q_static = true };
      storage := { !storage with st_static = true };
      specs ())
    else if eat_kw t "inline" then (quals := { !quals with q_inline = true }; specs ())
    else if eat_kw t "explicit" then (quals := { !quals with q_explicit = true }; specs ())
    else if eat_kw t "extern" then (
      quals := { !quals with q_extern = true };
      storage := { !storage with st_extern = true };
      specs ())
    else if eat_kw t "mutable" then (storage := { !storage with st_mutable = true }; specs ())
    else if eat_kw t "register" then (storage := { !storage with st_register = true }; specs ())
  in
  specs ();
  (* constructor / destructor / conversion detection *)
  let is_ctor_like =
    match ((cur t).tok, class_id) with
    | Token.Ident id, Some cid when String.equal id cid -> (
        (* 'Stack(' or 'Stack<T>(' *)
        match (peek_at t 0).tok with
        | Token.Punct "(" -> true
        | Token.Punct "<" -> false (* member-decl Stack<..> var — rare; treat as type *)
        | _ -> false)
    | Token.Punct "~", _ -> true
    | Token.Kw "operator", _ -> true (* conversion op (no return type) *)
    | _ -> false
  in
  if is_ctor_like && in_class then parse_ctor_dtor_conv t ?class_id ~quals:!quals lo
  else begin
    (* Out-of-line ctor/dtor: Stack<T>::Stack / Qual::~Qual — detect by a
       qualified name whose last component is ctor-like, with no leading type *)
    let m = save t in
    match try_parse_qualified_ctor t ~quals:!quals lo with
    | Some d -> d
    | None ->
        restore t m;
        let ret = parse_type t ~allow_abstract:false in
        (* declarator prefixes *)
        let ty = ref ret in
        let rec prefixes () =
          if eat_punct t "*" then begin
            ty := TPtr !ty;
            let rec q () =
              if eat_kw t "const" then (ty := TConst !ty; q ())
              else if eat_kw t "volatile" then (ty := TVolatile !ty; q ())
            in
            q ();
            prefixes ()
          end
          else if eat_punct t "&" then (ty := TRef !ty; prefixes ())
        in
        prefixes ();
        let name = parse_qual_name ~in_expr:false t in
        (* [T name(] opens a parameter list, unless a literal follows:
           then it is a direct initialization, [Foo g(3);] *)
        let literal_follows () =
          match (peek_at t 0).tok with
          | Token.IntLit _ | Token.FloatLit _ | Token.CharLit _ | Token.StringLit _
          | Token.Kw ("true" | "false") -> true
          | _ -> false
        in
        if check_punct t "(" && not (literal_follows ()) then begin
          advance t;
          let params, variadic = parse_params t in
          let const_m = eat_kw t "const" in
          let throw = parse_throw_spec t in
          let pure =
            if check_punct t "=" && (peek_at t 0).tok = Token.IntLit ("0", 0L) then begin
              advance t;
              advance t;
              true
            end
            else false
          in
          let header = Srcloc.range lo (prev_loc t) in
          let kind =
            match (last_part name).id with
            | s when String.length s >= 8 && String.sub s 0 8 = "operator" ->
                Fk_operator s
            | _ -> Fk_normal
          in
          let quals =
            { !quals with q_const = const_m; q_pure = pure }
          in
          let body, body_range =
            if check_punct t "{" then begin
              let bs = loc t in
              let b = parse_compound t in
              let be = prev_loc t in
              (Some b, Some (Srcloc.range bs be))
            end
            else begin
              expect_punct t ";";
              (None, None)
            end
          in
          { d =
              DFunction
                { f_name = name; f_kind = kind; f_ret = Some !ty; f_params = params;
                  f_variadic = variadic; f_quals = quals; f_inits = []; f_throw = throw;
                  f_body = body; f_header = header; f_body_range = body_range };
            dloc = lo }
        end
        else begin
          (* variable(s) *)
          let init () =
            if eat_punct t "=" then EqInit (parse_assignment t)
            else if eat_punct t "(" then CtorInit (parse_call_args t)
            else NoInit
          in
          match name.parts with
          | [ { id; targs = None } ] ->
              let rec dims acc =
                if eat_punct t "[" then begin
                  let n = if check_punct t "]" then None else Some (parse_conditional t) in
                  expect_punct t "]";
                  dims (n :: acc)
                end
                else acc
              in
              List.iter (fun n -> ty := TArray (!ty, n)) (dims []);
              let init = init () in
              expect_punct t ";";
              { d =
                  DVar { v_name = id; v_type = !ty; v_init = init; v_loc = lo;
                         v_storage = !storage };
                dloc = lo }
          | _ ->
              (* qualified variable definition: e.g. int Stack::count = 0; *)
              let init = init () in
              expect_punct t ";";
              { d =
                  DVar { v_name = qual_name_to_string name; v_type = !ty;
                         v_init = init; v_loc = lo; v_storage = !storage };
                dloc = lo }
        end
  end

(* in-class constructor, destructor or conversion operator *)
and parse_ctor_dtor_conv t ?class_id ~quals lo : decl =
  ignore class_id;
  let kind, name =
    match (cur t).tok with
    | Token.Punct "~" ->
        advance t;
        let n = expect_ident t in
        (Fk_dtor, "~" ^ n)
    | Token.Kw "operator" -> (Fk_conversion, parse_operator_name t)
    | Token.Ident id ->
        advance t;
        (Fk_ctor, id)
    | tok -> err t "expected constructor-like declarator, found %s" (Token.describe tok)
  in
  expect_punct t "(";
  let params, variadic = parse_params t in
  let const_m = eat_kw t "const" in
  let throw = parse_throw_spec t in
  let header = Srcloc.range lo (prev_loc t) in
  let inits = if kind = Fk_ctor then parse_ctor_inits t else [] in
  let body, body_range =
    if check_punct t "{" then begin
      let bs = loc t in
      let b = parse_compound t in
      (Some b, Some (Srcloc.range bs (prev_loc t)))
    end
    else begin
      expect_punct t ";";
      (None, None)
    end
  in
  { d =
      DFunction
        { f_name = simple_name name; f_kind = kind; f_ret = None; f_params = params;
          f_variadic = variadic; f_quals = { quals with q_const = const_m };
          f_inits = inits; f_throw = throw; f_body = body; f_header = header;
          f_body_range = body_range };
    dloc = lo }

(* out-of-line  Qual::Qual(...) / Qual::~Qual(...) with no return type *)
and try_parse_qualified_ctor t ~quals lo : decl option =
  match (cur t).tok with
  | Token.Ident _ -> (
      let m = save t in
      (* Speculate only through the qualified name and the Qual::Qual(
         pattern check.  Once the pattern matched we commit: the parameter
         list and body parse non-speculatively, so errors inside them are
         reported and recovered in place instead of silently backtracking. *)
      match
        speculating t @@ fun () ->
        let q = parse_qual_name ~in_expr:false t in
        match List.rev q.parts with
        | last :: prev :: _
          when check_punct t "("
               && (String.equal last.id prev.id
                   || (String.length last.id > 1
                       && last.id.[0] = '~'
                       && String.equal (String.sub last.id 1 (String.length last.id - 1)) prev.id)) ->
            Some (q, last)
        | _ -> None
      with
      | None | exception Parse_error _ ->
          restore t m;
          None
      | exception e ->
          restore t m;
          raise e
      | Some (q, last) ->
          let kind = if last.id.[0] = '~' then Fk_dtor else Fk_ctor in
          advance t;
          let params, variadic = parse_params t in
          let throw = parse_throw_spec t in
          let header = Srcloc.range lo (prev_loc t) in
          let inits = if kind = Fk_ctor then parse_ctor_inits t else [] in
          let body, body_range =
            if check_punct t "{" then begin
              let bs = loc t in
              let b = parse_compound t in
              (Some b, Some (Srcloc.range bs (prev_loc t)))
            end
            else begin
              expect_punct t ";";
              (None, None)
            end
          in
          Some
            { d =
                DFunction
                  { f_name = q; f_kind = kind; f_ret = None; f_params = params;
                    f_variadic = variadic; f_quals = quals; f_inits = inits;
                    f_throw = throw; f_body = body; f_header = header;
                    f_body_range = body_range };
              dloc = lo })
  | _ -> None

(* template declaration: 'template < params > decl', or explicit
   instantiation 'template decl;', or explicit specialization
   'template <> decl' *)
and parse_template t ?class_id () : decl =
  with_depth t @@ fun () -> parse_template_body t ?class_id ()

and parse_template_body t ?class_id () : decl =
  let lo = loc t in
  let start_pos = t.pos in
  advance t (* template *);
  if not (check_punct t "<") then begin
    (* explicit instantiation: template class Stack<int>; *)
    let inner = parse_toplevel_decl t in
    { d = DExplicitInst inner; dloc = lo }
  end
  else begin
    advance t;
    let tparams =
      if eat_punct t ">" then []
      else begin
        let rec go acc =
          let p =
            if eat_kw t "class" || eat_kw t "typename" then begin
              let n = expect_ident t in
              let default =
                if eat_punct t "=" then Some (parse_type t ~allow_abstract:true)
                else None
              in
              TP_type (n, default)
            end
            else if check_kw t "template" then begin
              advance t;
              expect_punct t "<";
              (* skip inner parameter list *)
              let depth = ref 1 in
              while !depth > 0 do
                (match (cur t).tok with
                 | Token.Punct "<" -> incr depth
                 | Token.Punct ">" -> decr depth
                 | Token.Punct ">>" -> depth := !depth - 2
                 | Token.Eof -> err t "unterminated template-template parameter"
                 | _ -> ());
                advance t
              done;
              ignore (eat_kw t "class");
              ignore (eat_kw t "typename");
              TP_template (expect_ident t)
            end
            else begin
              let ty = parse_type t ~allow_abstract:true in
              let n = expect_ident t in
              let default = if eat_punct t "=" then Some (parse_conditional t) else None in
              TP_nontype (ty, n, default)
            end
          in
          if eat_punct t "," then go (p :: acc)
          else begin
            (match (cur t).tok with
             | Token.Punct ">" -> advance t
             | Token.Punct ">>" -> split_gtgt t
             | _ -> err t "expected '>' closing template parameter list");
            List.rev (p :: acc)
          end
        in
        go []
      end
    in
    (* register type/template parameter names for the scope of the pattern *)
    let param_names =
      List.filter_map
        (function
          | TP_type (n, _) -> Some (n, `Type)
          | TP_template n -> Some (n, `Template)
          | TP_nontype _ -> None)
        tparams
    in
    List.iter
      (fun (n, k) ->
        register_type t n;
        if k = `Template then reg t.template_names n)
      param_names;
    (* The declared entity's name becomes a template name.  Peek it so that
       the pattern itself can use e.g. Stack<Object> recursively. *)
    peek_register_template t;
    let inner =
      match (cur t).tok with
      | Token.Kw "template" -> parse_template t ?class_id ()  (* member template of class template *)
      | Token.Kw (("class" | "struct" | "union") as k)
        when (match (peek_at t 0).tok with
              | Token.Ident _ -> true
              | Token.Punct "{" -> true
              | _ -> false)
             && not (is_elaborated_return t) ->
          let klo = loc t in
          advance t;
          let cd = parse_class t (class_key_of_kw k) klo in
          expect_punct t ";";
          { d = DClass cd; dloc = klo }
      | Token.Kw "typedef" -> parse_typedef t
      | _ -> parse_function_or_var t ?class_id ~in_class:(class_id <> None) ()
    in
    List.iter
      (fun (n, k) ->
        unreg t.type_names n;
        if k = `Template then unreg t.template_names n)
      param_names;
    let text = template_text t start_pos in
    { d = DTemplate (tparams, inner, text); dloc = lo }
  end

(* 'template <class T> class X {...}' vs 'template <class T> class X<T>::Y f()'
   — the latter (elaborated return type) is rare; approximate: it is a class
   template iff after the name comes '{', ':', ';' or '<...> {' *)
and is_elaborated_return t =
  match ((peek_at t 0).tok, (peek_at t 1).tok) with
  | Token.Ident _, Token.Punct ("{" | ":" | ";" | "<") -> false
  | Token.Punct "{", _ -> false
  | _ -> true

(* After 'template <...>', if the next tokens are 'class/struct IDENT' or a
   function-template 'ret IDENT (', register IDENT as a template name before
   parsing the pattern (so recursive uses resolve). *)
and peek_register_template t =
  let reg_if_ident (tk : Token.t) =
    match tk with Token.Ident id -> register_template_type t id | _ -> ()
  in
  match (cur t).tok with
  | Token.Kw ("class" | "struct" | "union") -> reg_if_ident (peek_at t 0).tok
  | _ ->
      (* scan a short window for 'IDENT (' (a function template) or
         'IDENT <' (a class-template id, e.g. an out-of-line member) after
         the return type; registering too eagerly is harmless for
         disambiguation purposes *)
      let rec scan i =
        if i > 12 then ()
        else
          match ((peek_at t (i - 1)).tok, (peek_at t i).tok) with
          | Token.Ident id, Token.Punct "(" -> register_template_func t id
          | Token.Ident id, Token.Punct "<" -> register_template_type t id
          | _, Token.Punct (";" | "{") -> ()
          | _ -> scan (i + 1)
      in
      scan 1

and template_text t start_pos =
  (* Reconstruct the raw text of tokens [start_pos, t.pos) *)
  let slice = Array.sub t.toks start_pos (max 0 (t.pos - start_pos)) in
  Token.text_of_toks (Array.to_list slice)

(* namespace-scope declaration *)
and parse_toplevel_decl t : decl =
  with_depth t @@ fun () -> parse_toplevel_decl_body t

(* recovering loop over namespace-scope declarations up to a closing '}' *)
and toplevel_decls_until_brace t ~what =
  let rec go acc =
    if eat_punct t "}" then List.rev acc
    else if (cur t).tok = Token.Eof then
      err t "unexpected end of file in %s" what
    else
      match parse_toplevel_decl t with
      | d -> go (d :: acc)
      | exception Parse_error (l, m) when t.speculative = 0 ->
          record_recovery t l m;
          sync_to_boundary t;
          go acc
  in
  go []

and parse_toplevel_decl_body t : decl =
  let lo = loc t in
  match (cur t).tok with
  | Token.Kw "namespace" -> (
      advance t;
      match (cur t).tok with
      | Token.Ident id ->
          advance t;
          if check_punct t "=" then begin
            (* namespace alias *)
            advance t;
            let target = parse_qual_name t in
            expect_punct t ";";
            { d = DUsing (target, true); dloc = lo }
          end
          else begin
            let body_start = loc t in
            expect_punct t "{";
            let ds = toplevel_decls_until_brace t ~what:"namespace body" in
            { d = DNamespace (Some id, ds, Srcloc.range body_start (prev_loc t)); dloc = lo }
          end
      | Token.Punct "{" ->
          let body_start = loc t in
          advance t;
          let ds = toplevel_decls_until_brace t ~what:"namespace body" in
          { d = DNamespace (None, ds, Srcloc.range body_start (prev_loc t)); dloc = lo }
      | tok -> err t "expected namespace name or '{', found %s" (Token.describe tok))
  | Token.Kw "using" ->
      advance t;
      let is_ns = eat_kw t "namespace" in
      let q = parse_qual_name t in
      expect_punct t ";";
      { d = DUsing (q, is_ns); dloc = lo }
  | Token.Kw "template" -> parse_template t ()
  | Token.Kw "typedef" -> parse_typedef t
  | Token.Kw "enum" -> parse_enum t
  | Token.Kw (("class" | "struct" | "union") as k)
    when (match (peek_at t 0).tok with
          | Token.Ident _ -> (
              match (peek_at t 1).tok with
              | Token.Punct ("{" | ":" | ";" | "<") -> true
              | _ -> false)
          | Token.Punct "{" -> true
          | _ -> false) ->
      advance t;
      let cd = parse_class t (class_key_of_kw k) lo in
      (* possibly 'class X {...} x, y;' — subset: only ';' *)
      expect_punct t ";";
      { d = DClass cd; dloc = lo }
  | Token.Punct ";" ->
      advance t;
      { d = DEmpty; dloc = lo }
  | Token.Kw "extern"
    when (match (peek_at t 0).tok with Token.StringLit _ -> true | _ -> false) ->
      (* extern "C" { ... } or extern "C" decl *)
      advance t;
      advance t;
      if check_punct t "{" then begin
        advance t;
        let ds = toplevel_decls_until_brace t ~what:"extern \"C\" block" in
        { d = DNamespace (None, ds, Srcloc.range lo (prev_loc t)); dloc = lo }
      end
      else parse_toplevel_decl t
  | _ -> parse_function_or_var t ~in_class:false ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* The top-level loop from [t.pos]; [acc] holds the declarations before
   it, newest first. *)
let toplevel t acc : decl list =
  let rec go acc =
    (* the end is tested without [cur]: reaching it is not reading past it *)
    match if t.pos < Array.length t.toks then (cur t).tok else Token.Eof with
    | Token.Eof -> List.rev acc
    | _ -> (
        match parse_toplevel_decl t with
        | d -> go (d :: acc)
        | exception Parse_error (l, m) -> (
            match record_recovery t l m with
            | () ->
                sync_to_boundary t;
                (* a stray '}' at file scope has no enclosing construct:
                   consume it so recovery makes progress *)
                (match (cur t).tok with
                 | Token.Punct "}" -> advance t
                 | _ -> ());
                go acc
            | exception Bail -> List.rev acc)
        | exception Bail -> List.rev acc
        | exception (Limits.Exceeded _ as e) ->
            (* budget breach: record once and return what parsed so far *)
            Diag.fatal_note t.diags (loc t) "%s" (Limits.describe e);
            List.rev acc)
  in
  go acc

(* ------------------------------------------------------------------ *)
(* Prefix memo                                                         *)
(* ------------------------------------------------------------------ *)

(* A unit's leading run of tokens from other files, as one build met it
   under [budgets].  Units share token records only through the lexer's
   memo.  The first unit to meet a run leaves it [Seen], holding its
   length and end records.  The second parses it alone and leaves it
   [Parsed] (the run's records, that parser with its '>>' splits and
   registries, the declarations newest first) or [Unusable] (the parse
   recorded a diagnostic, raised, or read past the run's end).  A run
   with those ends but other records between them is parsed in place. *)
type prefix = {
  n : int; first : Token.tok; last : Token.tok;
  budgets : Limits.budgets;
  mutable state : state;
}

and state = Seen | Unusable | Parsed of Token.tok array * t * decl list

(** The prefixes met in one build, newest first, shared under [lock]. *)
type memo = { lock : Mutex.t; mutable prefixes : prefix list }

let memo ~lock = { lock; prefixes = [] }

(* entries a memo keeps, so that looking one up stays cheap *)
let max_prefixes = 64

(* [t] and the declarations before its [pos] once the leading run of
   tokens from files other than [file] is parsed: taken from [m] when an
   entry holds these very token records under the same budgets, else
   parsed alone on the run's second sighting and kept.  A hit is sound
   because the run parsed alone read only its own tokens and recorded
   nothing, so the unit's own parse would make the same moves on the same
   records and end in the same state. *)
let resume m t ~file : t * decl list =
  let len = Array.length t.toks in
  let rec run i =
    if i < len && t.toks.(i).loc.Srcloc.file <> file then run (i + 1) else i
  in
  let n = run 0 in
  let budgets = t.limits.Limits.budgets in
  let same p =
    p.n = n && p.first == t.toks.(0) && p.last == t.toks.(n - 1)
    && p.budgets = budgets
  in
  let sighting () =
    match List.find_opt same m.prefixes with
    | Some p -> Some (p, p.state)
    | None ->
        m.prefixes <-
          { n; first = t.toks.(0); last = t.toks.(n - 1); budgets; state = Seen }
          :: List.filteri (fun i _ -> i < max_prefixes - 1) m.prefixes;
        None
  in
  let identical key = Array.for_all2 ( == ) key (Array.sub t.toks 0 n) in
  let state =
    match if n = 0 then None else Mutex.protect m.lock sighting with
    | Some (_, (Parsed (key, _, _) as state)) when identical key ->
        Trace.count ~cat:"parse" "parse.prefix_hit" 0;
        state
    | None | Some (_, (Unusable | Parsed _)) -> Unusable
    | Some (p, Seen) ->
        let alone =
          create ~limits:(Limits.create ~budgets ()) ~diags:(Diag.create ())
            (Array.sub t.toks 0 n)
        in
        let state =
          (* whatever the run raises alone, the unit's own parse meets and
             reports *)
          match toplevel alone [] with
          | decls when alone.diags.Diag.diags = [] && not alone.past_end ->
              Parsed (Array.sub t.toks 0 n, alone, List.rev decls)
          | _ | (exception _) -> Unusable
        in
        Mutex.protect m.lock (fun () -> p.state <- state);
        state
  in
  match state with
  | Seen | Unusable -> (t, [])
  | Parsed (_, alone, decls) ->
      Array.blit alone.toks 0 t.toks 0 n;
      t.pos <- n;
      ( { t with
          type_names = Hashtbl.copy alone.type_names;
          template_names = Hashtbl.copy alone.template_names },
        decls )

(** Parse one preprocessed translation unit.  With [memo], a leading run
    of header tokens that the build has parsed before is not parsed
    again (see {!resume}). *)
let parse_translation_unit ?memo ?limits ~diags ~file toks : translation_unit =
  let parse () =
    let t = create ?limits ~diags (Array.of_list toks) in
    let t, acc = match memo with None -> (t, []) | Some m -> resume m t ~file in
    { tu_file = file; tu_decls = toplevel t acc }
  in
  Trace.timed ~cat:"parse"
    ~args:(if Trace.on () then [ ("file", Trace.Str file) ] else [])
    "parse.tu" parse
