(** Hand-written maximal-munch lexer for the C++ subset.

    Produces the full token stream of one physical file, including [#]
    punctuators: preprocessing directives are recognized later by [pdt_pp]
    using the [bol] flags.  Line splices ([\ ] at end of line, LF or CRLF)
    are handled here so the preprocessor sees logical lines: the token after
    a splice keeps the line's [bol] state.

    The scan allocates only what a token keeps: a punctuator is matched in
    place against the {!Token.punctuators} that start with its first
    character and shares the table's string, and every token's location is
    built once. *)

open Pdt_util

type state = {
  src : string;
  file : string;
  mutable pos : int;   (* byte offset *)
  mutable line : int;  (* 1-based *)
  mutable col : int;   (* 1-based *)
  mutable bol : bool;
  mutable space : bool;
  diags : Diag.engine;
}

let create ~diags ~file src =
  { src; file; pos = 0; line = 1; col = 1; bol = true; space = false; diags }

let loc st = Srcloc.make ~file:st.file ~line:st.line ~col:st.col

let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  let c = st.src.[st.pos] in
  st.pos <- st.pos + 1;
  if c = '\n' then begin
    st.line <- st.line + 1;
    st.col <- 1;
    st.bol <- true
  end
  else st.col <- st.col + 1;
  c

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c
let is_hex_digit c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_octal_digit c = c >= '0' && c <= '7'

(* Length of the line splice at the cursor: a backslash and the line break
   after it, LF or CRLF; 0 when there is none. *)
let splice_length st =
  if peek st <> '\\' then 0
  else if peek2 st = '\n' then 2
  else if
    peek2 st = '\r' && st.pos + 2 < String.length st.src
    && st.src.[st.pos + 2] = '\n'
  then 3
  else 0

(* Skip whitespace and comments; record whether any was skipped. *)
let rec skip_trivia st =
  if at_end st then ()
  else
    match peek st with
    | ' ' | '\t' | '\r' | '\n' ->
        ignore (advance st);
        st.space <- true;
        skip_trivia st
    | '\\' when splice_length st > 0 ->
        (* a line splice joins two physical lines into one logical line, so
           it must not start a new one: a continued #define stays one
           directive *)
        let bol = st.bol and n = splice_length st in
        for _ = 1 to n do
          ignore (advance st)
        done;
        st.bol <- bol;
        st.space <- true;
        skip_trivia st
    | '/' when peek2 st = '/' ->
        while (not (at_end st)) && peek st <> '\n' do
          ignore (advance st)
        done;
        st.space <- true;
        skip_trivia st
    | '/' when peek2 st = '*' ->
        let start = loc st in
        ignore (advance st);
        ignore (advance st);
        let rec finish () =
          (* unterminated comment: record and stop — the rest of the file
             is inside the comment, so there is nothing left to lex *)
          if at_end st then Diag.error st.diags start "unterminated comment"
          else if peek st = '*' && peek2 st = '/' then begin
            ignore (advance st);
            ignore (advance st)
          end
          else begin
            ignore (advance st);
            finish ()
          end
        in
        finish ();
        st.space <- true;
        skip_trivia st
    | _ -> ()

(* Identifiers, numbers and punctuators never span a line break, so the
   cursor moves over them in one step. *)
let skip_to st stop =
  st.col <- st.col + (stop - st.pos);
  st.pos <- stop

(* End of the run of characters satisfying [p] from [i]. *)
let scan_while st p i =
  let n = String.length st.src in
  let rec go i = if i < n && p st.src.[i] then go (i + 1) else i in
  go i

let lex_ident st =
  let start = st.pos in
  skip_to st (scan_while st is_ident_char start);
  let s = String.sub st.src start (st.pos - start) in
  match Hashtbl.find_opt Token.keyword_tokens s with
  | Some kw -> kw
  | None -> Token.Ident s

(* Strip the suffix characters [suffix] accepts from the end of [s]. *)
let strip_suffix suffix s =
  let rec strip i = if i > 0 && suffix s.[i - 1] then strip (i - 1) else i in
  String.sub s 0 (strip (String.length s))

(* A numeric literal at [at].  An integer literal with a leading [0] is
   octal; a fraction may omit its digits before an exponent ([1.e5]). *)
let lex_number st at =
  let start = st.pos in
  let seen_dot = ref false and seen_exp = ref false in
  let is_hex =
    peek st = '0' && (peek2 st = 'x' || peek2 st = 'X')
  in
  if is_hex then skip_to st (scan_while st is_hex_digit (start + 2))
  else begin
    while
      (not (at_end st))
      &&
      let c = peek st in
      let prev = if st.pos > start then st.src.[st.pos - 1] else ' ' in
      if is_digit c then true
      else if c = '.' && not !seen_dot && not !seen_exp then begin
        seen_dot := true;
        true
      end
      else if (c = 'e' || c = 'E') && not !seen_exp
              && (is_digit prev || prev = '.')
      then begin
        seen_exp := true;
        true
      end
      else if (c = '+' || c = '-') && !seen_exp && (prev = 'e' || prev = 'E')
      then true
      else false
    do
      ignore (advance st)
    done
  end;
  (* suffixes *)
  while
    (not (at_end st))
    && (match peek st with
        | 'u' | 'U' | 'l' | 'L' -> true
        | 'f' | 'F' when (!seen_dot || !seen_exp) && not is_hex -> true
        | _ -> false)
  do
    ignore (advance st)
  done;
  let s = String.sub st.src start (st.pos - start) in
  if (!seen_dot || !seen_exp) && not is_hex then
    let numeric =
      strip_suffix (function 'f' | 'F' | 'l' | 'L' -> true | _ -> false) s
    in
    match float_of_string_opt numeric with
    | Some v -> Token.FloatLit (s, v)
    | None ->
        Diag.error st.diags at "invalid floating literal '%s'" s;
        Token.FloatLit (s, 0.0)
  else
    let numeric =
      strip_suffix (function 'u' | 'U' | 'l' | 'L' -> true | _ -> false) s
    in
    let octal = (not is_hex) && String.length numeric > 1 && numeric.[0] = '0' in
    if octal && not (String.for_all is_octal_digit numeric) then begin
      Diag.error st.diags at "invalid digit in octal constant '%s'" s;
      Token.IntLit (s, 0L)
    end
    else
      match Int64.of_string_opt (if octal then "0o" ^ numeric else numeric) with
      | Some v -> Token.IntLit (s, v)
      | None ->
          Diag.error st.diags at "integer literal '%s' out of range" s;
          Token.IntLit (s, 0L)

let escape_value st at = function
  | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | 'a' -> 7 | 'b' -> 8
  | 'f' -> 12 | 'v' -> 11 | '\\' -> 92 | '\'' -> 39 | '"' -> 34 | '?' -> 63
  | c ->
      Diag.warn st.diags at "unknown escape sequence '\\%c'" c;
      Char.code c

(* The value of the escape sequence whose backslash was just consumed:
   one to three octal digits, [x] and hex digits, or a single character. *)
let lex_escape st at =
  (* the digits from the cursor up to [stop], in [base] *)
  let digits_value base stop =
    let start = st.pos in
    let v = ref 0 in
    for i = start to stop - 1 do
      let c = st.src.[i] in
      let d =
        if is_digit c then Char.code c - Char.code '0'
        else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
      in
      v := (!v * base) + d
    done;
    skip_to st stop;
    !v
  in
  let c = peek st in
  if is_octal_digit c then
    digits_value 8 (min (scan_while st is_octal_digit st.pos) (st.pos + 3))
  else if c = 'x' && is_hex_digit (peek2 st) then begin
    ignore (advance st);
    digits_value 16 (scan_while st is_hex_digit st.pos)
  end
  else escape_value st at (advance st)

let lex_char_or_string st at quote =
  let start = st.pos in
  ignore (advance st);
  let cooked = Buffer.create 8 in
  let rec go () =
    if at_end st || peek st = '\n' then
      (* unterminated literal: record and close it at the line break so
         lexing resumes on the next line *)
      Diag.error st.diags at "unterminated %s literal"
        (if quote = '"' then "string" else "character")
    else
      let c = advance st in
      if c = quote then ()
      else if c = '\\' then begin
        if at_end st then Diag.error st.diags at "unterminated escape"
        else begin
          Buffer.add_char cooked (Char.chr (lex_escape st at land 0xff));
          go ()
        end
      end
      else begin
        Buffer.add_char cooked c;
        go ()
      end
  in
  go ();
  let spelling = String.sub st.src start (st.pos - start) in
  let v = Buffer.contents cooked in
  if quote = '"' then Token.StringLit (spelling, v)
  else
    let code = if String.length v = 0 then 0 else Char.code v.[0] in
    Token.CharLit (spelling, code)

(* The punctuators that start with each character, longest first (the
   order of Token.punctuators), as shared [Punct] tokens: the first entry
   that matches at the cursor is the maximal munch. *)
let punct_table : (string * Token.t) list array =
  let t = Array.make 256 [] in
  List.iter
    (fun p ->
      let c = Char.code p.[0] in
      t.(c) <- t.(c) @ [ (p, Token.Punct p) ])
    Token.punctuators;
  t

(* [p] is at the cursor; its first character already is. *)
let punct_at st p =
  let n = String.length p in
  st.pos + n <= String.length st.src
  &&
  let rec eq i = i >= n || (st.src.[st.pos + i] = p.[i] && eq (i + 1)) in
  eq 1

let lex_punct st at =
  let rec try_puncts = function
    | [] ->
        let c = advance st in
        Diag.error st.diags at "stray character '%c' in program" c;
        Token.Punct (String.make 1 c)
    | (p, tok) :: rest ->
        if punct_at st p then begin
          skip_to st (st.pos + String.length p);
          tok
        end
        else try_puncts rest
  in
  try_puncts punct_table.(Char.code (peek st))

(** Lex one token; returns [Eof] at end of input. *)
let next st : Token.tok =
  st.space <- false;
  skip_trivia st;
  let bol = st.bol in
  let space = st.space in
  let tloc = loc st in
  if at_end st then { tok = Eof; loc = tloc; bol; space }
  else begin
    st.bol <- false;
    let c = peek st in
    let tok =
      if is_ident_start c then lex_ident st
      else if is_digit c then lex_number st tloc
      else if c = '.' && is_digit (peek2 st) then lex_number st tloc
      else if c = '"' then lex_char_or_string st tloc '"'
      else if c = '\'' then lex_char_or_string st tloc '\''
      else lex_punct st tloc
    in
    { tok; loc = tloc; bol; space }
  end

(** The tokens after offset [pos] of [src] on its logical line, and the
    offset where the trivia before the next line's first token begins
    (or the end of [src]). *)
let rest_of_line ~diags src pos =
  let st = create ~diags ~file:"" src in
  st.pos <- pos;
  st.bol <- false;
  let rec go acc =
    let stop = st.pos in
    let t = next st in
    if t.tok = Token.Eof || t.bol then (List.rev acc, stop) else go (t :: acc)
  in
  go []

(** Clean lexes shared by the units of one build, keyed by path and
    bytes, under [lock].  A file's tokens are kept on its second request
    ([None] marks the first), so the units after that hold the same token
    records for it, which {!Pdt_parse.Parser}'s prefix memo recognises,
    and a header that only one unit includes costs the memo its key. *)
type memo = {
  lock : Mutex.t;
  lexes : (string * string, Token.tok list option) Hashtbl.t;
}

let memo ~lock = { lock; lexes = Hashtbl.create 16 }

(** Lex an entire file to a token list (without the trailing [Eof]).
    With [memo], a file lexed and kept before under the same path with
    the same bytes gets that lex's tokens back.  A lex that recorded a
    diagnostic is never kept, so a hit has none to replay. *)
let tokenize ?memo ~diags ~file src =
  let lex () =
    let st = create ~diags ~file src in
    let rec loop acc =
      let t = next st in
      match t.tok with Token.Eof -> List.rev acc | _ -> loop (t :: acc)
    in
    loop []
  in
  let go () =
    match memo with
    | None -> lex ()
    | Some m -> (
        let key = (file, src) in
        let sighting () =
          let kept = Hashtbl.find_opt m.lexes key in
          if Option.is_none kept then Hashtbl.add m.lexes key None;
          kept
        in
        match Mutex.protect m.lock sighting with
        | Some (Some toks) ->
            Pdt_util.Trace.count ~cat:"lex" "lex.memo_hit" 0;
            toks
        | None -> lex ()
        | Some None ->
            let before = diags.Diag.diags in
            let toks = lex () in
            if diags.Diag.diags != before then toks
            else
              (* a domain that lexed the same file meanwhile kept its lex
                 first: share its records *)
              Mutex.protect m.lock (fun () ->
                  match Hashtbl.find m.lexes key with
                  | Some first -> first
                  | None ->
                      Hashtbl.replace m.lexes key (Some toks);
                      toks))
  in
  if Pdt_util.Trace.on () then
    Pdt_util.Trace.span ~cat:"lex"
      ~args:[ ("file", Pdt_util.Trace.Str file) ]
      "lex.tokenize" go
  else go ()
