(** Minimal JSON: printing, escaping, and a strict parser.

    The toolchain has no JSON dependency, and pulling one in for a trace
    exporter would be out of proportion — the trace_event format uses a
    small JSON subset (objects, arrays, strings, numbers, booleans).  The
    Chrome-trace printer lives with {!Trace}; this module owns escaping, a
    generic printer ({!to_string}, used by the pdbd wire protocol), and a
    strict recursive-descent parser used by [tracecheck], the trace
    well-formedness tests, and the pdbd request decoder.

    Since pdbd, this parser sits on a trust boundary: every byte a daemon
    client sends goes through {!parse}.  Hence the strictness guarantees:
    \uXXXX escapes take exactly four hex digits (no OCaml int-literal
    leniency), surrogate pairs combine into the astral code point and lone
    surrogates are rejected rather than emitted as invalid UTF-8, raw
    control characters report their real offset, and nesting depth is
    bounded ({!default_max_depth}) so a ["[[[[..."] bomb fails with
    [Error] instead of a stack overflow. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Append [s] to [b] as a JSON string literal, with escaping. *)
let escape_to (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  escape_to b s;
  Buffer.contents b

(* --- parsing ------------------------------------------------------- *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let fail c msg = raise (Bad (Printf.sprintf "%s at offset %d" msg c.pos))

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let parse_literal c lit value =
  let n = String.length lit in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = lit then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" lit)

(* Exactly four hex digits — int_of_string would also admit OCaml
   literal syntax like "1_23" or a sign, which is not JSON. *)
let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let parse_hex4 c =
  if c.pos + 4 > String.length c.src then fail c "bad \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d = hex_digit c.src.[c.pos + i] in
    if d < 0 then fail c "bad \\u escape (need 4 hex digits)";
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_raw c : string =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.src then fail c "unterminated string";
    let ch = c.src.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents b
    | '\\' -> (
        if c.pos >= String.length c.src then fail c "unterminated escape";
        let e = c.src.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' -> Buffer.add_char b '"'; loop ()
        | '\\' -> Buffer.add_char b '\\'; loop ()
        | '/' -> Buffer.add_char b '/'; loop ()
        | 'n' -> Buffer.add_char b '\n'; loop ()
        | 'r' -> Buffer.add_char b '\r'; loop ()
        | 't' -> Buffer.add_char b '\t'; loop ()
        | 'b' -> Buffer.add_char b '\b'; loop ()
        | 'f' -> Buffer.add_char b '\012'; loop ()
        | 'u' ->
            let code = parse_hex4 c in
            if code >= 0xDC00 && code <= 0xDFFF then
              fail c "lone low surrogate"
            else if code >= 0xD800 && code <= 0xDBFF then begin
              (* a high surrogate must be followed by \uDC00–\uDFFF; the
                 pair combines into one astral code point (UTF-8, 4 bytes) *)
              if
                c.pos + 2 > String.length c.src
                || c.src.[c.pos] <> '\\'
                || c.src.[c.pos + 1] <> 'u'
              then fail c "lone high surrogate";
              c.pos <- c.pos + 2;
              let low = parse_hex4 c in
              if low < 0xDC00 || low > 0xDFFF then
                fail c "high surrogate not followed by low surrogate";
              add_utf8 b
                (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
            end
            else add_utf8 b code;
            loop ()
        | _ -> fail c "bad escape")
    | ch when Char.code ch < 0x20 ->
        c.pos <- c.pos - 1;
        fail c "raw control char in string"
    | ch -> Buffer.add_char b ch; loop ()
  in
  loop ()

let parse_number c : float =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.src && is_num_char c.src.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail c (Printf.sprintf "bad number %S" s)

(** Containers deeper than this fail to parse.  Nothing legitimate — a
    trace file, a pdbd request — nests anywhere near this deep, while an
    unbounded recursive descent would let one malicious line of brackets
    overflow the stack. *)
let default_max_depth = 512

let rec parse_value c depth : t =
  if depth <= 0 then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string_raw c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c (depth - 1) in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; members ((key, v) :: acc)
          | Some '}' -> c.pos <- c.pos + 1; List.rev ((key, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value c (depth - 1) in
          skip_ws c;
          match peek c with
          | Some ',' -> c.pos <- c.pos + 1; elems (v :: acc)
          | Some ']' -> c.pos <- c.pos + 1; List.rev ((v :: acc))
          | _ -> fail c "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> Num (parse_number c)

(** Parse a complete JSON document; trailing whitespace only. *)
let parse ?(max_depth = default_max_depth) (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match parse_value c max_depth with
  | v ->
      skip_ws c;
      if c.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
  | exception Bad msg -> Error msg

(* --- printing ------------------------------------------------------ *)

(** Shortest decimal form that parses back to exactly [f]; integral
    values (the common case: ids, counts, generations) print with no
    fractional part, so wire replies and goldens stay stable. *)
let num_to_string (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write_to (b : Buffer.t) (j : t) : unit =
  match j with
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s -> escape_to b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write_to b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_to b k;
          Buffer.add_char b ':';
          write_to b v)
        kvs;
      Buffer.add_char b '}'

(** One-line canonical rendering: keys in construction order, no
    whitespace.  [parse (to_string v)] returns [Ok v] for any value whose
    numbers round-trip (all of ours do). *)
let to_string (j : t) : string =
  let b = Buffer.create 256 in
  write_to b j;
  Buffer.contents b

(* --- accessors (total, for validators) ----------------------------- *)

let member (key : string) (j : t) : t option =
  match j with Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_num_opt = function Num f -> Some f | _ -> None
