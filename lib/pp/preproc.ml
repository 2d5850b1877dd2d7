(** C++ preprocessor.

    Consumes raw token streams (from [Pdt_lex.Lexer]) and produces the
    translation unit's expanded token stream, plus the two pieces of
    compile-time information the PDB reports about preprocessing:

    - the source-file inclusion relation ([so#] items with [sinc] lines), and
    - the table of macro definitions ([ma#] items).

    Supported directives: [#include], [#define] (object- and function-like,
    with [#] stringification and [##] pasting; variadic parameter lists are
    accepted but [__VA_ARGS__] is not expanded — extra arguments are
    dropped), [#undef], [#ifdef],
    [#ifndef], [#if]/[#elif]/[#else]/[#endif] with a full constant-expression
    evaluator, [#error], [#pragma once], and [#line] (ignored except for
    validation).  Macro re-expansion is prevented with hide sets. *)

open Pdt_util
open Pdt_lex

module SS = Set.Make (String)

type macro_kind = Object_like | Function_like

type macro = {
  m_name : string;
  m_kind : macro_kind;
  m_params : string list;        (** empty for object-like *)
  m_variadic : bool;
  m_body : Token.tok list;
  m_loc : Srcloc.t;
  m_text : string;               (** definition text, for the PDB [mtext] *)
}

(** One source file as seen by this compilation. *)
type file_record = {
  f_path : string;
  mutable f_includes : string list;  (** resolved paths, in inclusion order *)
}

type t = {
  vfs : Vfs.t;
  diags : Diag.engine;
  limits : Limits.t;
  macros : (string, macro) Hashtbl.t;
  mutable macro_log : macro list;          (* every definition, in order *)
  files : (string, file_record) Hashtbl.t;
  mutable file_order : string list;        (* first-seen order, reversed *)
  mutable pragma_once : SS.t;
  mutable include_stack : string list;
  mutable out : Token.tok list;            (* reversed output *)
  mutable reported_limits : SS.t;          (* budget breaches already recorded *)
  mutable depth_exceeded : bool;           (* an #include was skipped because
                                              the nesting budget was hit: the
                                              include cone is truncated *)
  memo : Lexer.memo option;                (* the build's lexes of headers *)
}

let create ?(predefined = []) ?(limits = Limits.default ()) ?memo ~vfs ~diags ()
    =
  let t =
    { vfs; diags; limits; macros = Hashtbl.create 64; macro_log = [];
      files = Hashtbl.create 16; file_order = []; pragma_once = SS.empty;
      include_stack = []; out = []; reported_limits = SS.empty;
      depth_exceeded = false; memo }
  in
  List.iter
    (fun (name, text) ->
      let body = Lexer.tokenize ~diags ~file:"<predefined>" text in
      let m =
        { m_name = name; m_kind = Object_like; m_params = []; m_variadic = false;
          m_body = body; m_loc = Srcloc.dummy; m_text = text }
      in
      Hashtbl.replace t.macros name m)
    predefined;
  t

(* Record a budget breach as a Fatal diagnostic, once per distinct limit —
   the construct that tripped it is abandoned, the TU keeps going. *)
let report_limit t loc e =
  let msg = Limits.describe e in
  if not (SS.mem msg t.reported_limits) then begin
    t.reported_limits <- SS.add msg t.reported_limits;
    Diag.fatal_note t.diags loc "%s" msg
  end

let file_record t path =
  match Hashtbl.find_opt t.files path with
  | Some r -> r
  | None ->
      let r = { f_path = path; f_includes = [] } in
      Hashtbl.replace t.files path r;
      t.file_order <- path :: t.file_order;
      r

(* ------------------------------------------------------------------ *)
(* Logical lines                                                       *)
(* ------------------------------------------------------------------ *)

(* Split a file's token list into logical lines: a directive line (starting
   with '#' at beginning of line) or a run of ordinary tokens up to the next
   bol-'#'. *)

type line =
  | Directive of Srcloc.t * Token.tok list  (* tokens after '#', same line *)
  | Text of Token.tok list

let split_lines toks =
  let rec go acc cur = function
    | [] ->
        let acc = if cur = [] then acc else Text (List.rev cur) :: acc in
        List.rev acc
    | (tk : Token.tok) :: rest when tk.bol && tk.tok = Token.Punct "#" ->
        let acc = if cur = [] then acc else Text (List.rev cur) :: acc in
        (* absorb tokens until the next bol token *)
        let rec take dts = function
          | (d : Token.tok) :: r when not d.bol -> take (d :: dts) r
          | r -> (List.rev dts, r)
        in
        let dtoks, rest = take [] rest in
        go (Directive (tk.loc, dtoks) :: acc) [] rest
    | tk :: rest -> go acc (tk :: cur) rest
  in
  go [] [] toks

(* The file an [#include] followed by [toks] names, and whether it is a
   system include: ["x"], or [<x>] reassembled from its tokens'
   spellings; [None] when malformed. *)
let include_target (toks : Token.tok list) : (string * bool) option =
  match toks with
  | [ { tok = Token.StringLit (_, f); _ } ] -> Some (f, false)
  | { tok = Token.Punct "<"; _ } :: r ->
      let rec gather acc = function
        | { Token.tok = Token.Punct ">"; _ } :: _ ->
            Some (String.concat "" (List.rev acc), true)
        | tk :: r -> gather (Token.spelling tk.Token.tok :: acc) r
        | [] -> None
      in
      gather [] r
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Macro expansion                                                     *)
(* ------------------------------------------------------------------ *)

(* A pending token: a token plus the set of macro names that must not be
   re-expanded within it (hide set). *)
type ptok = { p : Token.tok; hide : SS.t }

let ptoks_of_toks toks = List.map (fun p -> { p; hide = SS.empty }) toks
let toks_of_ptoks ptoks = List.map (fun x -> x.p) ptoks

let stringize_arg (arg : ptok list) loc : Token.tok =
  let text = Token.text_of_toks (toks_of_ptoks arg) in
  let spelling = "\"" ^ String.concat "\\\"" (String.split_on_char '"' text) ^ "\"" in
  { tok = Token.StringLit (spelling, text); loc; bol = false; space = true }

let paste_tokens t (a : Token.tok) (b : Token.tok) : Token.tok =
  let s = Token.spelling a.tok ^ Token.spelling b.tok in
  match Lexer.tokenize ~diags:t.diags ~file:a.loc.Srcloc.file s with
  | [ one ] -> { one with loc = a.loc; bol = false; space = a.space }
  | _ ->
      Diag.error t.diags a.loc "pasting '%s' and '%s' does not give a valid token"
        (Token.spelling a.tok) (Token.spelling b.tok);
      a

(* To the preprocessor a keyword is an identifier: [#define inline] names
   a macro like any other. *)
let names_macro t (tk : Token.tok) =
  match tk.tok with
  | Token.Ident n | Token.Kw n -> Hashtbl.mem t.macros n
  | _ -> false

(* Expand [input] fully.  [expanding] is the lexical hide context. *)
let rec expand t (input : ptok list) : ptok list =
  let rec go acc = function
    | [] -> List.rev acc
    | ({ p = { tok = Token.Ident name | Token.Kw name; _ }; hide } as x) :: rest
      when (not (SS.mem name hide)) && Hashtbl.mem t.macros name -> (
        let m = Hashtbl.find t.macros name in
        match m.m_kind with
        | Object_like ->
            let body = substitute t m [] x.p.loc (SS.add name hide) in
            go acc (body @ rest)
        | Function_like -> (
            match rest with
            | { p = { tok = Token.Punct "("; _ }; _ } :: _ -> (
                match collect_args t rest with
                | None ->
                    (* unterminated: treat as plain identifier *)
                    go (x :: acc) rest
                | Some (args, rest') ->
                    let nargs = List.length args in
                    let nparams = List.length m.m_params in
                    let ok =
                      if m.m_variadic then nargs >= nparams
                      else
                        nargs = nparams
                        || (nparams = 1 && nargs = 0) (* f() with one param: empty arg *)
                    in
                    if not ok then begin
                      Diag.error t.diags x.p.loc
                        "macro '%s' expects %d argument(s), got %d" name nparams
                        nargs;
                      go (x :: acc) rest'
                    end
                    else
                      let args =
                        if nparams = 1 && nargs = 0 then [ [] ] else args
                      in
                      let body =
                        substitute t m args x.p.loc (SS.add name hide)
                      in
                      go acc (body @ rest'))
            | _ -> go (x :: acc) rest))
    | x :: rest -> go (x :: acc) rest
  in
  go [] input

(* Collect macro call arguments: input starts at '('. *)
and collect_args t input : (ptok list list * ptok list) option =
  ignore t;
  match input with
  | { p = { tok = Token.Punct "("; _ }; _ } :: rest ->
      let rec go depth cur args = function
        | [] -> None
        | ({ p = { tok = Token.Punct "("; _ }; _ } as x) :: r ->
            go (depth + 1) (x :: cur) args r
        | { p = { tok = Token.Punct ")"; _ }; _ } :: r when depth = 0 ->
            let args = List.rev (List.rev cur :: args) in
            let args = match args with [ [] ] -> [] | a -> a in
            Some (args, r)
        | ({ p = { tok = Token.Punct ")"; _ }; _ } as x) :: r ->
            go (depth - 1) (x :: cur) args r
        | { p = { tok = Token.Punct ","; _ }; _ } :: r when depth = 0 ->
            go depth [] (List.rev cur :: args) r
        | x :: r -> go depth (x :: cur) args r
      in
      go 0 [] [] rest
  | _ -> None

(* Substitute arguments into a macro body, handle # and ##, then rescan.
   This is where expansion recurses and where token amplification happens,
   so both the macro-depth and per-TU token budgets are charged here: a
   depth breach abandons just this expansion (the name stays unexpanded
   upstream); a token-count breach aborts preprocessing via {!Limits.Exceeded},
   caught in {!run}. *)
and substitute t m (args : ptok list list) call_loc hide : ptok list =
  match Limits.enter_macro t.limits with
  | exception (Limits.Exceeded _ as e) ->
      report_limit t call_loc e;
      []
  | () ->
      Fun.protect ~finally:(fun () -> Limits.exit_macro t.limits) @@ fun () ->
      substitute_body t m args call_loc hide

and substitute_body t m (args : ptok list list) call_loc hide : ptok list =
  let param_index p =
    let rec idx i = function
      | [] -> None
      | q :: _ when String.equal p q -> Some i
      | _ :: r -> idx (i + 1) r
    in
    idx 0 m.m_params
  in
  let arg_for p =
    match param_index p with
    | Some i when i < List.length args -> Some (List.nth args i)
    | _ -> None
  in
  (* Pass 1: parameter replacement with # handling; produce a token list with
     arguments spliced in (arguments are pre-expanded except next to ##/#). *)
  let retok (tk : Token.tok) = { tk with loc = call_loc } in
  let rec subst acc = function
    | [] -> List.rev acc
    | ({ Token.tok = Token.Punct "#"; _ } as h) :: ({ Token.tok = Token.Ident p; _ }) :: rest
      when arg_for p <> None ->
        let arg = Option.get (arg_for p) in
        subst ({ p = stringize_arg arg (retok h).loc; hide } :: acc) rest
    | a :: { Token.tok = Token.Punct "##"; _ } :: b :: rest ->
        (* paste: resolve both sides without pre-expansion *)
        let side (tk : Token.tok) : ptok list =
          match tk.tok with
          | Token.Ident p when arg_for p <> None -> Option.get (arg_for p)
          | _ -> [ { p = retok tk; hide } ]
        in
        let left = side a in
        let right = side b in
        let pasted =
          match (List.rev left, right) with
          | [], r -> r
          | lrev, [] -> List.rev lrev
          | lx :: lrev, rx :: rr ->
              let joined = paste_tokens t lx.p rx.p in
              List.rev lrev @ ({ p = joined; hide } :: rr)
        in
        subst (List.rev_append pasted acc) rest
    | { Token.tok = Token.Ident p; _ } :: rest when arg_for p <> None ->
        let arg = Option.get (arg_for p) in
        let expanded = expand t arg in
        subst (List.rev_append expanded acc) rest
    | tk :: rest -> subst ({ p = retok tk; hide } :: acc) rest
  in
  let substituted = subst [] m.m_body in
  Limits.count_tokens t.limits (List.length substituted);
  (* Pass 2: rescan with the macro name hidden. *)
  expand t (List.map (fun x -> { x with hide = SS.union x.hide hide }) substituted)

(* ------------------------------------------------------------------ *)
(* #if expression evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* Replace defined(X)/defined X before macro expansion, then expand, then
   treat remaining identifiers as 0, and evaluate. *)
let eval_condition t loc (toks : Token.tok list) : bool =
  let rec replace_defined acc = function
    | [] -> List.rev acc
    | { Token.tok = Token.Ident "defined"; _ } :: rest -> (
        let mk v (l : Token.tok) =
          { l with Token.tok = Token.IntLit ((if v then "1" else "0"), if v then 1L else 0L) }
        in
        match rest with
        | ({ Token.tok = Token.Punct "("; _ })
          :: ({ Token.tok = Token.Ident n | Token.Kw n; _ } as idt)
          :: ({ Token.tok = Token.Punct ")"; _ }) :: r ->
            replace_defined (mk (Hashtbl.mem t.macros n) idt :: acc) r
        | ({ Token.tok = Token.Ident n | Token.Kw n; _ } as idt) :: r ->
            replace_defined (mk (Hashtbl.mem t.macros n) idt :: acc) r
        | _ ->
            Diag.error t.diags loc "malformed 'defined' operator";
            replace_defined acc rest)
    | tk :: rest -> replace_defined (tk :: acc) rest
  in
  let toks = replace_defined [] toks in
  let toks = toks_of_ptoks (expand t (ptoks_of_toks toks)) in
  (* Pratt parser over int64 *)
  let input = ref toks in
  let peek () = match !input with [] -> None | x :: _ -> Some x.Token.tok in
  let next () =
    match !input with
    | [] -> None
    | x :: r ->
        input := r;
        Some x.Token.tok
  in
  let expect_rparen () =
    match next () with
    | Some (Token.Punct ")") -> ()
    | _ -> Diag.error t.diags loc "expected ')' in #if expression"
  in
  let rec primary () : int64 =
    match next () with
    | Some (Token.IntLit (_, v)) -> v
    | Some (Token.CharLit (_, c)) -> Int64.of_int c
    | Some (Token.Kw "true") -> 1L
    | Some (Token.Kw "false") -> 0L
    | Some (Token.Ident _) -> 0L
    | Some (Token.Punct "(") ->
        let v = ternary () in
        expect_rparen ();
        v
    | Some (Token.Punct "!") -> if primary () = 0L then 1L else 0L
    | Some (Token.Punct "-") -> Int64.neg (primary ())
    | Some (Token.Punct "+") -> primary ()
    | Some (Token.Punct "~") -> Int64.lognot (primary ())
    | other ->
        Diag.error t.diags loc "bad token in #if expression%s"
          (match other with
           | Some tk -> ": " ^ Token.describe tk
           | None -> "");
        0L
  and binary min_prec =
    let prec = function
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
    in
    let apply op a b =
      let bool v = if v then 1L else 0L in
      match op with
      | "*" -> Int64.mul a b
      | "/" -> if b = 0L then 0L else Int64.div a b
      | "%" -> if b = 0L then 0L else Int64.rem a b
      | "+" -> Int64.add a b
      | "-" -> Int64.sub a b
      | "<<" -> Int64.shift_left a (Int64.to_int b)
      | ">>" -> Int64.shift_right a (Int64.to_int b)
      | "<" -> bool (a < b)
      | ">" -> bool (a > b)
      | "<=" -> bool (a <= b)
      | ">=" -> bool (a >= b)
      | "==" -> bool (a = b)
      | "!=" -> bool (a <> b)
      | "&" -> Int64.logand a b
      | "^" -> Int64.logxor a b
      | "|" -> Int64.logor a b
      | "&&" -> bool (a <> 0L && b <> 0L)
      | "||" -> bool (a <> 0L || b <> 0L)
      | _ -> 0L
    in
    let rec loop lhs =
      match peek () with
      | Some (Token.Punct op) when prec op >= min_prec && prec op > 0 ->
          ignore (next ());
          let rhs =
            let r = primary () in
            loop_rhs r (prec op)
          in
          loop (apply op lhs rhs)
      | _ -> lhs
    and loop_rhs rhs above =
      match peek () with
      | Some (Token.Punct op) when prec op > above ->
          ignore (next ());
          let r = primary () in
          loop_rhs (apply op rhs (loop_rhs r (prec op))) above
      | _ -> rhs
    in
    loop (primary ())
  and ternary () =
    let c = binary 1 in
    match peek () with
    | Some (Token.Punct "?") ->
        ignore (next ());
        let a = ternary () in
        (match next () with
         | Some (Token.Punct ":") -> ()
         | _ -> Diag.error t.diags loc "expected ':' in #if expression");
        let b = ternary () in
        if c <> 0L then a else b
    | _ -> c
  in
  ternary () <> 0L

(* ------------------------------------------------------------------ *)
(* Directive processing                                                *)
(* ------------------------------------------------------------------ *)

type cond_state = {
  mutable active : bool;        (* this branch is live *)
  mutable taken : bool;         (* some branch already taken *)
  parent_active : bool;
}

let define_macro t loc (dtoks : Token.tok list) =
  match dtoks with
  | { tok = Token.Ident name; _ } :: rest
  | { tok = Token.Kw name; _ } :: rest -> (
      let mk kind params variadic body =
        let text =
          let params_text =
            match kind with
            | Object_like -> ""
            | Function_like ->
                "(" ^ String.concat ", " (params @ if variadic then [ "..." ] else [])
                ^ ")"
          in
          String.trim (name ^ params_text ^ " " ^ Token.text_of_toks body)
        in
        let m =
          { m_name = name; m_kind = kind; m_params = params;
            m_variadic = variadic; m_body = body; m_loc = loc; m_text = text }
        in
        (match Hashtbl.find_opt t.macros name with
         | Some old when old.m_text <> m.m_text ->
             Diag.warn t.diags loc "macro '%s' redefined" name
         | _ -> ());
        Hashtbl.replace t.macros name m;
        t.macro_log <- m :: t.macro_log
      in
      match rest with
      | { tok = Token.Punct "("; space = false; _ } :: after_paren ->
          (* function-like: parse parameter list *)
          let rec params acc variadic = function
            | { Token.tok = Token.Punct ")"; _ } :: body ->
                Some (List.rev acc, variadic, body)
            | { Token.tok = Token.Ident p; _ } :: { Token.tok = Token.Punct ","; _ } :: r ->
                params (p :: acc) variadic r
            | { Token.tok = Token.Ident p; _ } :: ({ Token.tok = Token.Punct ")"; _ } :: _ as r) ->
                params (p :: acc) variadic r
            | { Token.tok = Token.Punct "..."; _ } :: ({ Token.tok = Token.Punct ")"; _ } :: _ as r) ->
                params acc true r
            | _ -> None
          in
          (match params [] false after_paren with
           | Some (ps, variadic, body) -> mk Function_like ps variadic body
           | None -> Diag.error t.diags loc "malformed macro parameter list")
      | body -> mk Object_like [] false body)
  | _ -> Diag.error t.diags loc "#define requires a macro name"

let rec process_file t path : unit =
  if List.length t.include_stack >= t.limits.Limits.budgets.Limits.max_include_depth
  then begin
    (* the skipped file's whole subtree is missing from this TU: flag the
       truncation so build caches never treat the unit as reusable *)
    t.depth_exceeded <- true;
    (* report the actual chain, innermost last — the stack holds it *)
    Diag.fatal_note t.diags Srcloc.dummy
      "#include nesting too deep (budget %d); include chain: %s"
      t.limits.Limits.budgets.Limits.max_include_depth
      (String.concat " -> " (List.rev (path :: t.include_stack)))
  end
  else if SS.mem path t.pragma_once then ()
  else begin
    let go () =
      ignore (file_record t path);
      match Vfs.read_raw t.vfs path with
      | None -> Diag.fatal t.diags Srcloc.dummy "cannot open source file %s" path
      | Some src ->
          (* only headers go through the memo: the unit's own file is
             lexed once per build anyway *)
          let memo = if t.include_stack = [] then None else t.memo in
          t.include_stack <- path :: t.include_stack;
          let toks = Lexer.tokenize ?memo ~diags:t.diags ~file:path src in
          let lines = split_lines toks in
          let conds : cond_state list ref = ref [] in
          let currently_active () =
            match !conds with [] -> true | c :: _ -> c.active
          in
          List.iter (fun line -> process_line t path conds currently_active line) lines;
          (match !conds with
           | [] -> ()
           | _ -> Diag.error t.diags Srcloc.dummy "unterminated #if in %s" path);
          t.include_stack <- List.tl t.include_stack
    in
    if Trace.on () then
      Trace.span ~cat:"pp" ~args:[ ("file", Trace.Str path) ] "pp.include" go
    else go ()
  end

and process_line t path conds currently_active line =
  match line with
  | Text toks ->
      if currently_active () then begin
        (* a line that names no macro is its own expansion *)
        let expanded =
          if List.exists (names_macro t) toks then
            toks_of_ptoks (expand t (ptoks_of_toks toks))
          else toks
        in
        Limits.count_tokens t.limits (List.length expanded);
        t.out <- List.rev_append expanded t.out
      end
  | Directive (loc, dtoks) -> (
      let name, rest =
        match dtoks with
        | { tok = Token.Ident n; _ } :: r -> (n, r)
        | { tok = Token.Kw n; _ } :: r -> (n, r)
        | { tok = Token.IntLit _; _ } :: _ -> ("line", [])  (* "# <n>" marker *)
        | [] -> ("", [])
        | d :: _ ->
            Diag.error t.diags loc "unknown preprocessing directive %s"
              (Token.describe d.tok);
            ("", [])
      in
      match name with
      | "ifdef" | "ifndef" ->
          let v =
            match rest with
            | { tok = Token.Ident n | Token.Kw n; _ } :: _ -> Hashtbl.mem t.macros n
            | _ ->
                Diag.error t.diags loc "#%s requires an identifier" name;
                false
          in
          let v = if name = "ifndef" then not v else v in
          let parent = currently_active () in
          conds := { active = parent && v; taken = v; parent_active = parent } :: !conds
      | "if" ->
          let parent = currently_active () in
          let v = if parent then eval_condition t loc rest else false in
          conds := { active = parent && v; taken = v; parent_active = parent } :: !conds
      | "elif" -> (
          match !conds with
          | [] -> Diag.error t.diags loc "#elif without #if"
          | c :: _ ->
              if c.taken then c.active <- false
              else begin
                let v = if c.parent_active then eval_condition t loc rest else false in
                c.active <- c.parent_active && v;
                c.taken <- v
              end)
      | "else" -> (
          match !conds with
          | [] -> Diag.error t.diags loc "#else without #if"
          | c :: _ ->
              c.active <- c.parent_active && not c.taken;
              c.taken <- true)
      | "endif" -> (
          match !conds with
          | [] -> Diag.error t.diags loc "#endif without #if"
          | _ :: r -> conds := r)
      | _ when not (currently_active ()) -> ()
      | "include" -> (
          match include_target rest with
          | None -> Diag.error t.diags loc "malformed #include"
          | Some (name, system) -> (
              match Vfs.resolve_include t.vfs ~from:path ~system name with
              | None ->
                  (* recoverable: the rest of the TU still compiles, minus
                     whatever the missing header would have declared *)
                  Diag.error t.diags loc "cannot find include file '%s'" name
              | Some resolved ->
                  let r = file_record t path in
                  r.f_includes <- r.f_includes @ [ resolved ];
                  process_file t resolved))
      | "define" -> define_macro t loc rest
      | "undef" -> (
          match rest with
          | { tok = Token.Ident n | Token.Kw n; _ } :: _ -> Hashtbl.remove t.macros n
          | _ -> Diag.error t.diags loc "#undef requires an identifier")
      | "error" ->
          (* recorded, not raised: keep preprocessing to surface further
             diagnostics from the same TU *)
          Diag.error t.diags loc "#error %s" (Token.text_of_toks rest)
      | "warning" ->
          Diag.warn t.diags loc "#warning %s" (Token.text_of_toks rest)
      | "pragma" -> (
          match rest with
          | { tok = Token.Ident "once"; _ } :: _ ->
              t.pragma_once <- SS.add path t.pragma_once
          | _ -> () (* other pragmas ignored *))
      | "line" | "" -> ()
      | other -> Diag.error t.diags loc "unknown preprocessing directive #%s" other)

(** Result of preprocessing one translation unit. *)
type result = {
  tokens : Token.tok list;          (** the expanded token stream *)
  source_files : file_record list;  (** in first-seen order; head = main file *)
  macros : macro list;              (** every definition, in definition order *)
  include_depth_exceeded : bool;
      (** an [#include] was skipped because the nesting budget was hit;
          the token stream covers a truncated include cone.  Build caches
          must treat such a unit as non-reusable: the missing subtree's
          files are invisible to any dependency fingerprint. *)
}

(* The only exception [run] lets escape is [Diag.Error] for an unreadable
   file (an I/O failure, surfaced by [Vfs.read_raw]) — user-input problems
   (lexical errors, missing includes, [#error], budget breaches) are
   recorded in [diags] and yield a partial token stream instead.  [memo]
   shares the build's header lexes ({!Lexer.tokenize}); every directive,
   read and budget charge still happens in this unit. *)
let run ?(predefined = []) ?limits ?memo ~vfs ~diags path : result =
  let limits = match limits with Some l -> l | None -> Limits.default () in
  let t = create ~predefined ~limits ?memo ~vfs ~diags () in
  (try process_file t path
   with Limits.Exceeded _ as e -> report_limit t Srcloc.dummy e);
  {
    tokens = List.rev t.out;
    source_files =
      List.rev_map (fun p -> Hashtbl.find t.files p) t.file_order;
    macros = List.rev t.macro_log;
    include_depth_exceeded = t.depth_exceeded;
  }
