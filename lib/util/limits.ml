(** Resource governor: configurable budgets for the front end.

    Pathological inputs — deeply nested expressions, runaway template
    instantiation, macro-expansion blowup, include cycles, preprocessor
    token explosions — must never turn into stack overflows or hangs.
    Every recursive or amplifying phase of the front end charges its work
    against a budget here; exceeding one raises {!Exceeded}, which the
    owning driver converts into a recorded [Fatal] diagnostic and a
    partial result (see {!Diag.fatal_note}).

    Budgets are per translation unit: create one {!t} per TU.  The
    defaults are far beyond anything legitimate code reaches, so well-formed
    programs never observe the governor. *)

type budgets = {
  max_include_depth : int;   (** nested [#include] chain length *)
  max_macro_depth : int;     (** nested macro-expansion depth *)
  max_tokens : int;          (** preprocessor output + expansion tokens per TU *)
  max_parse_depth : int;     (** parser recursion (nested exprs/stmts/types) *)
  max_instantiation_depth : int;  (** nested template instantiations *)
  max_errors : int;          (** parser error-recovery attempts per TU *)
}

let default_budgets =
  { max_include_depth = 64;
    max_macro_depth = 256;
    max_tokens = 5_000_000;
    max_parse_depth = 400;
    max_instantiation_depth = 128;
    max_errors = 64 }

exception Exceeded of { limit : string; budget : int }
(** [limit] is the human-readable budget name, e.g. "parser recursion
    depth"; [budget] its configured value. *)

type t = {
  budgets : budgets;
  mutable macro_depth : int;
  mutable tokens : int;
  mutable parse_depth : int;
  mutable inst_depth : int;
}

let create ?(budgets = default_budgets) () =
  { budgets; macro_depth = 0; tokens = 0; parse_depth = 0; inst_depth = 0 }

let default () = create ()

let exceeded name budget = raise (Exceeded { limit = name; budget })

let describe = function
  | Exceeded { limit; budget } ->
      Printf.sprintf "%s limit exceeded (budget %d)" limit budget
  | _ -> invalid_arg "Limits.describe"

(* -------- macro expansion -------- *)

let enter_macro l =
  l.macro_depth <- l.macro_depth + 1;
  if l.macro_depth > l.budgets.max_macro_depth then begin
    l.macro_depth <- l.macro_depth - 1;
    exceeded "macro expansion depth" l.budgets.max_macro_depth
  end

let exit_macro l = l.macro_depth <- l.macro_depth - 1

(* -------- per-TU token count (preprocessor output + expansions) -------- *)

let count_tokens l n =
  l.tokens <- l.tokens + n;
  if l.tokens > l.budgets.max_tokens then
    exceeded "per-TU token count" l.budgets.max_tokens

(* -------- parser recursion -------- *)

let enter_parse l =
  l.parse_depth <- l.parse_depth + 1;
  if l.parse_depth > l.budgets.max_parse_depth then begin
    l.parse_depth <- l.parse_depth - 1;
    exceeded "parser recursion depth" l.budgets.max_parse_depth
  end

let exit_parse l = l.parse_depth <- l.parse_depth - 1

(* -------- template instantiation -------- *)

let enter_instantiation l =
  l.inst_depth <- l.inst_depth + 1;
  if l.inst_depth > l.budgets.max_instantiation_depth then begin
    l.inst_depth <- l.inst_depth - 1;
    exceeded "template instantiation depth" l.budgets.max_instantiation_depth
  end

let exit_instantiation l = l.inst_depth <- l.inst_depth - 1

(* -------- CLI support: "name=value" budget overrides -------- *)

let budget_names =
  [ "include-depth"; "macro-depth"; "tokens"; "parse-depth";
    "instantiation-depth"; "errors" ]

(** Apply a ["name=value"] override (the [--limit] CLI flag syntax).
    Returns [Error msg] on an unknown name or a malformed value. *)
let set_budget (b : budgets) (spec : string) : (budgets, string) result =
  match String.index_opt spec '=' with
  | None -> Result.Error (Printf.sprintf "malformed limit '%s' (want name=value)" spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let value = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt value with
      | None -> Result.Error (Printf.sprintf "limit '%s': '%s' is not an integer" name value)
      | Some n when n < 1 -> Result.Error (Printf.sprintf "limit '%s': value must be positive" name)
      | Some n -> (
          match name with
          | "include-depth" -> Ok { b with max_include_depth = n }
          | "macro-depth" -> Ok { b with max_macro_depth = n }
          | "tokens" -> Ok { b with max_tokens = n }
          | "parse-depth" -> Ok { b with max_parse_depth = n }
          | "instantiation-depth" -> Ok { b with max_instantiation_depth = n }
          | "errors" -> Ok { b with max_errors = n }
          | _ ->
              Result.Error
                (Printf.sprintf "unknown limit '%s' (known: %s)" name
                   (String.concat ", " budget_names))))

(** The budgets [pdtc]'s and [pdbbuild]'s [--max-errors N] and repeated
    [--limit name=value] flags ask for: the defaults, then [max_errors],
    then each override in order.  [Error msg] names the first bad one. *)
let of_flags ?max_errors (specs : string list) : (budgets, string) result =
  let b =
    match max_errors with
    | Some n -> { default_budgets with max_errors = n }
    | None -> default_budgets
  in
  List.fold_left (fun b spec -> Result.bind b (fun b -> set_budget b spec)) (Ok b) specs
