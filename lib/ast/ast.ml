(** Abstract syntax for the C++ subset accepted by PDT's front end.

    The AST deliberately stays close to the surface syntax: semantic analysis
    ([pdt_sema]) elaborates it into the IL, resolving names, types, overloads
    and template instantiations.  Every node carries the source location the
    PDB will eventually report. *)

open Pdt_util

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

(** One component of a possibly-qualified name, e.g. [Stack<int>] in
    [N::Stack<int>::push].  [targs = Some []] means an explicit empty
    argument list [name<>]. *)
type name_part = { id : string; targs : template_arg list option }

(** A (possibly) qualified name.  [global] is true for [::name]. *)
and qual_name = { global : bool; parts : name_part list }

and template_arg = TA_type of type_expr | TA_expr of expr

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

and builtin = {
  base : [ `Void | `Bool | `Char | `Wchar | `Int | `Float | `Double ];
  signedness : [ `Signed | `Unsigned ] option;
  length : [ `Short | `Long | `LongLong ] option;
}

and type_expr =
  | TName of qual_name        (** class / enum / typedef / template-id *)
  | TBuiltin of builtin
  | TPtr of type_expr
  | TRef of type_expr
  | TConst of type_expr
  | TVolatile of type_expr
  | TArray of type_expr * expr option
  | TFunc of type_expr * param list * bool  (** return, params, variadic *)

and param = {
  pname : string option;
  ptype : type_expr;
  pdefault : expr option;
  ploc : Srcloc.t;
}

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and expr = { e : expr_kind; eloc : Srcloc.t }

and expr_kind =
  | IntE of int64
  | FloatE of float
  | CharE of int
  | StringE of string
  | BoolE of bool
  | IdE of qual_name
  | ThisE
  | Unary of string * expr              (** prefix: ! ~ - + * & ++ -- *)
  | Postfix of string * expr            (** e++ e-- *)
  | Binary of string * expr * expr
  | Assign of string * expr * expr      (** = += -= *= /= %= &= |= ^= <<= >>= *)
  | Cond of expr * expr * expr
  | Call of expr * expr list
  | Member of expr * bool * qual_name   (** object, arrow?, member name *)
  | Index of expr * expr
  | CCast of type_expr * expr           (** (T)e *)
  | NamedCast of string * type_expr * expr  (** static_cast<T>(e) etc. *)
  | Construct of type_expr * expr list  (** T(args): functional cast / ctor *)
  | New of type_expr * expr list option * expr option (** type, ctor args, array size *)
  | Delete of bool * expr               (** array?, operand *)
  | SizeofE of expr
  | SizeofT of type_expr
  | ThrowE of expr option
  | Comma of expr * expr

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and stmt = { s : stmt_kind; sloc : Srcloc.t }

and stmt_kind =
  | SExpr of expr option
  | SDecl of var_decl list
  | SCompound of stmt list
  | SIf of expr * stmt * stmt option
  | SWhile of expr * stmt
  | SDoWhile of stmt * expr
  | SFor of stmt option * expr option * expr option * stmt
  | SReturn of expr option
  | SBreak
  | SContinue
  | SSwitch of expr * switch_case list
  | STry of stmt * handler list
  | SSpawn of expr
      (** [spawn f(args);] — run the call concurrently (threads extension) *)
  | SJoin of qual_name option
      (** [join;] waits for every outstanding spawn, [join f;] for the
          threads running [f] *)

and switch_case = { case_guard : expr option; case_body : stmt list }
(** [case_guard = None] is the [default:] label. *)

and handler = { h_param : param option; h_body : stmt }
(** [h_param = None] is [catch (...)]. *)

and var_decl = {
  v_name : string;
  v_type : type_expr;
  v_init : var_init;
  v_loc : Srcloc.t;
  v_storage : storage;
}

and var_init =
  | NoInit
  | EqInit of expr         (** T x = e; *)
  | CtorInit of expr list  (** T x(e1, e2); *)

and storage = { st_static : bool; st_extern : bool; st_mutable : bool; st_register : bool }

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

and access = Public | Protected | Private

and class_key = Class_key | Struct_key | Union_key

and base_spec = {
  b_access : access option;
  b_virtual : bool;
  b_name : qual_name;
  b_loc : Srcloc.t;
}

and class_def = {
  c_key : class_key;
  c_name : name_part option;    (** None for anonymous *)
  c_bases : base_spec list;
  c_members : decl list;
  c_header : Srcloc.range;      (** the "class Name : bases" part *)
  c_body : Srcloc.range option; (** braces extent; None = forward decl *)
}

and fn_quals = {
  q_const : bool;
  q_virtual : bool;
  q_static : bool;
  q_inline : bool;
  q_explicit : bool;
  q_extern : bool;
  q_pure : bool;                 (** = 0 *)
}

and func_kind = Fk_normal | Fk_ctor | Fk_dtor | Fk_conversion | Fk_operator of string

and func_def = {
  f_name : qual_name;            (** possibly qualified, for out-of-line defs *)
  f_kind : func_kind;
  f_ret : type_expr option;      (** None for ctor / dtor / conversion *)
  f_params : param list;
  f_variadic : bool;
  f_quals : fn_quals;
  f_inits : (string * expr list) list;  (** ctor mem-initializers *)
  f_throw : type_expr list option;      (** exception specification *)
  f_body : stmt option;
  f_header : Srcloc.range;
  f_body_range : Srcloc.range option;
}

and tparam =
  | TP_type of string * type_expr option         (** class T = D *)
  | TP_nontype of type_expr * string * expr option (** int N = e *)
  | TP_template of string                         (** template<...> class T *)

and decl = { d : decl_kind; dloc : Srcloc.t }

and decl_kind =
  | DNamespace of string option * decl list * Srcloc.range
  | DClass of class_def
  | DEnum of string option * (string * expr option * Srcloc.t) list
  | DTypedef of type_expr * string
  | DFunction of func_def
  | DVar of var_decl
  | DTemplate of tparam list * decl * string  (** params, pattern, source text *)
  | DUsing of qual_name * bool                (** name, is-namespace? *)
  | DAccess of access
  | DFriend of decl
  | DExplicitInst of decl                     (** template class Stack<int>; *)
  | DEmpty

type translation_unit = { tu_file : string; tu_decls : decl list }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let no_storage =
  { st_static = false; st_extern = false; st_mutable = false; st_register = false }

let no_quals =
  { q_const = false; q_virtual = false; q_static = false; q_inline = false;
    q_explicit = false; q_extern = false; q_pure = false }

let simple_name id = { global = false; parts = [ { id; targs = None } ] }

let last_part (q : qual_name) : name_part =
  match List.rev q.parts with
  | [] -> invalid_arg "Ast.last_part: empty qualified name"
  | p :: _ -> p

let builtin ?signedness ?length base = TBuiltin { base; signedness; length }

(** Strip top-level cv-qualifiers. *)
let rec unqual = function
  | TConst t | TVolatile t -> unqual t
  | t -> t

(** The canonical spelling of a builtin type, the one the IL names it by:
    the redundant "int" dropped ("long", "unsigned short"). *)
let builtin_name (b : builtin) : string =
  let prefix =
    (match b.signedness with
     | Some `Unsigned -> "unsigned "
     | Some `Signed -> "signed "
     | None -> "")
    ^ (match b.length with
       | Some `Short -> "short "
       | Some `Long -> "long "
       | Some `LongLong -> "long long "
       | None -> "")
  in
  match b.base with
  | `Void -> "void" | `Bool -> "bool" | `Wchar -> "wchar_t" | `Float -> "float"
  | `Char -> prefix ^ "char" | `Double -> prefix ^ "double"
  | `Int -> if prefix = "" then "int" else String.sub prefix 0 (String.length prefix - 1)

let rec pp_builtin ppf (b : builtin) = Fmt.string ppf (builtin_name b)

and pp_qual_name ppf (q : qual_name) =
  if q.global then Fmt.string ppf "::";
  Fmt.list ~sep:(Fmt.any "::") pp_name_part ppf q.parts

and pp_name_part ppf (p : name_part) =
  Fmt.string ppf p.id;
  match p.targs with
  | None -> ()
  | Some args ->
      Fmt.pf ppf "<%a>" (Fmt.list ~sep:(Fmt.any ", ") pp_template_arg) args

and pp_template_arg ppf = function
  | TA_type t -> pp_type ppf t
  | TA_expr e -> pp_expr ppf e

and pp_type ppf = function
  | TName q -> pp_qual_name ppf q
  | TBuiltin b -> pp_builtin ppf b
  | TPtr t -> Fmt.pf ppf "%a *" pp_type t
  | TRef t -> Fmt.pf ppf "%a &" pp_type t
  | TConst t -> Fmt.pf ppf "const %a" pp_type t
  | TVolatile t -> Fmt.pf ppf "volatile %a" pp_type t
  | TArray (t, None) -> Fmt.pf ppf "%a []" pp_type t
  | TArray (t, Some e) -> Fmt.pf ppf "%a [%a]" pp_type t pp_expr e
  | TFunc (r, ps, variadic) ->
      Fmt.pf ppf "%a (%a%s)" pp_type r
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf p -> pp_type ppf p.ptype))
        ps
        (if variadic then ", ..." else "")

and pp_expr ppf (e : expr) =
  match e.e with
  | IntE v -> Fmt.pf ppf "%Ld" v
  | FloatE v -> Fmt.pf ppf "%g" v
  | CharE c ->
      if c >= 32 && c < 127 then Fmt.pf ppf "'%c'" (Char.chr c)
      else Fmt.pf ppf "'\\x%02x'" c
  | StringE s -> Fmt.pf ppf "%S" s
  | BoolE b -> Fmt.bool ppf b
  | IdE q -> pp_qual_name ppf q
  | ThisE -> Fmt.string ppf "this"
  | Unary (op, e) -> Fmt.pf ppf "%s(%a)" op pp_expr e
  | Postfix (op, e) -> Fmt.pf ppf "(%a)%s" pp_expr e op
  | Binary (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a op pp_expr b
  | Assign (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a op pp_expr b
  | Cond (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b
  | Call (f, args) ->
      Fmt.pf ppf "%a(%a)" pp_expr f (Fmt.list ~sep:(Fmt.any ", ") pp_expr) args
  | Member (o, arrow, m) ->
      Fmt.pf ppf "%a%s%a" pp_expr o (if arrow then "->" else ".") pp_qual_name m
  | Index (a, i) -> Fmt.pf ppf "%a[%a]" pp_expr a pp_expr i
  | CCast (t, e) -> Fmt.pf ppf "(%a)%a" pp_type t pp_expr e
  | NamedCast (k, t, e) -> Fmt.pf ppf "%s<%a>(%a)" k pp_type t pp_expr e
  | Construct (t, args) ->
      Fmt.pf ppf "%a(%a)" pp_type t (Fmt.list ~sep:(Fmt.any ", ") pp_expr) args
  | New (t, args, None) ->
      Fmt.pf ppf "new %a(%a)" pp_type t
        (Fmt.list ~sep:(Fmt.any ", ") pp_expr)
        (Option.value args ~default:[])
  | New (t, _, Some n) -> Fmt.pf ppf "new %a[%a]" pp_type t pp_expr n
  | Delete (arr, e) -> Fmt.pf ppf "delete%s %a" (if arr then "[]" else "") pp_expr e
  | SizeofE e -> Fmt.pf ppf "sizeof(%a)" pp_expr e
  | SizeofT t -> Fmt.pf ppf "sizeof(%a)" pp_type t
  | ThrowE None -> Fmt.string ppf "throw"
  | ThrowE (Some e) -> Fmt.pf ppf "throw %a" pp_expr e
  | Comma (a, b) -> Fmt.pf ppf "(%a, %a)" pp_expr a pp_expr b

let qual_name_to_string q = Fmt.str "%a" pp_qual_name q
let type_to_string t = Fmt.str "%a" pp_type t
let expr_to_string e = Fmt.str "%a" pp_expr e
