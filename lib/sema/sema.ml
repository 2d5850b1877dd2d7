(** Semantic analysis: elaborates parsed translation units into the IL.

    This module plays the role of the EDG front end's semantic phase in the
    paper.  Its responsibilities:

    - name resolution through namespace / class / block scopes;
    - creation of IL entities (classes, routines, types, templates) with
      source positions;
    - {b template instantiation in "used" mode}: every template entity
      actually used by the compilation is instantiated and represented in
      the IL; member functions of instantiated class templates get their
      bodies instantiated only when they are themselves used (called), so
      unused members remain declarations — exactly the behaviour §2 of the
      paper relies on;
    - template specializations (explicit and partial) with the paper's
      location-based template↔instantiation back-mapping, plus the "fixed"
      mode (template ids carried in the IL) the paper proposes as a remedy;
    - static call-graph edges, including the special handling of
      constructor/destructor calls at object lifetime boundaries;
    - overload resolution (arity + type-proximity scoring).

    The [instantiate_used] option switches between the paper's two EDG
    instantiation modes: [true] is the "used" mode PDT enables; [false]
    defers instantiations and merely records requests, modelling the
    automatic/prelinker scheme simulated by [pdt_prelink]. *)

open Pdt_util
open Pdt_il
open Il
module Ast = Pdt_ast.Ast

type options = {
  instantiate_used : bool;
      (** instantiate used template entities into the IL (EDG "used" mode) *)
  map_specializations : bool;
      (** "fixed" mode: carry template ids through the IL so specializations
          can be mapped back to their primary template (paper §3.1 remedy) *)
}

let default_options = { instantiate_used = true; map_specializations = false }

(** A resolved template argument. *)
type rarg = Rtype of Il.type_id | Rexpr of int64

type t = {
  prog : Il.program;
  diags : Diag.engine;
  opts : options;
  limits : Limits.t;
  (* budget-breach messages already reported (once per TU each) *)
  mutable reported_limits : string list;
  global : Scope.t;
  (* class id -> its member scope *)
  class_scopes : (Il.class_id, Scope.t) Hashtbl.t;
  (* template id -> its defining scope *)
  template_scopes : (Il.template_id, Scope.t) Hashtbl.t;
  (* instantiated class -> (template, resolved args) *)
  inst_args : (Il.class_id, Il.template_id * rarg list) Hashtbl.t;
  (* class template id -> out-of-line member definitions *)
  member_defs :
    (Il.template_id,
     (string * Ast.tparam list * Ast.func_def * Il.template_id) list ref)
    Hashtbl.t;
  (* routines whose body elaboration is pending (worklist) *)
  body_queue : (Il.routine_id * pending_body) Queue.t;
  (* member functions of instantiated class templates whose bodies have not
     been requested yet (used-mode laziness) *)
  lazy_bodies : (Il.routine_id, pending_body) Hashtbl.t;
  (* instantiation requests recorded when instantiate_used = false *)
  mutable deferred_requests : string list;
  (* implicit ctors/dtors created on demand *)
  implicit_members : (Il.class_id * string, Il.routine_id) Hashtbl.t;
  mutable all_instantiations : (Il.template_id * string) list;  (* audit log *)
}

and benv = {
  be_scope : Scope.t;                (** innermost block scope *)
  be_this : Il.class_id option;
  be_routine : Il.routine_entity;
}

and pending_body = {
  pb_func : Ast.func_def;        (* fully substituted *)
  pb_scope : Scope.t;            (* scope to elaborate in (class or ns scope) *)
  pb_this : Il.class_id option;
  pb_rtempl : Il.template_id option;  (* template to credit on instantiation *)
}

let create ?(opts = default_options) ?(limits = Limits.default ()) ~diags () =
  let prog = Il.create_program () in
  {
    prog; diags; opts; limits;
    reported_limits = [];
    global = Scope.create Scope.Sk_global;
    class_scopes = Hashtbl.create 64;
    template_scopes = Hashtbl.create 64;
    inst_args = Hashtbl.create 64;
    member_defs = Hashtbl.create 16;
    body_queue = Queue.create ();
    lazy_bodies = Hashtbl.create 64;
    deferred_requests = [];
    implicit_members = Hashtbl.create 16;
    all_instantiations = [];
  }

let program t = t.prog

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Record a budget breach as a [Fatal] diagnostic, once per message.
   Analysis continues: the failed construct degrades into a poisoned
   placeholder (error type / missing instance). *)
let report_limit t ~loc e =
  let msg = Limits.describe e in
  if not (List.mem msg t.reported_limits) then begin
    t.reported_limits <- msg :: t.reported_limits;
    Diag.fatal_note t.diags loc "%s" msg
  end

let access_of_ast = function
  | Ast.Public -> Pub
  | Ast.Protected -> Prot
  | Ast.Private -> Priv

(* a builtin's PDB kind and integer kind; its name is [Ast.builtin_name] *)
let builtin_info (b : Ast.builtin) : string * string =
  match b.base with
  | `Void -> ("void", "NA")
  | `Bool -> ("bool", "char")
  | `Char -> ("char", "char")
  | `Wchar -> ("wchar", "int")
  | `Int -> ("int", "int")
  | `Float -> ("float", "float")
  | `Double -> ("float", "double")

let class_scope t (cl : Il.class_id) : Scope.t =
  match Hashtbl.find_opt t.class_scopes cl with
  | Some s -> s
  | None ->
      (* classes without bodies (forward decls) still need a scope *)
      let s = Scope.create ~parent:t.global (Scope.Sk_class cl) in
      Hashtbl.replace t.class_scopes cl s;
      s

let rarg_key t = function
  | Rtype ty -> Il.type_name t.prog ty
  | Rexpr n -> Int64.to_string n

let rargs_key t args = String.concat ", " (List.map (rarg_key t) args)

(* ------------------------------------------------------------------ *)
(* Constant expression evaluation                                      *)
(* ------------------------------------------------------------------ *)

let rec const_eval t scope (e : Ast.expr) : int64 option =
  match e.Ast.e with
  | Ast.IntE v -> Some v
  | Ast.BoolE b -> Some (if b then 1L else 0L)
  | Ast.CharE c -> Some (Int64.of_int c)
  | Ast.IdE { global = false; parts = [ { id; targs = None } ] } -> (
      match Scope.find scope id with
      | Some (Scope.Sym_enum_const (_, v)) -> Some v
      | _ -> None)
  | Ast.Unary ("-", a) -> Option.map Int64.neg (const_eval t scope a)
  | Ast.Unary ("+", a) -> const_eval t scope a
  | Ast.Unary ("~", a) -> Option.map Int64.lognot (const_eval t scope a)
  | Ast.Unary ("!", a) ->
      Option.map (fun v -> if v = 0L then 1L else 0L) (const_eval t scope a)
  | Ast.Binary (op, a, b) -> (
      match (const_eval t scope a, const_eval t scope b) with
      | Some x, Some y -> (
          let bool v = if v then 1L else 0L in
          match op with
          | "+" -> Some (Int64.add x y)
          | "-" -> Some (Int64.sub x y)
          | "*" -> Some (Int64.mul x y)
          | "/" -> if y = 0L then None else Some (Int64.div x y)
          | "%" -> if y = 0L then None else Some (Int64.rem x y)
          | "<<" -> Some (Int64.shift_left x (Int64.to_int y))
          | ">>" -> Some (Int64.shift_right x (Int64.to_int y))
          | "&" -> Some (Int64.logand x y)
          | "|" -> Some (Int64.logor x y)
          | "^" -> Some (Int64.logxor x y)
          | "==" -> Some (bool (x = y))
          | "!=" -> Some (bool (x <> y))
          | "<" -> Some (bool (x < y))
          | ">" -> Some (bool (x > y))
          | "<=" -> Some (bool (x <= y))
          | ">=" -> Some (bool (x >= y))
          | "&&" -> Some (bool (x <> 0L && y <> 0L))
          | "||" -> Some (bool (x <> 0L || y <> 0L))
          | _ -> None)
      | _ -> None)
  | Ast.Cond (c, a, b) -> (
      match const_eval t scope c with
      | Some v -> const_eval t scope (if v <> 0L then a else b)
      | None -> None)
  | Ast.SizeofT ty ->
      Some
        (match Ast.unqual ty with
         | Ast.TBuiltin { base = `Char; _ } | Ast.TBuiltin { base = `Bool; _ } -> 1L
         | Ast.TBuiltin { base = `Int; length = Some `Short; _ } -> 2L
         | Ast.TBuiltin { base = `Int; length = Some (`Long | `LongLong); _ } -> 8L
         | Ast.TBuiltin { base = `Int; _ } -> 4L
         | Ast.TBuiltin { base = `Float; _ } -> 4L
         | Ast.TBuiltin { base = `Double; _ } -> 8L
         | Ast.TPtr _ -> 8L
         | _ -> 8L)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Type resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* Rebuild an AST type from an IL type — used to build substitution
   environments.  Class types are emitted as a single name part holding the
   class's display name, which we bind in the global scope so the name
   round-trips through resolution. *)
let rec ast_of_type t (ty : Il.type_id) : Ast.type_expr =
  match (Il.type_ t.prog ty).ty_kind with
  | Tbuiltin { bname; _ } -> ast_of_builtin bname
  | Tptr ty' -> Ast.TPtr (ast_of_type t ty')
  | Tref ty' -> Ast.TRef (ast_of_type t ty')
  | Tqual { base; q_const; q_volatile } ->
      let inner = ast_of_type t base in
      let inner = if q_volatile then Ast.TVolatile inner else inner in
      if q_const then Ast.TConst inner else inner
  | Tarray (ty', n) ->
      Ast.TArray
        (ast_of_type t ty',
         Option.map (fun n -> { Ast.e = Ast.IntE (Int64.of_int n); eloc = Srcloc.dummy }) n)
  | Tclass c ->
      let name = Il.class_full_name t.prog (Il.class_ t.prog c) in
      Scope.bind t.global name (Scope.Sym_class c);
      Ast.TName (Ast.simple_name name)
  | Tenum { ename; _ } ->
      Scope.bind t.global ename (Scope.Sym_enum ty);
      Ast.TName (Ast.simple_name ename)
  | Ttparam s -> Ast.TName (Ast.simple_name s)
  | Tfunc _ | Terror -> Ast.TName (Ast.simple_name "<error>")

and ast_of_builtin bname : Ast.type_expr =
  let words = String.split_on_char ' ' bname in
  let base = ref `Int and signedness = ref None and length = ref None in
  List.iter
    (fun w ->
      match w with
      | "void" -> base := `Void
      | "bool" -> base := `Bool
      | "char" -> base := `Char
      | "wchar_t" -> base := `Wchar
      | "int" -> base := `Int
      | "float" -> base := `Float
      | "double" -> base := `Double
      | "signed" -> signedness := Some `Signed
      | "unsigned" -> signedness := Some `Unsigned
      | "short" -> length := Some `Short
      | "long" ->
          length := (match !length with Some `Long -> Some `LongLong | _ -> Some `Long)
      | _ -> ())
    words;
  Ast.TBuiltin { base = !base; signedness = !signedness; length = !length }

(* Resolve a qualified name to a symbol. *)
let rec resolve_name t scope (q : Ast.qual_name) ~loc : Scope.symbol option =
  let start : Scope.t = if q.Ast.global then t.global else scope in
  let rec walk (sc : Scope.t) parts ~first =
    match parts with
    | [] -> None
    | [ (p : Ast.name_part) ] -> (
        let found = if first then Scope.find sc p.id else Scope.find_local sc p.id in
        let found =
          match found with
          | None when not first -> class_member_symbol t sc p.id
          | f -> f
        in
        match (found, p.targs) with
        | Some (Scope.Sym_template te), Some targs ->
            instantiated_symbol t scope te targs ~loc
        | (Some _ as s), None -> s
        | Some _, Some _ -> found  (* e.g. typedef'd template-id; tolerate *)
        | None, _ -> None)
    | (p : Ast.name_part) :: rest -> (
        let found = if first then Scope.find sc p.id else Scope.find_local sc p.id in
        let found =
          match found with
          | None when not first -> class_member_symbol t sc p.id
          | f -> f
        in
        let enter sym =
          match sym with
          | Scope.Sym_namespace ns_scope -> walk ns_scope rest ~first:false
          | Scope.Sym_class cl -> walk (class_scope t cl) rest ~first:false
          | Scope.Sym_typedef ty -> (
              match Il.class_of_type t.prog ty with
              | Some cl -> walk (class_scope t cl) rest ~first:false
              | None -> None)
          | _ -> None
        in
        match (found, p.targs) with
        | Some (Scope.Sym_template te), Some targs -> (
            match instantiated_symbol t scope te targs ~loc with
            | Some sym -> enter sym
            | None -> None)
        | Some sym, None -> enter sym
        | Some sym, Some _ -> enter sym
        | None, _ -> None)
  in
  match walk start q.Ast.parts ~first:true with
  | Some s -> Some s
  | None ->
      (* compound display-name binding (e.g. "Stack<int>" interned) *)
      let display = Ast.qual_name_to_string q in
      Scope.find t.global display

(* member lookup that also searches base classes *)
and class_member_symbol t (sc : Scope.t) name : Scope.symbol option =
  match sc.Scope.kind with
  | Scope.Sk_class cl -> find_in_class t cl name
  | _ -> None

and find_in_class t (cl : Il.class_id) name : Scope.symbol option =
  let sc = class_scope t cl in
  match Hashtbl.find_opt sc.Scope.syms name with
  | Some s -> Some s
  | None ->
      let c = Il.class_ t.prog cl in
      let rec through = function
        | [] -> None
        | (b : Il.base_spec) :: rest -> (
            match find_in_class t b.ba_class name with
            | Some s -> Some s
            | None -> through rest)
      in
      through c.cl_bases

and instantiated_symbol t scope te_id targs ~loc : Scope.symbol option =
  let te = Il.template t.prog te_id in
  let args = List.map (resolve_targ t scope ~loc) targs in
  match te.te_kind with
  | Tk_class -> (
      match instantiate_class t te_id args ~loc with
      | Some cl -> Some (Scope.Sym_class cl)
      | None -> None)
  | Tk_func -> (
      match instantiate_function t te_id args ~loc with
      | Some ro -> Some (Scope.Sym_routines (ref [ ro ]))
      | None -> None)
  | Tk_memfunc | Tk_statmem | Tk_memclass -> None

and resolve_targ t scope ~loc (a : Ast.template_arg) : rarg =
  match a with
  | Ast.TA_type ty -> Rtype (resolve_type t scope ty ~loc)
  | Ast.TA_expr e -> (
      match const_eval t scope e with
      | Some v -> Rexpr v
      | None -> (
          (* maybe it is actually a type name used in expr position *)
          match e.Ast.e with
          | Ast.IdE q -> (
              match resolve_name t scope q ~loc with
              | Some (Scope.Sym_class cl) -> Rtype (Il.intern_type t.prog (Tclass cl))
              | Some (Scope.Sym_typedef ty) -> Rtype ty
              | Some (Scope.Sym_enum ty) -> Rtype ty
              | _ ->
                  Diag.error t.diags loc "cannot evaluate template argument '%s'"
                    (Ast.expr_to_string e);
                  Rexpr 0L)
          | _ ->
              Diag.error t.diags loc "cannot evaluate template argument '%s'"
                (Ast.expr_to_string e);
              Rexpr 0L))

and resolve_type t scope (ty : Ast.type_expr) ~loc : Il.type_id =
  match ty with
  | Ast.TBuiltin b ->
      let ykind, yikind = builtin_info b in
      Il.builtin_type t.prog ~bname:(Ast.builtin_name b) ~ykind ~yikind
  | Ast.TName q -> (
      match resolve_name t scope q ~loc with
      | Some (Scope.Sym_class cl) -> Il.intern_type t.prog (Tclass cl)
      | Some (Scope.Sym_typedef ty) -> ty
      | Some (Scope.Sym_enum ty) -> ty
      | Some (Scope.Sym_template te) -> (
          (* template name without args: allowed if all params have defaults *)
          match instantiated_symbol t scope te [] ~loc with
          | Some (Scope.Sym_class cl) -> Il.intern_type t.prog (Tclass cl)
          | _ ->
              Diag.error t.diags loc "template '%s' used without arguments"
                (Ast.qual_name_to_string q);
              Il.ty_error t.prog)
      | Some _ ->
          Diag.error t.diags loc "'%s' does not name a type" (Ast.qual_name_to_string q);
          Il.ty_error t.prog
      | None ->
          Diag.error t.diags loc "unknown type '%s'" (Ast.qual_name_to_string q);
          Il.ty_error t.prog)
  | Ast.TPtr inner -> Il.intern_type t.prog (Tptr (resolve_type t scope inner ~loc))
  | Ast.TRef inner -> Il.intern_type t.prog (Tref (resolve_type t scope inner ~loc))
  | Ast.TConst inner ->
      let base = resolve_type t scope inner ~loc in
      (match (Il.type_ t.prog base).ty_kind with
       | Tqual qq -> Il.intern_type t.prog (Tqual { qq with q_const = true })
       | _ -> Il.intern_type t.prog (Tqual { base; q_const = true; q_volatile = false }))
  | Ast.TVolatile inner ->
      let base = resolve_type t scope inner ~loc in
      (match (Il.type_ t.prog base).ty_kind with
       | Tqual qq -> Il.intern_type t.prog (Tqual { qq with q_volatile = true })
       | _ -> Il.intern_type t.prog (Tqual { base; q_const = false; q_volatile = true }))
  | Ast.TArray (inner, n) ->
      let n' = Option.map (fun e -> Option.map Int64.to_int (const_eval t scope e)) n in
      Il.intern_type t.prog
        (Tarray (resolve_type t scope inner ~loc, Option.join n'))
  | Ast.TFunc (r, ps, variadic) ->
      let rett = resolve_type t scope r ~loc in
      let params =
        List.map (fun (p : Ast.param) -> (resolve_type t scope p.ptype ~loc, p.pdefault <> None)) ps
      in
      Il.intern_type t.prog
        (Tfunc { rett; params; ellipsis = variadic; cqual = false; exceptions = None })

(* ------------------------------------------------------------------ *)
(* Template argument matching (partial specializations, deduction)     *)
(* ------------------------------------------------------------------ *)

(* Match an AST type pattern (containing tparam names) against an IL type,
   extending [env].  Returns false on mismatch. *)
and match_type t scope ~tparams (pat : Ast.type_expr) (ty : Il.type_id)
    (env : (string * rarg) list ref) : bool =
  let kind = (Il.type_ t.prog ty).ty_kind in
  match pat with
  | Ast.TName { global = false; parts = [ { id; targs = None } ] }
    when List.mem id tparams -> (
      match List.assoc_opt id !env with
      | Some (Rtype ty') -> Il.type_name t.prog ty' = Il.type_name t.prog ty
      | Some (Rexpr _) -> false
      | None ->
          env := (id, Rtype ty) :: !env;
          true)
  | Ast.TConst p -> (
      match kind with
      | Tqual { base; q_const = true; _ } -> match_type t scope ~tparams p base env
      | _ -> false)
  | Ast.TVolatile p -> (
      match kind with
      | Tqual { base; q_volatile = true; _ } -> match_type t scope ~tparams p base env
      | _ -> false)
  | Ast.TPtr p -> (
      match kind with
      | Tptr inner -> match_type t scope ~tparams p inner env
      | _ -> false)
  | Ast.TRef p -> (
      match kind with
      | Tref inner -> match_type t scope ~tparams p inner env
      | _ -> false)
  | Ast.TArray (p, _) -> (
      match kind with
      | Tarray (inner, _) -> match_type t scope ~tparams p inner env
      | _ -> false)
  | Ast.TName { parts; _ } -> (
      (* template-id pattern, e.g. vector<T> *)
      match List.rev parts with
      | { id; targs = Some pargs } :: _ -> (
          match kind with
          | Tclass cl -> (
              match Hashtbl.find_opt t.inst_args cl with
              | Some (te_id, iargs) when (Il.template t.prog te_id).te_name = id ->
                  List.length pargs = List.length iargs
                  && List.for_all2
                       (fun parg iarg ->
                         match (parg, iarg) with
                         | Ast.TA_type p, Rtype ty' ->
                             match_type t scope ~tparams p ty' env
                         | Ast.TA_expr pe, Rexpr v -> (
                             match pe.Ast.e with
                             | Ast.IdE { global = false; parts = [ { id = pid; targs = None } ] }
                               when List.mem pid tparams -> (
                                 match List.assoc_opt pid !env with
                                 | Some (Rexpr v') -> v = v'
                                 | Some (Rtype _) -> false
                                 | None ->
                                     env := (pid, Rexpr v) :: !env;
                                     true)
                             | _ -> const_eval t scope pe = Some v)
                         | _ -> false)
                       pargs iargs
              | _ -> false)
          | _ -> false)
      | _ ->
          (* plain named type: must resolve to exactly [ty] *)
          let resolved = resolve_type t scope pat ~loc:Srcloc.dummy in
          Il.type_name t.prog resolved = Il.type_name t.prog ty)
  | Ast.TBuiltin b ->
      (match kind with
       | Tbuiltin { bname; _ } -> String.equal bname (Ast.builtin_name b)
       | _ -> false)
  | Ast.TFunc _ -> false

(* ------------------------------------------------------------------ *)
(* Template instantiation                                              *)
(* ------------------------------------------------------------------ *)

and subst_env_of t ~(tparams : Ast.tparam list) (args : rarg list) ~scope ~loc :
    Subst.env option =
  (* pair parameters with args, applying defaults *)
  let rec go params args env =
    match (params, args) with
    | [], [] -> Some (List.rev env)
    | [], _ :: _ ->
        Diag.error t.diags loc "too many template arguments";
        None
    | p :: ps, a :: as_ ->
        let name =
          match p with
          | Ast.TP_type (n, _) | Ast.TP_nontype (_, n, _) | Ast.TP_template n -> n
        in
        let ast_arg =
          match a with
          | Rtype ty -> Ast.TA_type (ast_of_type t ty)
          | Rexpr v -> Ast.TA_expr { Ast.e = Ast.IntE v; eloc = loc }
        in
        go ps as_ ((name, ast_arg) :: env)
    | p :: ps, [] -> (
        (* use default *)
        match p with
        | Ast.TP_type (n, Some d) ->
            let d' = Subst.subst_type (List.rev env) d in
            let ty = resolve_type t scope d' ~loc in
            go ps [] ((n, Ast.TA_type (ast_of_type t ty)) :: env)
        | Ast.TP_nontype (_, n, Some d) -> (
            let d' = Subst.subst_expr (List.rev env) d in
            match const_eval t scope d' with
            | Some v -> go ps [] ((n, Ast.TA_expr { Ast.e = Ast.IntE v; eloc = loc }) :: env)
            | None ->
                Diag.error t.diags loc "cannot evaluate default template argument";
                None)
        | Ast.TP_type (n, None) | Ast.TP_nontype (_, n, None) | Ast.TP_template n ->
            Diag.error t.diags loc "missing template argument for parameter '%s'" n;
            None)
  in
  go tparams args []

(* normalize args: extend with defaults so the cache key is canonical *)
and normalize_args t te (args : rarg list) ~scope ~loc : rarg list =
  let nparams = List.length te.te_params in
  if List.length args >= nparams then args
  else
    match subst_env_of t ~tparams:te.te_params args ~scope ~loc with
    | None -> args
    | Some env ->
        List.map
          (fun (_, a) ->
            match a with
            | Ast.TA_type ty -> Rtype (resolve_type t scope ty ~loc)
            | Ast.TA_expr e -> (
                match const_eval t scope e with
                | Some v -> Rexpr v
                | None -> Rexpr 0L))
          env

and instantiate_class t (te_id : Il.template_id) (args : rarg list) ~loc :
    Il.class_id option =
  match Limits.enter_instantiation t.limits with
  | exception (Limits.Exceeded _ as e) ->
      report_limit t ~loc e;
      None
  | () ->
      Fun.protect
        ~finally:(fun () -> Limits.exit_instantiation t.limits)
        (fun () -> instantiate_class_body t te_id args ~loc)

and instantiate_class_body t (te_id : Il.template_id) (args : rarg list) ~loc :
    Il.class_id option =
  let te = Il.template t.prog te_id in
  let def_scope =
    match Hashtbl.find_opt t.template_scopes te_id with
    | Some s -> s
    | None -> t.global
  in
  let args = normalize_args t te args ~scope:def_scope ~loc in
  let key = rargs_key t args in
  match List.assoc_opt key te.te_instances with
  | Some (Inst_class cl) -> Some cl
  | Some (Inst_routine _) -> None
  | None ->
      if not t.opts.instantiate_used then begin
        t.deferred_requests <- (te.te_name ^ "<" ^ key ^ ">") :: t.deferred_requests;
        None
      end
      else begin
        let inst () =
        t.all_instantiations <- (te_id, key) :: t.all_instantiations;
        (* choose pattern: explicit specialization > partial spec > primary *)
        let chosen =
          let exact =
            List.find_opt
              (fun (tparams, targs, _) ->
                tparams = []
                && List.length targs = List.length args
                && List.for_all2
                     (fun targ arg ->
                       match (targ, arg) with
                       | Ast.TA_type pt, Rtype ty ->
                           let r = resolve_type t def_scope pt ~loc in
                           Il.type_name t.prog r = Il.type_name t.prog ty
                       | Ast.TA_expr pe, Rexpr v -> const_eval t def_scope pe = Some v
                       | _ -> false)
                     targs args)
              te.te_specializations
          in
          match exact with
          | Some (_, _, d) -> Some (`Spec, [], d)
          | None ->
              (* partial specializations *)
              let partial =
                List.filter_map
                  (fun (tparams, targs, d) ->
                    if tparams = [] || List.length targs <> List.length args then None
                    else begin
                      let names =
                        List.map
                          (function
                            | Ast.TP_type (n, _) | Ast.TP_nontype (_, n, _)
                            | Ast.TP_template n -> n)
                          tparams
                      in
                      let env = ref [] in
                      let ok =
                        List.for_all2
                          (fun targ arg ->
                            match (targ, arg) with
                            | Ast.TA_type pt, Rtype ty ->
                                match_type t def_scope ~tparams:names pt ty env
                            | Ast.TA_expr pe, Rexpr v -> (
                                match pe.Ast.e with
                                | Ast.IdE { global = false; parts = [ { id; targs = None } ] }
                                  when List.mem id names ->
                                    env := (id, Rexpr v) :: !env;
                                    true
                                | _ -> const_eval t def_scope pe = Some v)
                            | _ -> false)
                          targs args
                      in
                      if ok then
                        let senv =
                          List.map
                            (fun (n, a) ->
                              ( n,
                                match a with
                                | Rtype ty -> Ast.TA_type (ast_of_type t ty)
                                | Rexpr v ->
                                    Ast.TA_expr { Ast.e = Ast.IntE v; eloc = loc } ))
                            !env
                        in
                        Some (`Partial, senv, d)
                      else None
                    end)
                  te.te_specializations
              in
              (match partial with
               | choice :: _ -> Some choice
               | [] -> (
                   match te.te_pattern with
                   | Some d -> (
                       match subst_env_of t ~tparams:te.te_params args ~scope:def_scope ~loc with
                       | Some env -> Some (`Primary, env, d)
                       | None -> None)
                   | None ->
                       Diag.error t.diags loc "template '%s' has no definition" te.te_name;
                       None))
        in
        match chosen with
        | None -> None
        | Some (origin, env, pattern_decl) -> (
            match pattern_decl.Ast.d with
            | Ast.DClass cd ->
                let cd' = Subst.subst_class env cd in
                let display = te.te_name ^ "<" ^ key ^ ">" in
                (* Pre-create and register the instance before elaborating its
                   members, so self-referential patterns (e.g. a member of
                   type [Stack<T>*]) resolve to this very instance instead of
                   recursing. *)
                let c =
                  Il.add_class t.prog ~name:display
                    ~kind:(match cd.Ast.c_key with
                           | Ast.Class_key -> Ckind_class
                           | Ast.Struct_key -> Ckind_struct
                           | Ast.Union_key -> Ckind_union)
                    ~loc:cd'.Ast.c_header.Srcloc.start
                    ~parent:(Scope.parent_of def_scope) ~access:Acc_na
                in
                (* ctempl: paper mode maps instantiations back to their template
                   via the template list; specializations get mapped only in
                   "fixed" mode *)
                (match origin with
                 | `Primary -> c.cl_template <- Some te_id
                 | `Spec | `Partial ->
                     c.cl_template <-
                       (if t.opts.map_specializations then Some te_id else None);
                     c.cl_spec_of <- Some te_id);
                Hashtbl.replace t.inst_args c.cl_id (te_id, args);
                te.te_instances <- (key, Inst_class c.cl_id) :: te.te_instances;
                (* bind the display name so ast_of_type round-trips *)
                Scope.bind t.global display (Scope.Sym_class c.cl_id);
                let cl =
                  elab_class t def_scope cd' ~name_override:display ~access:Acc_na
                    ~bind_name:false ~in_template_instance:true ~into:c ()
                in
                (* attach out-of-line member definitions (push etc.) *)
                attach_member_defs t te_id cl env;
                Some cl
            | _ ->
                Diag.error t.diags loc "'%s' is not a class template" te.te_name;
                None)
        in
        (* per-instantiation span, named — the paper's template focus *)
        if Trace.on () then
          Trace.span ~cat:"sema"
            ~args:[ ("name", Trace.Str (te.te_name ^ "<" ^ key ^ ">")) ]
            "sema.instantiate" inst
        else inst ()
      end

(* Register the out-of-line member definitions of a class template against
   the member declarations of a fresh instance. *)
and attach_member_defs t te_id cl env =
  match Hashtbl.find_opt t.member_defs te_id with
  | None -> ()
  | Some defs ->
      List.iter (fun (name, tparams, fd, mem_te) ->
          ignore tparams;
          attach_one_member_def t cl env name fd mem_te)
        !defs

and attach_one_member_def t cl env name (fd : Ast.func_def) mem_te =
  let c = Il.class_ t.prog cl in
  let candidates = Il.find_member_funcs t.prog c name in
  (* pick the declaration with the same arity *)
  let arity = List.length fd.Ast.f_params in
  match
    List.find_opt (fun (r : Il.routine_entity) -> List.length r.ro_params = arity) candidates
  with
  | None -> ()  (* declaration not in class — ill-formed; ignore *)
  | Some r ->
      if not (Hashtbl.mem t.lazy_bodies r.ro_id) && not r.ro_defined then begin
        let fd' = Subst.subst_func env fd in
        Hashtbl.replace t.lazy_bodies r.ro_id
          { pb_func = fd'; pb_scope = class_scope t cl; pb_this = Some cl;
            pb_rtempl = Some mem_te }
      end

and instantiate_function t (te_id : Il.template_id) (args : rarg list) ~loc :
    Il.routine_id option =
  match Limits.enter_instantiation t.limits with
  | exception (Limits.Exceeded _ as e) ->
      report_limit t ~loc e;
      None
  | () ->
      Fun.protect
        ~finally:(fun () -> Limits.exit_instantiation t.limits)
        (fun () -> instantiate_function_body t te_id args ~loc)

and instantiate_function_body t (te_id : Il.template_id) (args : rarg list) ~loc :
    Il.routine_id option =
  let te = Il.template t.prog te_id in
  let def_scope =
    match Hashtbl.find_opt t.template_scopes te_id with
    | Some s -> s
    | None -> t.global
  in
  let args = normalize_args t te args ~scope:def_scope ~loc in
  let key = rargs_key t args in
  match List.assoc_opt key te.te_instances with
  | Some (Inst_routine ro) -> Some ro
  | Some (Inst_class _) -> None
  | None ->
      if not t.opts.instantiate_used then begin
        t.deferred_requests <- (te.te_name ^ "<" ^ key ^ ">") :: t.deferred_requests;
        None
      end
      else begin
        let inst () =
        t.all_instantiations <- (te_id, key) :: t.all_instantiations;
        match te.te_pattern with
        | Some { Ast.d = Ast.DFunction fd; _ } -> (
            match subst_env_of t ~tparams:te.te_params args ~scope:def_scope ~loc with
            | None -> None
            | Some env ->
                let fd' = Subst.subst_func env fd in
                let ro =
                  elab_function_decl t def_scope fd' ~access:Acc_na ~bind_name:false
                in
                let r = Il.routine t.prog ro in
                r.ro_template <- Some te_id;
                te.te_instances <- (key, Inst_routine ro) :: te.te_instances;
                (match fd'.Ast.f_body with
                 | Some _ ->
                     Queue.add
                       (ro,
                        { pb_func = fd'; pb_scope = def_scope; pb_this = None;
                          pb_rtempl = Some te_id })
                       t.body_queue
                 | None -> ());
                Some ro)
        | _ ->
            Diag.error t.diags loc "'%s' is not a function template" te.te_name;
            None
        in
        if Trace.on () then
          Trace.span ~cat:"sema"
            ~args:[ ("name", Trace.Str (te.te_name ^ "<" ^ key ^ ">")) ]
            "sema.instantiate" inst
        else inst ()
      end

(* ------------------------------------------------------------------ *)
(* Class elaboration                                                   *)
(* ------------------------------------------------------------------ *)

and elab_class_real t scope (cd : Ast.class_def) ~name_override ~access
    ~bind_name ~in_template_instance ~into : Il.class_id =
  let name =
    match name_override with
    | Some n -> n
    | None -> (
        match cd.Ast.c_name with
        | Some p -> p.Ast.id
        | None -> "<anonymous>")
  in
  let kind =
    match cd.Ast.c_key with
    | Ast.Class_key -> Ckind_class
    | Ast.Struct_key -> Ckind_struct
    | Ast.Union_key -> Ckind_union
  in
  let loc = cd.Ast.c_header.Srcloc.start in
  (* forward declaration or reopening: reuse existing incomplete class *)
  let existing =
    match into with
    | Some c -> Some c
    | None ->
        if bind_name then
          match Scope.find_local scope name with
          | Some (Scope.Sym_class cl) -> Some (Il.class_ t.prog cl)
          | _ -> None
        else None
  in
  let c =
    match existing with
    | Some c -> c
    | None ->
        let c =
          Il.add_class t.prog ~name ~kind ~loc ~parent:(Scope.parent_of scope) ~access
        in
        if bind_name then Scope.bind scope name (Scope.Sym_class c.cl_id);
        (match Scope.parent_of scope with
         | Pnamespace ns ->
             let n = Il.namespace t.prog ns in
             n.na_members <- Rclass c.cl_id :: n.na_members
         | _ -> ());
        c
  in
  match cd.Ast.c_body with
  | None -> c.cl_id  (* forward declaration *)
  | Some body_range ->
      if c.cl_complete then c.cl_id  (* redefinition; keep first *)
      else begin
        c.cl_loc <- (match cd.Ast.c_name with
                     | Some _ -> cd.Ast.c_header.Srcloc.stop
                     | None -> loc);
        (* header position: use name location as the class loc, per Fig. 3 *)
        (match cd.Ast.c_name with
         | Some _ ->
             (* the class name is the token after the key; approximate with
                header start shifted past the keyword *)
             c.cl_loc <- { loc with Srcloc.col = loc.Srcloc.col + 6 }
         | None -> ());
        c.cl_extent <-
          Srcloc.extent ~header:cd.Ast.c_header ~body:body_range ();
        let csc = Scope.create ~parent:scope (Scope.Sk_class c.cl_id) in
        Hashtbl.replace t.class_scopes c.cl_id csc;
        (* the class's own name refers to itself inside the body *)
        Scope.bind csc name (Scope.Sym_class c.cl_id);
        (match cd.Ast.c_name with
         | Some { id; _ } when id <> name -> Scope.bind csc id (Scope.Sym_class c.cl_id)
         | _ -> ());
        (* bases *)
        let bases =
          List.filter_map
            (fun (b : Ast.base_spec) ->
              match resolve_name t scope b.b_name ~loc:b.b_loc with
              | Some (Scope.Sym_class bcl) ->
                  let default_acc =
                    if kind = Ckind_class then Priv else Pub
                  in
                  Some
                    { ba_access =
                        (match b.b_access with
                         | Some a -> access_of_ast a
                         | None -> default_acc);
                      ba_virtual = b.b_virtual;
                      ba_class = bcl }
              | _ ->
                  Diag.error t.diags b.b_loc "unknown base class '%s'"
                    (Ast.qual_name_to_string b.b_name);
                  None)
            cd.Ast.c_bases
        in
        c.cl_bases <- bases;
        List.iter
          (fun (b : Il.base_spec) ->
            let bc = Il.class_ t.prog b.ba_class in
            bc.cl_derived <- bc.cl_derived @ [ c.cl_id ])
          bases;
        (* members *)
        let current_access = ref (if kind = Ckind_class then Priv else Pub) in
        List.iter
          (fun (m : Ast.decl) -> elab_member t csc c m current_access ~in_template_instance)
          cd.Ast.c_members;
        c.cl_funcs <- List.rev c.cl_funcs;
        c.cl_members <- List.rev c.cl_members;
        c.cl_complete <- true;
        c.cl_id
      end

and elab_member t csc (c : Il.class_entity) (m : Ast.decl) current_access
    ~in_template_instance : unit =
  match m.Ast.d with
  | Ast.DAccess a -> current_access := access_of_ast a
  | Ast.DEmpty -> ()
  | Ast.DVar vd ->
      let ty = resolve_type t csc vd.Ast.v_type ~loc:vd.Ast.v_loc in
      let dm =
        { dm_name = vd.Ast.v_name; dm_loc = vd.Ast.v_loc; dm_access = !current_access;
          dm_type = ty; dm_static = vd.Ast.v_storage.Ast.st_static;
          dm_mutable = vd.Ast.v_storage.Ast.st_mutable }
      in
      c.cl_members <- dm :: c.cl_members;
      Scope.bind csc vd.Ast.v_name
        (Scope.Sym_var { vs_name = vd.Ast.v_name; vs_type = ty; vs_global = false })
  | Ast.DFunction fd ->
      let ro =
        elab_member_function t csc c fd ~access:!current_access ~in_template_instance
      in
      ignore ro
  | Ast.DClass cd ->
      ignore
        (elab_class t csc cd ~access:!current_access ~bind_name:true
           ~in_template_instance ())
  | Ast.DTypedef (ty, n) ->
      let id = resolve_type t csc ty ~loc:m.Ast.dloc in
      let te = Il.type_ t.prog id in
      if not (List.mem n te.ty_typedef_names) then
        te.ty_typedef_names <- te.ty_typedef_names @ [ n ];
      Scope.bind csc n (Scope.Sym_typedef id)
  | Ast.DEnum (name, items) -> elab_enum t csc ~parent:(Pclass c.cl_id) name items m.Ast.dloc
  | Ast.DTemplate _ -> elab_template t csc m ~access:!current_access
  | Ast.DFriend inner -> (
      match inner.Ast.d with
      | Ast.DClass { c_name = Some { id; _ }; _ } -> (
          match Scope.find csc id with
          | Some (Scope.Sym_class fc) -> c.cl_friends <- Friend_class fc :: c.cl_friends
          | _ -> ())
      | Ast.DFunction fd -> (
          let fname = (Ast.last_part fd.Ast.f_name).Ast.id in
          match Scope.find csc fname with
          | Some (Scope.Sym_routines rs) -> (
              match !rs with
              | r0 :: _ -> c.cl_friends <- Friend_routine r0 :: c.cl_friends
              | [] -> ())
          | _ -> ())
      | _ -> ())
  | Ast.DUsing (q, is_ns) -> elab_using t csc q is_ns m.Ast.dloc
  | Ast.DNamespace _ | Ast.DExplicitInst _ ->
      Diag.error t.diags m.Ast.dloc "declaration not allowed in class body"

and elab_enum t scope ~parent name items loc : unit =
  let ename = match name with Some n -> n | None -> "<anonymous enum>" in
  let constants =
    let next = ref 0L in
    List.map
      (fun (n, e, l) ->
        let v =
          match e with
          | Some e -> Option.value ~default:!next (const_eval t scope e)
          | None -> !next
        in
        next := Int64.add v 1L;
        (n, v, l))
      items
  in
  let ty =
    Il.intern_type ~loc ~parent t.prog (Tenum { ename; eparent = parent; constants })
  in
  (match name with Some n -> Scope.bind scope n (Scope.Sym_enum ty) | None -> ());
  List.iter (fun (n, v, _) -> Scope.bind scope n (Scope.Sym_enum_const (ty, v))) constants

and routine_signature t scope (fd : Ast.func_def) ~loc : Il.type_id * Il.param_info list =
  let rett =
    match fd.Ast.f_ret with
    | Some ty -> resolve_type t scope ty ~loc
    | None -> Il.ty_void t.prog
  in
  let params =
    List.map
      (fun (p : Ast.param) ->
        { pi_name = p.pname;
          pi_type = resolve_type t scope p.ptype ~loc:p.ploc;
          pi_has_default = p.pdefault <> None;
          pi_default = p.pdefault;
          pi_loc = p.ploc })
      fd.Ast.f_params
  in
  let exceptions =
    Option.map (List.map (fun ty -> resolve_type t scope ty ~loc)) fd.Ast.f_throw
  in
  let sig_ =
    Il.intern_type t.prog
      (Tfunc
         { rett;
           params = List.map (fun pi -> (pi.pi_type, pi.pi_has_default)) params;
           ellipsis = fd.Ast.f_variadic;
           cqual = fd.Ast.f_quals.Ast.q_const;
           exceptions })
  in
  (sig_, params)

(* a member function declaration (and possibly inline definition) *)
and elab_member_function t csc (c : Il.class_entity) (fd : Ast.func_def)
    ~access ~in_template_instance : Il.routine_id =
  let name = (Ast.last_part fd.Ast.f_name).Ast.id in
  let loc = fd.Ast.f_header.Srcloc.start in
  let sig_, params = routine_signature t csc fd ~loc in
  (* overload: reuse existing declaration with same signature *)
  let existing =
    List.find_opt
      (fun rid ->
        let r = Il.routine t.prog rid in
        String.equal r.ro_name name && r.ro_sig = sig_)
      c.cl_funcs
  in
  let r =
    match existing with
    | Some rid -> Il.routine t.prog rid
    | None ->
        let r =
          Il.add_routine t.prog ~name ~loc ~parent:(Pclass c.cl_id) ~access ~sig_
        in
        c.cl_funcs <- r.ro_id :: c.cl_funcs;
        (* constructors and destructors are not found by ordinary name
           lookup; binding them would shadow the class's own name *)
        (match fd.Ast.f_kind with
         | Ast.Fk_ctor | Ast.Fk_dtor -> ()
         | Ast.Fk_normal | Ast.Fk_conversion | Ast.Fk_operator _ ->
             ignore (Scope.bind_routine csc name r.ro_id));
        r
  in
  r.ro_params <- params;
  r.ro_kind <-
    (match fd.Ast.f_kind with
     | Ast.Fk_normal -> Rk_normal
     | Ast.Fk_ctor -> Rk_ctor
     | Ast.Fk_dtor -> Rk_dtor
     | Ast.Fk_conversion -> Rk_conversion
     | Ast.Fk_operator _ -> Rk_operator);
  r.ro_static <- fd.Ast.f_quals.Ast.q_static;
  r.ro_inline <- fd.Ast.f_quals.Ast.q_inline;
  r.ro_const <- fd.Ast.f_quals.Ast.q_const;
  r.ro_store <- (if r.ro_static then "static" else "NA");
  (* virtuality: declared, or overriding a virtual base member *)
  let overrides_virtual =
    List.exists
      (fun (b : Il.base_spec) ->
        List.exists
          (fun (br : Il.routine_entity) -> br.ro_virt <> Virt_no)
          (Il.find_member_funcs t.prog (Il.class_ t.prog b.ba_class) name))
      c.cl_bases
  in
  r.ro_virt <-
    (if fd.Ast.f_quals.Ast.q_pure then Virt_pure
     else if fd.Ast.f_quals.Ast.q_virtual || overrides_virtual then Virt_virtual
     else Virt_no);
  r.ro_extent <-
    Srcloc.extent ~header:fd.Ast.f_header ?body:fd.Ast.f_body_range ();
  (match fd.Ast.f_body with
   | Some _ ->
       let pb =
         { pb_func = fd; pb_scope = csc; pb_this = Some c.cl_id;
           pb_rtempl =
             (if in_template_instance then
                (* inline member of a class template: credit the class template *)
                (Il.class_ t.prog c.cl_id).cl_template
              else None) }
       in
       if in_template_instance then
         (* used mode: body instantiated only when the member is used *)
         Hashtbl.replace t.lazy_bodies r.ro_id pb
       else Queue.add (r.ro_id, pb) t.body_queue
   | None -> ());
  r.ro_id

(* a namespace-scope function declaration/definition (possibly out-of-line
   member definition) *)
and elab_function_decl t scope (fd : Ast.func_def) ~access ~bind_name :
    Il.routine_id =
  let loc = fd.Ast.f_header.Srcloc.start in
  match fd.Ast.f_name.Ast.parts with
  | [ _ ] | [] ->
      (* plain function at this scope *)
      let name = (Ast.last_part fd.Ast.f_name).Ast.id in
      let sig_, params = routine_signature t scope fd ~loc in
      let existing =
        match Scope.find_local scope name with
        | Some (Scope.Sym_routines rs) ->
            List.find_opt
              (fun rid -> (Il.routine t.prog rid).ro_sig = sig_)
              !rs
        | _ -> None
      in
      let r =
        match existing with
        | Some rid -> Il.routine t.prog rid
        | None ->
            let r =
              Il.add_routine t.prog ~name ~loc ~parent:(Scope.parent_of scope)
                ~access ~sig_
            in
            if bind_name then ignore (Scope.bind_routine scope name r.ro_id);
            (match Scope.parent_of scope with
             | Pnamespace ns ->
                 let n = Il.namespace t.prog ns in
                 n.na_members <- Rroutine r.ro_id :: n.na_members
             | _ -> ());
            r
      in
      r.ro_params <- params;
      r.ro_kind <-
        (match fd.Ast.f_kind with
         | Ast.Fk_operator _ -> Rk_operator
         | Ast.Fk_ctor -> Rk_ctor
         | Ast.Fk_dtor -> Rk_dtor
         | Ast.Fk_conversion -> Rk_conversion
         | Ast.Fk_normal -> Rk_normal);
      r.ro_inline <- fd.Ast.f_quals.Ast.q_inline;
      r.ro_store <-
        (if fd.Ast.f_quals.Ast.q_static then "static"
         else if fd.Ast.f_quals.Ast.q_extern then "extern"
         else "NA");
      r.ro_extent <- Srcloc.extent ~header:fd.Ast.f_header ?body:fd.Ast.f_body_range ();
      (match fd.Ast.f_body with
       | Some _ ->
           Queue.add
             (r.ro_id, { pb_func = fd; pb_scope = scope; pb_this = None; pb_rtempl = None })
             t.body_queue
       | None -> ());
      r.ro_id
  | parts ->
      (* qualified: out-of-line member definition *)
      let front = List.filteri (fun i _ -> i < List.length parts - 1) parts in
      let last = Ast.last_part fd.Ast.f_name in
      let owner = { fd.Ast.f_name with Ast.parts = front } in
      (match resolve_name t scope owner ~loc with
       | Some (Scope.Sym_class cl) -> (
           let c = Il.class_ t.prog cl in
           let csc = class_scope t cl in
           let sig_, params = routine_signature t csc fd ~loc in
           let candidates = Il.find_member_funcs t.prog c last.Ast.id in
           let matching =
             List.find_opt
               (fun (r : Il.routine_entity) ->
                 r.ro_sig = sig_ || List.length r.ro_params = List.length params)
               candidates
           in
           match matching with
           | Some r ->
               r.ro_extent <-
                 Srcloc.extent ~header:fd.Ast.f_header ?body:fd.Ast.f_body_range ();
               r.ro_loc <- loc;
               (match fd.Ast.f_body with
                | Some _ ->
                    Queue.add
                      (r.ro_id,
                       { pb_func = fd; pb_scope = csc; pb_this = Some cl; pb_rtempl = None })
                      t.body_queue
                | None -> ());
               r.ro_id
           | None ->
               Diag.error t.diags loc "no declaration of '%s' in class '%s'" last.Ast.id
                 c.cl_name;
               let r =
                 Il.add_routine t.prog ~name:last.Ast.id ~loc ~parent:(Pclass cl)
                   ~access:Pub ~sig_
               in
               r.ro_params <- params;
               r.ro_id)
       | Some (Scope.Sym_namespace ns_scope) ->
           elab_function_decl t ns_scope
             { fd with Ast.f_name = { Ast.global = false; parts = [ last ] } }
             ~access ~bind_name:true
       | _ ->
           Diag.error t.diags loc "cannot resolve '%s'"
             (Ast.qual_name_to_string owner);
           let sig_, params = routine_signature t scope fd ~loc in
           let r =
             Il.add_routine t.prog ~name:last.Ast.id ~loc
               ~parent:(Scope.parent_of scope) ~access ~sig_
           in
           r.ro_params <- params;
           r.ro_id)

and elab_using t scope (q : Ast.qual_name) is_ns loc : unit =
  match resolve_name t scope q ~loc with
  | Some (Scope.Sym_namespace target) when is_ns -> Scope.add_using scope target
  | Some sym when not is_ns ->
      Scope.bind scope (Ast.last_part q).Ast.id sym
  | _ ->
      Diag.warn t.diags loc "cannot resolve using%s '%s'"
        (if is_ns then " namespace" else "")
        (Ast.qual_name_to_string q)

(* ------------------------------------------------------------------ *)
(* Template declarations                                               *)
(* ------------------------------------------------------------------ *)

and elab_template t scope (d : Ast.decl) ~access : unit =
  match d.Ast.d with
  | Ast.DTemplate (tparams, inner, text) -> (
      match inner.Ast.d with
      | Ast.DClass cd when tparams <> [] && not (has_spec_args cd) ->
          (* primary class template *)
          let name = (match cd.Ast.c_name with Some p -> p.Ast.id | None -> "<anon>") in
          let te =
            Il.add_template t.prog ~name ~loc:(name_loc_of_class cd)
              ~parent:(Scope.parent_of scope) ~access ~kind:Tk_class
          in
          te.te_text <- text;
          te.te_params <- tparams;
          te.te_pattern <- Some inner;
          te.te_extent <-
            Srcloc.extent ~header:(Srcloc.range d.Ast.dloc cd.Ast.c_header.Srcloc.stop)
              ?body:cd.Ast.c_body ();
          Hashtbl.replace t.template_scopes te.te_id scope;
          Scope.bind scope name (Scope.Sym_template te.te_id);
          (match Scope.parent_of scope with
           | Pnamespace ns ->
               let n = Il.namespace t.prog ns in
               n.na_members <- Rtemplate te.te_id :: n.na_members
           | _ -> ())
      | Ast.DClass cd -> (
          (* specialization (explicit if tparams = [], else partial) *)
          match cd.Ast.c_name with
          | Some { id; targs = Some targs } -> (
              match Scope.find scope id with
              | Some (Scope.Sym_template te_id) ->
                  let te = Il.template t.prog te_id in
                  te.te_specializations <-
                    te.te_specializations @ [ (tparams, targs, inner) ]
              | _ ->
                  Diag.error t.diags d.Ast.dloc
                    "specialization of unknown template '%s'" id)
          | _ ->
              Diag.error t.diags d.Ast.dloc "malformed template specialization")
      | Ast.DFunction fd -> elab_function_template t scope tparams fd text d.Ast.dloc ~access
      | Ast.DVar vd -> elab_statmem_template t scope tparams vd text d.Ast.dloc ~access
      | Ast.DTemplate _ ->
          (* member template of a class template: tolerated but not elaborated
             until used; currently skipped with a warning *)
          Diag.warn t.diags d.Ast.dloc "nested template declarations are not analyzed"
      | Ast.DTypedef _ | Ast.DEnum _ | Ast.DNamespace _ | Ast.DUsing _
      | Ast.DAccess _ | Ast.DFriend _ | Ast.DExplicitInst _ | Ast.DEmpty ->
          Diag.warn t.diags d.Ast.dloc "unsupported templated declaration")
  | _ -> invalid_arg "elab_template"

and has_spec_args (cd : Ast.class_def) =
  match cd.Ast.c_name with Some { targs = Some _; _ } -> true | _ -> false

and name_loc_of_class (cd : Ast.class_def) =
  (* approximation: the class-key location; Figure 3 points tloc at the name *)
  cd.Ast.c_header.Srcloc.start

and elab_function_template t scope tparams (fd : Ast.func_def) text dloc ~access : unit =
  let last = Ast.last_part fd.Ast.f_name in
  match fd.Ast.f_name.Ast.parts with
  | [ _ ] ->
      (* function template at namespace scope (tkind func), or a member
         template when [scope] is a class scope (tkind memfunc) *)
      let kind =
        match scope.Scope.kind with
        | Scope.Sk_class _ ->
            if fd.Ast.f_quals.Ast.q_static then Tk_statmem else Tk_memfunc
        | _ -> Tk_func
      in
      let te =
        Il.add_template t.prog ~name:last.Ast.id ~loc:fd.Ast.f_header.Srcloc.start
          ~parent:(Scope.parent_of scope) ~access ~kind
      in
      te.te_text <- text;
      te.te_params <- tparams;
      te.te_pattern <- Some { Ast.d = Ast.DFunction fd; dloc };
      te.te_extent <- Srcloc.extent ~header:fd.Ast.f_header ?body:fd.Ast.f_body_range ();
      Hashtbl.replace t.template_scopes te.te_id scope;
      Scope.bind scope last.Ast.id (Scope.Sym_template te.te_id);
      (match Scope.parent_of scope with
       | Pnamespace ns ->
           let n = Il.namespace t.prog ns in
           n.na_members <- Rtemplate te.te_id :: n.na_members
       | _ -> ())
  | parts when List.length parts > 1 -> (
      (* out-of-line member of a class template:
         template <class T> void Stack<T>::push(...) *)
      let owner_part = List.nth parts (List.length parts - 2) in
      match Scope.find scope owner_part.Ast.id with
      | Some (Scope.Sym_template cls_te_id) ->
          let kind = if fd.Ast.f_quals.Ast.q_static then Tk_statmem else Tk_memfunc in
          let te =
            Il.add_template t.prog ~name:last.Ast.id
              ~loc:fd.Ast.f_header.Srcloc.start
              ~parent:(Scope.parent_of scope) ~access ~kind
          in
          te.te_text <- text;
          te.te_params <- tparams;
          te.te_pattern <- Some { Ast.d = Ast.DFunction fd; dloc };
          te.te_extent <-
            Srcloc.extent ~header:fd.Ast.f_header ?body:fd.Ast.f_body_range ();
          Hashtbl.replace t.template_scopes te.te_id scope;
          let fd_local =
            { fd with Ast.f_name = { Ast.global = false; parts = [ last ] } }
          in
          let defs =
            match Hashtbl.find_opt t.member_defs cls_te_id with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace t.member_defs cls_te_id r;
                r
          in
          defs := !defs @ [ (last.Ast.id, tparams, fd_local, te.te_id) ];
          (* back-fill existing instances (definition after use) *)
          let cls_te = Il.template t.prog cls_te_id in
          List.iter
            (fun (_, inst) ->
              match inst with
              | Inst_class cl -> (
                  match Hashtbl.find_opt t.inst_args cl with
                  | Some (_, args) -> (
                      match
                        subst_env_of t ~tparams:cls_te.te_params args ~scope ~loc:dloc
                      with
                      | Some env ->
                          attach_one_member_def t cl env last.Ast.id fd_local te.te_id
                      | None -> ())
                  | None -> ())
              | Inst_routine _ -> ())
            cls_te.te_instances
      | _ ->
          Diag.error t.diags dloc "out-of-line member of unknown template '%s'"
            owner_part.Ast.id)
  | _ -> Diag.error t.diags dloc "malformed function template"

and elab_statmem_template t scope tparams (vd : Ast.var_decl) text dloc ~access : unit =
  (* template <class T> int Foo<T>::count = 0; *)
  ignore tparams;
  let te =
    Il.add_template t.prog ~name:vd.Ast.v_name ~loc:vd.Ast.v_loc
      ~parent:(Scope.parent_of scope) ~access ~kind:Tk_statmem
  in
  te.te_text <- text;
  te.te_pattern <- Some { Ast.d = Ast.DVar vd; dloc };
  Hashtbl.replace t.template_scopes te.te_id scope

(* recursive knot for elab_class *)
and elab_class t scope cd ?name_override ?into ~access ~bind_name
    ~in_template_instance () =
  elab_class_real t scope cd ~name_override ~access ~bind_name
    ~in_template_instance ~into

(* ------------------------------------------------------------------ *)
(* Body elaboration: expression typing, call resolution, call edges    *)
(* ------------------------------------------------------------------ *)

and record_call t (benv : benv) (callee : Il.routine_entity) ~loc : unit =
  benv.be_routine.ro_calls <-
    { cs_callee = callee.ro_id; cs_virtual = callee.ro_virt <> Virt_no; cs_loc = loc }
    :: benv.be_routine.ro_calls;
  request_body t callee.ro_id

and request_body t ro_id : unit =
  match Hashtbl.find_opt t.lazy_bodies ro_id with
  | Some pb ->
      Hashtbl.remove t.lazy_bodies ro_id;
      Queue.add (ro_id, pb) t.body_queue
  | None -> ()

(* pick the best overload for the given argument types *)
and pick_overload t (candidates : Il.routine_entity list) (arg_tys : Il.type_id list) :
    Il.routine_entity option =
  let nargs = List.length arg_tys in
  let viable =
    List.filter
      (fun (r : Il.routine_entity) ->
        let nparams = List.length r.ro_params in
        let required =
          List.length (List.filter (fun p -> not p.pi_has_default) r.ro_params)
        in
        let (ellipsis : bool) =
          match (Il.type_ t.prog r.ro_sig).ty_kind with
          | Tfunc { ellipsis; _ } -> ellipsis
          | _ -> false
        in
        nargs >= required && (nargs <= nparams || ellipsis))
      candidates
  in
  let score (r : Il.routine_entity) =
    let rec go ps args acc =
      match (ps, args) with
      | _, [] -> acc
      | [], _ -> acc  (* extra args matched against ellipsis *)
      | (p : Il.param_info) :: ps', a :: args' ->
          let pa = Il.strip_qual_ref t.prog p.pi_type in
          let aa = Il.strip_qual_ref t.prog a in
          let s =
            if pa = aa then 3
            else
              match ((Il.type_ t.prog pa).ty_kind, (Il.type_ t.prog aa).ty_kind) with
              | Tbuiltin _, Tbuiltin _ -> 2
              | Tclass pc, Tclass ac ->
                  (* derived-to-base *)
                  let rec derives c =
                    c = pc
                    || List.exists
                         (fun (b : Il.base_spec) -> derives b.ba_class)
                         (Il.class_ t.prog c).cl_bases
                  in
                  if derives ac then 2 else 0
              | Tptr _, Tptr _ -> 2
              | Tenum _, Tbuiltin _ | Tbuiltin _, Tenum _ -> 2
              | Terror, _ | _, Terror -> 1
              | _ -> 1
          in
          go ps' args' (acc + s)
    in
    go r.ro_params arg_tys 0
  in
  match viable with
  | [] -> (match candidates with [] -> None | c :: _ -> Some c)
  | _ ->
      let best =
        List.fold_left
          (fun acc r ->
            match acc with
            | None -> Some (r, score r)
            | Some (_, s) when score r > s -> Some (r, score r)
            | _ -> acc)
          None viable
      in
      Option.map fst best

(* implicit default constructor / destructor, created on demand *)
and implicit_member t (cl : Il.class_id) which : Il.routine_entity =
  let key = (cl, which) in
  match Hashtbl.find_opt t.implicit_members key with
  | Some id -> Il.routine t.prog id
  | None ->
      let c = Il.class_ t.prog cl in
      let base_name =
        match String.index_opt c.cl_name '<' with
        | Some i -> String.sub c.cl_name 0 i
        | None -> c.cl_name
      in
      let name = if which = "ctor" then base_name else "~" ^ base_name in
      let sig_ =
        Il.intern_type t.prog
          (Tfunc { rett = Il.ty_void t.prog; params = []; ellipsis = false;
                   cqual = false; exceptions = None })
      in
      let r = Il.add_routine t.prog ~name ~loc:c.cl_loc ~parent:(Pclass cl) ~access:Pub ~sig_ in
      r.ro_kind <- (if which = "ctor" then Rk_ctor else Rk_dtor);
      r.ro_defined <- true;  (* compiler-generated *)
      c.cl_funcs <- c.cl_funcs @ [ r.ro_id ];
      Hashtbl.replace t.implicit_members key r.ro_id;
      r

(* record a constructor call for creating an object of class [cl] *)
and construct_class t benv (cl : Il.class_id) (arg_tys : Il.type_id list) ~loc : unit =
  let c = Il.class_ t.prog cl in
  let ctors =
    List.filter
      (fun rid -> (Il.routine t.prog rid).ro_kind = Rk_ctor)
      c.cl_funcs
    |> List.map (Il.routine t.prog)
  in
  let callee =
    match ctors with
    | [] -> Some (implicit_member t cl "ctor")
    | _ -> pick_overload t ctors arg_tys
  in
  (match callee with
   | Some r -> record_call t benv r ~loc
   | None -> ())

and destroy_class t benv (cl : Il.class_id) ~loc : unit =
  let c = Il.class_ t.prog cl in
  let dtors =
    List.filter (fun rid -> (Il.routine t.prog rid).ro_kind = Rk_dtor) c.cl_funcs
    |> List.map (Il.routine t.prog)
  in
  let callee =
    match dtors with [] -> implicit_member t cl "dtor" | d :: _ -> d
  in
  record_call t benv callee ~loc

(* return type of a routine *)
and ret_type_of t (r : Il.routine_entity) : Il.type_id =
  match (Il.type_ t.prog r.ro_sig).ty_kind with
  | Tfunc { rett; _ } -> rett
  | _ -> Il.ty_error t.prog

(* find member functions named [name] in class [cl] or its bases *)
and member_funcs_rec t (cl : Il.class_id) name : Il.routine_entity list =
  let c = Il.class_ t.prog cl in
  match Il.find_member_funcs t.prog c name with
  | [] ->
      let rec through = function
        | [] -> []
        | (b : Il.base_spec) :: rest -> (
            match member_funcs_rec t b.ba_class name with
            | [] -> through rest
            | fs -> fs)
      in
      through c.cl_bases
  | fs -> fs

and data_member_rec t (cl : Il.class_id) name : Il.data_member option =
  let c = Il.class_ t.prog cl in
  match List.find_opt (fun (m : Il.data_member) -> m.dm_name = name) c.cl_members with
  | Some m -> Some m
  | None ->
      let rec through = function
        | [] -> None
        | (b : Il.base_spec) :: rest -> (
            match data_member_rec t b.ba_class name with
            | Some m -> Some m
            | None -> through rest)
      in
      through c.cl_bases

(* resolve a member call  obj.m(args) / obj->m(args) *)
and member_call t benv obj_ty (m : Ast.qual_name) (arg_tys : Il.type_id list) ~loc :
    Il.type_id =
  match Il.class_of_type t.prog obj_ty with
  | None ->
      (* not a class: tolerated (e.g. builtin pseudo-members) *)
      Il.ty_error t.prog
  | Some cl -> (
      let last = Ast.last_part m in
      let name = last.Ast.id in
      match member_funcs_rec t cl name with
      | [] ->
          Diag.warn t.diags loc "class '%s' has no member function '%s'"
            (Il.class_ t.prog cl).cl_name name;
          Il.ty_error t.prog
      | candidates -> (
          match pick_overload t candidates arg_tys with
          | Some r ->
              record_call t benv r ~loc;
              ret_type_of t r
          | None -> Il.ty_error t.prog))

(* operator overload on class operands; returns None when not a class op *)
and class_operator t benv op (lhs_ty : Il.type_id) (rhs_tys : Il.type_id list) ~loc :
    Il.type_id option =
  match Il.class_of_type t.prog lhs_ty with
  | None -> None
  | Some cl -> (
      let name = "operator" ^ op in
      match member_funcs_rec t cl name with
      | [] -> (
          (* free operator function *)
          match Scope.find t.global name with
          | Some (Scope.Sym_routines rs) -> (
              let cands = List.map (Il.routine t.prog) !rs in
              match pick_overload t cands (lhs_ty :: rhs_tys) with
              | Some r ->
                  record_call t benv r ~loc;
                  Some (ret_type_of t r)
              | None -> None)
          | _ -> None)
      | candidates -> (
          match pick_overload t candidates rhs_tys with
          | Some r ->
              record_call t benv r ~loc;
              Some (ret_type_of t r)
          | None -> None))

(* type an expression, recording call edges and triggering instantiations *)
and ty_expr t benv (e : Ast.expr) : Il.type_id =
  let loc = e.Ast.eloc in
  match e.Ast.e with
  | Ast.IntE _ -> Il.ty_int t.prog
  | Ast.FloatE _ -> Il.ty_double t.prog
  | Ast.CharE _ -> Il.ty_char t.prog
  | Ast.BoolE _ -> Il.ty_bool t.prog
  | Ast.StringE _ ->
      Il.intern_type t.prog
        (Tptr
           (Il.intern_type t.prog
              (Tqual { base = Il.ty_char t.prog; q_const = true; q_volatile = false })))
  | Ast.ThisE -> (
      match benv.be_this with
      | Some cl -> Il.intern_type t.prog (Tptr (Il.intern_type t.prog (Tclass cl)))
      | None -> Il.ty_error t.prog)
  | Ast.IdE q -> id_type t benv q ~loc
  | Ast.Unary ("*", a) -> (
      let ty = ty_expr t benv a in
      match (Il.type_ t.prog (Il.strip_qual_ref t.prog ty)).ty_kind with
      | Tptr inner -> inner
      | Tarray (inner, _) -> inner
      | _ -> (
          match class_operator t benv "*" ty [] ~loc with
          | Some r -> r
          | None -> Il.ty_error t.prog))
  | Ast.Unary ("&", a) -> Il.intern_type t.prog (Tptr (ty_expr t benv a))
  | Ast.Unary ("!", a) ->
      ignore (ty_expr t benv a);
      Il.ty_bool t.prog
  | Ast.Unary (op, a) -> (
      let ty = if op = "++" || op = "--" then store_type t benv a else ty_expr t benv a in
      match Il.class_of_type t.prog ty with
      | Some _ -> (
          match class_operator t benv op ty [] ~loc with
          | Some r -> r
          | None -> ty)
      | None -> ty)
  | Ast.Postfix (op, a) -> (
      let ty = store_type t benv a in
      match Il.class_of_type t.prog ty with
      | Some _ -> (
          match class_operator t benv op ty [ Il.ty_int t.prog ] ~loc with
          | Some r -> r
          | None -> ty)
      | None -> ty)
  | Ast.Binary (op, a, b) -> (
      let ta = ty_expr t benv a in
      let tb = ty_expr t benv b in
      match class_operator t benv op ta [ tb ] ~loc with
      | Some r -> r
      | None -> (
          match op with
          | "==" | "!=" | "<" | ">" | "<=" | ">=" | "&&" | "||" -> Il.ty_bool t.prog
          | _ ->
              (* usual arithmetic conversions, loosely *)
              let name ty = Il.type_name t.prog (Il.strip_qual_ref t.prog ty) in
              if name ta = "double" || name tb = "double" then Il.ty_double t.prog
              else if name ta = "float" || name tb = "float" then Il.ty_float t.prog
              else Il.strip_qual_ref t.prog ta))
  | Ast.Assign (op, a, b) -> (
      let ta = store_type t benv a in
      let tb = ty_expr t benv b in
      match class_operator t benv op ta [ tb ] ~loc with
      | Some r -> r
      | None -> ta)
  | Ast.Cond (c, a, b) ->
      ignore (ty_expr t benv c);
      let ta = ty_expr t benv a in
      ignore (ty_expr t benv b);
      ta
  | Ast.Call (f, args) -> resolve_call t benv f args ~loc
  | Ast.Member (obj, _, m) -> (
      let oty = ty_expr t benv obj in
      match Il.class_of_type t.prog oty with
      | Some cl -> (
          let name = (Ast.last_part m).Ast.id in
          match data_member_rec t cl name with
          | Some dm -> dm.dm_type
          | None -> (
              match member_funcs_rec t cl name with
              | r :: _ -> r.ro_sig
              | [] ->
                  Diag.warn t.diags loc "class '%s' has no member '%s'"
                    (Il.class_ t.prog cl).cl_name name;
                  Il.ty_error t.prog))
      | None -> Il.ty_error t.prog)
  | Ast.Index (a, i) -> (
      let ta = ty_expr t benv a in
      let ti = ty_expr t benv i in
      match class_operator t benv "[]" ta [ ti ] ~loc with
      | Some r -> r
      | None -> (
          match (Il.type_ t.prog (Il.strip_qual_ref t.prog ta)).ty_kind with
          | Tptr inner | Tarray (inner, _) -> inner
          | _ -> Il.ty_error t.prog))
  | Ast.CCast (ty, a) | Ast.NamedCast (_, ty, a) ->
      ignore (ty_expr t benv a);
      resolve_noted t benv.be_scope ty ~loc
  | Ast.Construct (ty, args) -> (
      let arg_tys = List.map (ty_expr t benv) args in
      (* [S<int>::make(x)] parses as a functional cast of the "type"
         S<int>::make; when the name resolves to routines it is really a
         qualified (often static-member) call *)
      let as_routine_call =
        match ty with
        | Ast.TName q -> (
            match resolve_name t benv.be_scope q ~loc with
            | Some (Scope.Sym_routines rs) -> (
                let cands = List.map (Il.routine t.prog) !rs in
                match pick_overload t cands arg_tys with
                | Some r ->
                    record_call t benv r ~loc;
                    Some (ret_type_of t r)
                | None -> None)
            | _ -> None)
        | _ -> None
      in
      match as_routine_call with
      | Some rt -> rt
      | None ->
          let tid = resolve_noted t benv.be_scope ty ~loc in
          (match Il.class_of_type t.prog tid with
           | Some cl -> construct_class t benv cl arg_tys ~loc
           | None -> ());
          tid)
  | Ast.New (ty, args, n) -> (
      let arg_tys = List.map (ty_expr t benv) (Option.value args ~default:[]) in
      (match n with Some n -> ignore (ty_expr t benv n) | None -> ());
      let tid = resolve_noted t benv.be_scope ty ~loc in
      (match (Il.class_of_type t.prog tid, n) with
       | Some cl, None -> construct_class t benv cl arg_tys ~loc
       | Some cl, Some _ -> construct_class t benv cl [] ~loc
       | None, _ -> ());
      Il.intern_type t.prog (Tptr tid))
  | Ast.Delete (_, a) -> (
      let ty = ty_expr t benv a in
      (match (Il.type_ t.prog (Il.strip_qual_ref t.prog ty)).ty_kind with
       | Tptr inner -> (
           match Il.class_of_type t.prog inner with
           | Some cl -> destroy_class t benv cl ~loc
           | None -> ())
       | _ -> ());
      Il.ty_void t.prog)
  | Ast.SizeofE a ->
      ignore (ty_expr t benv a);
      Il.ty_int t.prog
  | Ast.SizeofT _ -> Il.ty_int t.prog
  | Ast.ThrowE a -> (
      (match a with Some a -> ignore (ty_expr t benv a) | None -> ());
      Il.ty_void t.prog)
  | Ast.Comma (a, b) ->
      ignore (ty_expr t benv a);
      ty_expr t benv b

(* [resolve_type], its answer noted for the interpreter *)
and resolve_noted t scope (ty : Ast.type_expr) ~loc : Il.type_id =
  let id = resolve_type t scope ty ~loc in
  Il.note t.prog.Il.ast_types loc ty id;
  id

(* the type of [a], a store's target, noted for the interpreter *)
and store_type t benv (a : Ast.expr) : Il.type_id =
  let ty = ty_expr t benv a in
  Il.note t.prog.Il.store_types a.Ast.eloc a ty;
  ty

(* the type of a (possibly qualified) identifier in an expression *)
and id_type t benv (q : Ast.qual_name) ~loc : Il.type_id =
  match q with
  | { global = false; parts = [ { id; targs = None } ] } -> (
      match Scope.find benv.be_scope id with
      | Some (Scope.Sym_var vs) -> vs.vs_type
      | Some (Scope.Sym_enum_const (ty, _)) -> ty
      | Some (Scope.Sym_routines rs) -> (
          match !rs with r :: _ -> (Il.routine t.prog r).ro_sig | [] -> Il.ty_error t.prog)
      | Some (Scope.Sym_class cl) -> Il.intern_type t.prog (Tclass cl)
      | Some (Scope.Sym_typedef ty) | Some (Scope.Sym_enum ty) -> ty
      | Some (Scope.Sym_template _) | Some (Scope.Sym_namespace _) | None -> (
          (* maybe an inherited member *)
          match benv.be_this with
          | Some cl -> (
              match data_member_rec t cl id with
              | Some dm -> dm.dm_type
              | None -> (
                  match member_funcs_rec t cl id with
                  | r :: _ -> r.ro_sig
                  | [] ->
                      Diag.warn t.diags loc "unresolved identifier '%s'" id;
                      Il.ty_error t.prog))
          | None ->
              Diag.warn t.diags loc "unresolved identifier '%s'" id;
              Il.ty_error t.prog))
  | _ -> (
      match resolve_name t benv.be_scope q ~loc with
      | Some (Scope.Sym_var vs) -> vs.vs_type
      | Some (Scope.Sym_enum_const (ty, _)) -> ty
      | Some (Scope.Sym_routines rs) -> (
          match !rs with r :: _ -> (Il.routine t.prog r).ro_sig | [] -> Il.ty_error t.prog)
      | Some (Scope.Sym_class cl) -> Il.intern_type t.prog (Tclass cl)
      | Some (Scope.Sym_typedef ty) | Some (Scope.Sym_enum ty) -> ty
      | _ ->
          Diag.warn t.diags loc "unresolved name '%s'" (Ast.qual_name_to_string q);
          Il.ty_error t.prog)

(* resolve a call expression *)
and resolve_call t benv (f : Ast.expr) (args : Ast.expr list) ~loc : Il.type_id =
  let arg_tys = List.map (ty_expr t benv) args in
  match f.Ast.e with
  | Ast.Member (obj, _, m) ->
      let oty = ty_expr t benv obj in
      member_call t benv oty m arg_tys ~loc
  | Ast.IdE q -> (
      let sym =
        (* unqualified name in a member context: member lookup first *)
        match (q.Ast.global, q.Ast.parts, benv.be_this) with
        | false, [ { id; targs = None } ], Some cl -> (
            match member_funcs_rec t cl id with
            | [] -> resolve_name t benv.be_scope q ~loc
            | fs -> Some (Scope.Sym_routines (ref (List.map (fun r -> r.Il.ro_id) fs))))
        | _ -> resolve_name t benv.be_scope q ~loc
      in
      match sym with
      | Some (Scope.Sym_routines rs) -> (
          let cands = List.map (Il.routine t.prog) !rs in
          match pick_overload t cands arg_tys with
          | Some r ->
              record_call t benv r ~loc;
              ret_type_of t r
          | None -> Il.ty_error t.prog)
      | Some (Scope.Sym_template te_id) -> (
          (* function template call with deduction *)
          match deduce_and_instantiate t benv te_id args arg_tys ~loc with
          | Some r ->
              record_call t benv r ~loc;
              ret_type_of t r
          | None -> Il.ty_error t.prog)
      | Some (Scope.Sym_class cl) ->
          construct_class t benv cl arg_tys ~loc;
          Il.intern_type t.prog (Tclass cl)
      | Some (Scope.Sym_var vs) -> (
          (* call through function pointer or functor *)
          match Il.class_of_type t.prog vs.vs_type with
          | Some cl -> member_call t benv (Il.intern_type t.prog (Tclass cl))
                         (Ast.simple_name "operator()") arg_tys ~loc
          | None -> (
              match (Il.type_ t.prog (Il.strip_qual_ref t.prog vs.vs_type)).ty_kind with
              | Tfunc { rett; _ } -> rett
              | Tptr p -> (
                  match (Il.type_ t.prog p).ty_kind with
                  | Tfunc { rett; _ } -> rett
                  | _ -> Il.ty_error t.prog)
              | _ -> Il.ty_error t.prog))
      | Some (Scope.Sym_typedef ty) | Some (Scope.Sym_enum ty) ->
          (* functional cast through a typedef *)
          (match Il.class_of_type t.prog ty with
           | Some cl -> construct_class t benv cl arg_tys ~loc
           | None -> ());
          ty
      | Some (Scope.Sym_enum_const (ty, _)) -> ty
      | Some (Scope.Sym_namespace _) | None ->
          Diag.warn t.diags loc "call to unresolved function '%s'"
            (Ast.qual_name_to_string q);
          Il.ty_error t.prog)
  | _ -> (
      (* arbitrary callee: functor call *)
      let fty = ty_expr t benv f in
      match Il.class_of_type t.prog fty with
      | Some _ -> (
          match class_operator t benv "()" fty arg_tys ~loc with
          | Some r -> r
          | None -> Il.ty_error t.prog)
      | None -> (
          match (Il.type_ t.prog (Il.strip_qual_ref t.prog fty)).ty_kind with
          | Tfunc { rett; _ } -> rett
          | _ -> Il.ty_error t.prog))

(* function template argument deduction from call arguments *)
and deduce_and_instantiate t _benv te_id (args : Ast.expr list)
    (arg_tys : Il.type_id list) ~loc : Il.routine_entity option =
  ignore args;
  let te = Il.template t.prog te_id in
  match te.te_pattern with
  | Some { Ast.d = Ast.DFunction fd; _ } -> (
      let names =
        List.map
          (function
            | Ast.TP_type (n, _) | Ast.TP_nontype (_, n, _) | Ast.TP_template n -> n)
          te.te_params
      in
      let env = ref [] in
      let def_scope =
        match Hashtbl.find_opt t.template_scopes te_id with
        | Some s -> s
        | None -> t.global
      in
      List.iteri
        (fun i (p : Ast.param) ->
          match List.nth_opt arg_tys i with
          | Some aty ->
              let aty = Il.strip_qual_ref t.prog aty in
              (* strip reference/const from the parameter pattern for deduction *)
              let rec strip_pat = function
                | Ast.TConst p | Ast.TVolatile p | Ast.TRef p -> strip_pat p
                | p -> p
              in
              ignore (match_type t def_scope ~tparams:names (strip_pat p.ptype) aty env)
          | None -> ())
        fd.Ast.f_params;
      (* order deduced args by parameter order *)
      let ordered =
        List.filter_map (fun n -> Option.map (fun a -> a) (List.assoc_opt n !env)) names
      in
      if List.length ordered < List.length names then begin
        (* fall back to defaults inside instantiate_function *)
        match instantiate_function t te_id ordered ~loc with
        | Some ro -> Some (Il.routine t.prog ro)
        | None -> None
      end
      else
        match instantiate_function t te_id ordered ~loc with
        | Some ro -> Some (Il.routine t.prog ro)
        | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and elab_stmt t benv (s : Ast.stmt) : unit =
  match s.Ast.s with
  | Ast.SExpr None -> ()
  | Ast.SExpr (Some e) -> ignore (ty_expr t benv e)
  | Ast.SDecl vds -> List.iter (elab_local_decl t benv) vds
  | Ast.SCompound ss -> elab_block t benv ss
  | Ast.SIf (c, a, b) ->
      ignore (ty_expr t benv c);
      elab_stmt t benv a;
      Option.iter (elab_stmt t benv) b
  | Ast.SWhile (c, b) ->
      ignore (ty_expr t benv c);
      elab_stmt t benv b
  | Ast.SDoWhile (b, c) ->
      elab_stmt t benv b;
      ignore (ty_expr t benv c)
  | Ast.SFor (i, c, st, b) ->
      let inner = { benv with be_scope = Scope.create ~parent:benv.be_scope Scope.Sk_block } in
      Option.iter (elab_stmt t inner) i;
      Option.iter (fun e -> ignore (ty_expr t inner e)) c;
      Option.iter (fun e -> ignore (ty_expr t inner e)) st;
      elab_stmt t inner b
  | Ast.SReturn e -> Option.iter (fun e -> ignore (ty_expr t benv e)) e
  | Ast.SBreak | Ast.SContinue -> ()
  | Ast.SSwitch (e, cases) ->
      ignore (ty_expr t benv e);
      List.iter
        (fun (c : Ast.switch_case) ->
          Option.iter (fun g -> ignore (ty_expr t benv g)) c.case_guard;
          List.iter (elab_stmt t benv) c.case_body)
        cases
  | Ast.STry (b, hs) ->
      elab_stmt t benv b;
      List.iter
        (fun (h : Ast.handler) ->
          let hsc = Scope.create ~parent:benv.be_scope Scope.Sk_block in
          (match h.h_param with
           | Some p ->
               let ty = resolve_noted t hsc p.Ast.ptype ~loc:p.Ast.ploc in
               (match p.Ast.pname with
                | Some n ->
                    Scope.bind hsc n
                      (Scope.Sym_var { vs_name = n; vs_type = ty; vs_global = false })
                | None -> ())
           | None -> ());
          elab_stmt t { benv with be_scope = hsc } h.h_body)
        hs
  | Ast.SSpawn e ->
      (* [spawn f(args);] — type the call normally (recording the call edge
         and requesting the callee body), then mirror the outermost resolved
         call as a spawn site on the enclosing routine. *)
      let before = benv.be_routine.ro_calls in
      ignore (ty_expr t benv e);
      (match benv.be_routine.ro_calls with
       | cs :: _ when benv.be_routine.ro_calls != before ->
           benv.be_routine.ro_spawns <-
             { Il.ss_callee = cs.cs_callee; ss_loc = s.Ast.sloc; ss_join = None }
             :: benv.be_routine.ro_spawns
       | _ -> Diag.warn t.diags s.Ast.sloc "spawned call does not resolve to a routine")
  | Ast.SJoin target ->
      (* [join;] closes every open spawn in the routine; [join f;] only
         those spawning [f].  A join with no matching open spawn is
         reported but harmless. *)
      let name_matches id =
        match target with
        | None -> true
        | Some q -> (Il.routine t.prog id).ro_name = (Ast.last_part q).Ast.id
      in
      let matched = ref false in
      benv.be_routine.ro_spawns <-
        List.map
          (fun (ss : Il.spawn_site) ->
            if ss.ss_join = None && name_matches ss.ss_callee then begin
              matched := true;
              { ss with ss_join = Some s.Ast.sloc }
            end
            else ss)
          benv.be_routine.ro_spawns;
      if (not !matched) && target <> None then
        Diag.warn t.diags s.Ast.sloc "join does not match any outstanding spawn"

and elab_block t benv (ss : Ast.stmt list) : unit =
  let bsc = Scope.create ~parent:benv.be_scope Scope.Sk_block in
  let inner = { benv with be_scope = bsc } in
  List.iter (elab_stmt t inner) ss;
  (* end-of-lifetime: destructor calls for class-typed locals (the
     "lifetime contexts" the paper mentions).  Order is deterministic
     (reverse name order); true reverse-declaration order would need
     per-block declaration sequencing, which the PDB does not observe *)
  let class_locals = Hashtbl.fold
      (fun _ sym acc ->
        match sym with
        | Scope.Sym_var vs when not vs.vs_global -> (
            match Il.class_of_type t.prog vs.vs_type with
            | Some cl -> (
                (* destroy only direct objects, not pointers/references *)
                match (Il.type_ t.prog vs.vs_type).ty_kind with
                | Tclass _ | Tqual _ -> [ (vs.vs_name, cl) ] @ acc
                | _ -> acc)
            | None -> acc)
        | _ -> acc)
      bsc.Scope.syms []
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) class_locals in
  List.iter (fun (_, cl) -> destroy_class t benv cl ~loc:(block_end_loc ss)) sorted

and block_end_loc (ss : Ast.stmt list) : Pdt_util.Srcloc.t =
  match List.rev ss with
  | s :: _ -> s.Ast.sloc
  | [] -> Pdt_util.Srcloc.dummy

and elab_local_decl t benv (vd : Ast.var_decl) : unit =
  let loc = vd.Ast.v_loc in
  let ty = resolve_noted t benv.be_scope vd.Ast.v_type ~loc in
  Scope.bind benv.be_scope vd.Ast.v_name
    (Scope.Sym_var { vs_name = vd.Ast.v_name; vs_type = ty; vs_global = false });
  let direct_class =
    match (Il.type_ t.prog ty).ty_kind with
    | Tclass cl -> Some cl
    | Tqual { base; _ } -> (
        match (Il.type_ t.prog base).ty_kind with Tclass cl -> Some cl | _ -> None)
    | _ -> None
  in
  match vd.Ast.v_init with
  | Ast.NoInit -> (
      match direct_class with
      | Some cl -> construct_class t benv cl [] ~loc
      | None -> ())
  | Ast.EqInit e -> (
      let ety = ty_expr t benv e in
      match direct_class with
      | Some cl -> construct_class t benv cl [ ety ] ~loc
      | None -> ())
  | Ast.CtorInit args -> (
      let arg_tys = List.map (ty_expr t benv) args in
      match direct_class with
      | Some cl -> construct_class t benv cl arg_tys ~loc
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Routine body elaboration driver                                     *)
(* ------------------------------------------------------------------ *)

and elaborate_body t (ro_id : Il.routine_id) (pb : pending_body) : unit =
  let r = Il.routine t.prog ro_id in
  if r.ro_defined then ()
  else begin
    r.ro_defined <- true;
    (match pb.pb_rtempl with
     | Some te -> r.ro_template <- Some te
     | None -> ());
    r.ro_body <- pb.pb_func.Ast.f_body;
    r.ro_inits <- pb.pb_func.Ast.f_inits;
    (* update position from the (possibly out-of-line) definition *)
    (match pb.pb_func.Ast.f_body_range with
     | Some br ->
         r.ro_extent <- Srcloc.extent ~header:pb.pb_func.Ast.f_header ~body:br ()
     | None -> ());
    let psc = Scope.create ~parent:pb.pb_scope Scope.Sk_block in
    List.iter
      (fun (p : Ast.param) ->
        let ty = resolve_type t psc p.ptype ~loc:p.ploc in
        match p.pname with
        | Some n ->
            Scope.bind psc n (Scope.Sym_var { vs_name = n; vs_type = ty; vs_global = false })
        | None -> ())
      pb.pb_func.Ast.f_params;
    let benv = { be_scope = psc; be_this = pb.pb_this; be_routine = r } in
    (* constructor member-initializers *)
    List.iter
      (fun (name, args) ->
        let arg_tys = List.map (ty_expr t benv) args in
        match pb.pb_this with
        | Some cl -> (
            match data_member_rec t cl name with
            | Some dm -> (
                match Il.class_of_type t.prog dm.dm_type with
                | Some mcl -> construct_class t benv mcl arg_tys ~loc:dm.dm_loc
                | None -> ())
            | None -> (
                (* base class initializer *)
                let c = Il.class_ t.prog cl in
                let base =
                  List.find_opt
                    (fun (b : Il.base_spec) ->
                      let bn = (Il.class_ t.prog b.ba_class).cl_name in
                      bn = name
                      || (match String.index_opt bn '<' with
                          | Some i -> String.sub bn 0 i = name
                          | None -> false))
                    c.cl_bases
                in
                match base with
                | Some b -> construct_class t benv b.ba_class arg_tys ~loc:r.ro_loc
                | None -> ()))
        | None -> ())
      pb.pb_func.Ast.f_inits;
    (match pb.pb_func.Ast.f_body with
     | Some { Ast.s = Ast.SCompound ss; _ } -> elab_block t benv ss
     | Some s -> elab_stmt t benv s
     | None -> ())
  end

and drain t : unit =
  while not (Queue.is_empty t.body_queue) do
    let ro_id, pb = Queue.pop t.body_queue in
    elaborate_body t ro_id pb
  done

(* ------------------------------------------------------------------ *)
(* Namespace-scope declarations                                        *)
(* ------------------------------------------------------------------ *)

and do_decl t (scope : Scope.t) (d : Ast.decl) : unit =
  match d.Ast.d with
  | Ast.DNamespace (None, ds, _) -> List.iter (do_decl t scope) ds
  | Ast.DNamespace (Some name, ds, range) -> (
      let ns_scope =
        match Scope.find_local scope name with
        | Some (Scope.Sym_namespace s) -> s
        | _ ->
            let ns =
              Il.add_namespace t.prog ~name ~loc:range.Srcloc.start
                ~parent:(Scope.parent_of scope)
            in
            (match Scope.parent_of scope with
             | Pnamespace parent_ns ->
                 let pn = Il.namespace t.prog parent_ns in
                 pn.na_members <- Rnamespace ns.na_id :: pn.na_members
             | _ -> ());
            let s = Scope.create ~parent:scope (Scope.Sk_namespace ns.na_id) in
            Scope.bind scope name (Scope.Sym_namespace s);
            s
      in
      List.iter (do_decl t ns_scope) ds)
  | Ast.DClass cd ->
      ignore
        (elab_class t scope cd ~access:Acc_na ~bind_name:true
           ~in_template_instance:false ())
  | Ast.DEnum (name, items) ->
      elab_enum t scope ~parent:(Scope.parent_of scope) name items d.Ast.dloc
  | Ast.DTypedef (ty, n) ->
      let id = resolve_type t scope ty ~loc:d.Ast.dloc in
      let te = Il.type_ t.prog id in
      if not (List.mem n te.ty_typedef_names) then
        te.ty_typedef_names <- te.ty_typedef_names @ [ n ];
      Scope.bind scope n (Scope.Sym_typedef id)
  | Ast.DFunction fd -> ignore (elab_function_decl t scope fd ~access:Acc_na ~bind_name:true)
  | Ast.DVar vd ->
      let ty = resolve_type t scope vd.Ast.v_type ~loc:vd.Ast.v_loc in
      Scope.bind scope vd.Ast.v_name
        (Scope.Sym_var { vs_name = vd.Ast.v_name; vs_type = ty; vs_global = true });
      t.prog.Il.globals <-
        { gv_name = vd.Ast.v_name; gv_qualified = vd.Ast.v_name; gv_type = ty;
          gv_init = vd.Ast.v_init; gv_loc = vd.Ast.v_loc;
          gv_parent = Scope.parent_of scope }
        :: t.prog.Il.globals
  | Ast.DTemplate _ -> elab_template t scope d ~access:Acc_na
  | Ast.DUsing (q, is_ns) -> elab_using t scope q is_ns d.Ast.dloc
  | Ast.DExplicitInst inner -> explicit_instantiate t scope inner
  | Ast.DAccess _ | Ast.DFriend _ | Ast.DEmpty -> ()

and explicit_instantiate t scope (inner : Ast.decl) : unit =
  match inner.Ast.d with
  | Ast.DClass { c_name = Some { id; targs = Some targs }; _ } -> (
      match Scope.find scope id with
      | Some (Scope.Sym_template te_id) -> (
          let args = List.map (resolve_targ t scope ~loc:inner.Ast.dloc) targs in
          match instantiate_class t te_id args ~loc:inner.Ast.dloc with
          | Some cl ->
              (* explicit instantiation instantiates *all* member bodies *)
              let c = Il.class_ t.prog cl in
              List.iter (fun rid -> request_body t rid) c.cl_funcs
          | None -> ())
      | _ ->
          Diag.error t.diags inner.Ast.dloc
            "explicit instantiation of unknown template '%s'" id)
  | Ast.DFunction fd -> (
      let last = Ast.last_part fd.Ast.f_name in
      match (Scope.find scope last.Ast.id, last.Ast.targs) with
      | Some (Scope.Sym_template te_id), Some targs ->
          let args = List.map (resolve_targ t scope ~loc:inner.Ast.dloc) targs in
          ignore (instantiate_function t te_id args ~loc:inner.Ast.dloc)
      | _ ->
          Diag.warn t.diags inner.Ast.dloc "unsupported explicit instantiation"
      )
  | _ -> Diag.warn t.diags inner.Ast.dloc "unsupported explicit instantiation"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let file_entities t (pp : Pdt_pp.Preproc.result) : unit =
  let by_path = Hashtbl.create 16 in
  List.iter
    (fun (fr : Pdt_pp.Preproc.file_record) ->
      let f = Il.add_file t.prog fr.f_path in
      Hashtbl.replace by_path fr.f_path f.fi_id;
      if t.prog.Il.main_file = None then t.prog.Il.main_file <- Some f.fi_id)
    pp.source_files;
  List.iter
    (fun (fr : Pdt_pp.Preproc.file_record) ->
      match Hashtbl.find_opt by_path fr.f_path with
      | Some fid ->
          let f = Il.file t.prog fid in
          f.fi_includes <-
            List.filter_map (Hashtbl.find_opt by_path) fr.f_includes
      | None -> ())
    pp.source_files

let macro_entities t (pp : Pdt_pp.Preproc.result) : unit =
  List.iter
    (fun (m : Pdt_pp.Preproc.macro) ->
      if not (Srcloc.is_dummy m.m_loc) then
        ignore (Il.add_macro t.prog ~name:m.m_name ~kind:"def" ~text:m.m_text ~loc:m.m_loc))
    pp.macros

(** Analyze one preprocessed translation unit, returning the analysis
    state (tools that need scopes or the instantiation log use it, e.g. the
    prelink simulator); {!analyze} keeps only its IL. *)
let analyze_full ?(opts = default_options) ?limits ~diags (pp : Pdt_pp.Preproc.result)
    (tu : Ast.translation_unit) : t =
  Trace.timed ~cat:"sema"
    ~args:(if Trace.on () then [ ("file", Trace.Str tu.Ast.tu_file) ] else [])
    "sema.analyze"
  @@ fun () ->
  let t = create ~opts ?limits ~diags () in
  file_entities t pp;
  macro_entities t pp;
  List.iter (do_decl t t.global) tu.Ast.tu_decls;
  drain t;
  t

(** Analyze one preprocessed translation unit, producing its IL. *)
let analyze ?opts ?limits ~diags pp tu : Il.program =
  program (analyze_full ?opts ?limits ~diags pp tu)

(** Instantiation requests recorded while [instantiate_used = false]. *)
let deferred_requests t = List.rev t.deferred_requests

(** Audit log of performed instantiations (template id, argument key). *)
let instantiation_log t = List.rev t.all_instantiations
