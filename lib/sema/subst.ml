(** Syntactic substitution of template parameters.

    Instantiation in PDT's front end follows the classic scheme: the template
    pattern is kept as an AST, and instantiating [Stack<int>] substitutes
    [Object := int] throughout the pattern before (re-)elaborating it.  The
    substitution environment maps parameter names to template arguments. *)

open Pdt_ast.Ast

type env = (string * template_arg) list

let lookup (env : env) name = List.assoc_opt name env

let rec subst_type (env : env) (t : type_expr) : type_expr =
  match t with
  | TBuiltin _ -> t
  | TName q -> (
      match q with
      | { global = false; parts = [ { id; targs = None } ] } -> (
          match lookup env id with
          | Some (TA_type t') -> t'
          | Some (TA_expr _) | None -> TName (subst_qual_name env q))
      | _ -> TName (subst_qual_name env q))
  | TPtr t -> TPtr (subst_type env t)
  | TRef t -> TRef (subst_type env t)
  | TConst t -> TConst (subst_type env t)
  | TVolatile t -> TVolatile (subst_type env t)
  | TArray (t, e) -> TArray (subst_type env t, Option.map (subst_expr env) e)
  | TFunc (r, ps, v) -> TFunc (subst_type env r, List.map (subst_param env) ps, v)

and subst_qual_name env (q : qual_name) : qual_name =
  { q with parts = List.map (subst_name_part env) q.parts }

and subst_name_part env (p : name_part) : name_part =
  { p with targs = Option.map (List.map (subst_targ env)) p.targs }

and subst_targ env = function
  | TA_type t -> TA_type (subst_type env t)
  | TA_expr e -> TA_expr (subst_expr env e)

and subst_param env (p : param) : param =
  { p with ptype = subst_type env p.ptype;
           pdefault = Option.map (subst_expr env) p.pdefault }

and subst_expr env (e : expr) : expr =
  let k =
    match e.e with
    | (IntE _ | FloatE _ | CharE _ | StringE _ | BoolE _ | ThisE) as k -> k
    | IdE { global = false; parts = [ { id; targs = None } ] } as k -> (
        (* a non-type template parameter used as an expression *)
        match lookup env id with
        | Some (TA_expr e') -> e'.e
        | Some (TA_type t) -> Construct (t, [])  (* T() — e.g. default value *)
        | None -> k)
    | IdE q -> IdE (subst_qual_name env q)
    | Unary (op, a) -> Unary (op, subst_expr env a)
    | Postfix (op, a) -> Postfix (op, subst_expr env a)
    | Binary (op, a, b) -> Binary (op, subst_expr env a, subst_expr env b)
    | Assign (op, a, b) -> Assign (op, subst_expr env a, subst_expr env b)
    | Cond (c, a, b) -> Cond (subst_expr env c, subst_expr env a, subst_expr env b)
    | Call (f, args) -> Call (subst_expr env f, List.map (subst_expr env) args)
    | Member (o, arrow, m) -> Member (subst_expr env o, arrow, subst_qual_name env m)
    | Index (a, i) -> Index (subst_expr env a, subst_expr env i)
    | CCast (t, a) -> CCast (subst_type env t, subst_expr env a)
    | NamedCast (k, t, a) -> NamedCast (k, subst_type env t, subst_expr env a)
    | Construct (t, args) -> Construct (subst_type env t, List.map (subst_expr env) args)
    | New (t, args, n) ->
        New (subst_type env t, Option.map (List.map (subst_expr env)) args,
             Option.map (subst_expr env) n)
    | Delete (arr, a) -> Delete (arr, subst_expr env a)
    | SizeofE a -> SizeofE (subst_expr env a)
    | SizeofT t -> SizeofT (subst_type env t)
    | ThrowE a -> ThrowE (Option.map (subst_expr env) a)
    | Comma (a, b) -> Comma (subst_expr env a, subst_expr env b)
  in
  { e with e = k }

and subst_stmt env (s : stmt) : stmt =
  let k =
    match s.s with
    | SExpr e -> SExpr (Option.map (subst_expr env) e)
    | SDecl vds -> SDecl (List.map (subst_var_decl env) vds)
    | SCompound ss -> SCompound (List.map (subst_stmt env) ss)
    | SIf (c, a, b) ->
        SIf (subst_expr env c, subst_stmt env a, Option.map (subst_stmt env) b)
    | SWhile (c, b) -> SWhile (subst_expr env c, subst_stmt env b)
    | SDoWhile (b, c) -> SDoWhile (subst_stmt env b, subst_expr env c)
    | SFor (i, c, st, b) ->
        SFor (Option.map (subst_stmt env) i, Option.map (subst_expr env) c,
              Option.map (subst_expr env) st, subst_stmt env b)
    | SReturn e -> SReturn (Option.map (subst_expr env) e)
    | (SBreak | SContinue) as k -> k
    | SSwitch (e, cases) ->
        SSwitch
          (subst_expr env e,
           List.map
             (fun c ->
               { case_guard = Option.map (subst_expr env) c.case_guard;
                 case_body = List.map (subst_stmt env) c.case_body })
             cases)
    | STry (b, hs) ->
        STry
          (subst_stmt env b,
           List.map
             (fun h ->
               { h_param = Option.map (subst_param env) h.h_param;
                 h_body = subst_stmt env h.h_body })
             hs)
    | SSpawn e -> SSpawn (subst_expr env e)
    | SJoin _ as k -> k
  in
  { s with s = k }

and subst_var_decl env (v : var_decl) : var_decl =
  { v with
    v_type = subst_type env v.v_type;
    v_init =
      (match v.v_init with
       | NoInit -> NoInit
       | EqInit e -> EqInit (subst_expr env e)
       | CtorInit es -> CtorInit (List.map (subst_expr env) es)) }

let subst_func env (f : func_def) : func_def =
  { f with
    f_ret = Option.map (subst_type env) f.f_ret;
    f_params = List.map (subst_param env) f.f_params;
    f_inits = List.map (fun (n, es) -> (n, List.map (subst_expr env) es)) f.f_inits;
    f_throw = Option.map (List.map (subst_type env)) f.f_throw;
    f_body = Option.map (subst_stmt env) f.f_body;
    f_name = subst_qual_name env f.f_name }

let rec subst_decl env (d : decl) : decl =
  let k =
    match d.d with
    | DNamespace (n, ds, r) -> DNamespace (n, List.map (subst_decl env) ds, r)
    | DClass c -> DClass (subst_class env c)
    | DEnum (n, items) ->
        DEnum (n, List.map (fun (s, e, l) -> (s, Option.map (subst_expr env) e, l)) items)
    | DTypedef (t, n) -> DTypedef (subst_type env t, n)
    | DFunction f -> DFunction (subst_func env f)
    | DVar v -> DVar (subst_var_decl env v)
    | DTemplate (ps, inner, text) ->
        (* a member template: its own parameters shadow the outer env *)
        let shadowed =
          List.filter_map
            (function
              | TP_type (n, _) -> Some n
              | TP_nontype (_, n, _) -> Some n
              | TP_template n -> Some n)
            ps
        in
        let env' = List.filter (fun (n, _) -> not (List.mem n shadowed)) env in
        DTemplate (ps, subst_decl env' inner, text)
    | DUsing (q, ns) -> DUsing (subst_qual_name env q, ns)
    | DAccess _ | DEmpty -> d.d
    | DFriend inner -> DFriend (subst_decl env inner)
    | DExplicitInst inner -> DExplicitInst (subst_decl env inner)
  in
  { d with d = k }

and subst_class env (c : class_def) : class_def =
  { c with
    c_name = Option.map (subst_name_part env) c.c_name;
    c_bases =
      List.map (fun b -> { b with b_name = subst_qual_name env b.b_name }) c.c_bases;
    c_members = List.map (subst_decl env) c.c_members }
