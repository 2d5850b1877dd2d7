(** An interpreter for elaborated IL programs — the dynamic-analysis
    substrate.

    The paper's TAU workflow compiles instrumented C++ and runs it natively;
    in this reproduction the instrumented program runs on this interpreter
    instead (see DESIGN.md, substitutions).  It executes the AST bodies the
    front end attached to IL routines, dispatching member calls dynamically
    (so virtual dispatch falls out of the object's dynamic class), with:

    - a deterministic virtual-cycle cost model, so profiles are reproducible;
    - builtin implementations of the mini-STL ([vector], [ostream],
      [string]) and of the TAU measurement macros ([TAU_PROFILE], [CT]);
    - C++ exceptions mapped onto OCaml exceptions.

    A step does no name resolution of its own.  Block scopes are immutable
    association lists, saved and restored around a block.  Member and
    constructor candidates, overload picks, per-routine parameter facts,
    free routines, free operators, enum constants and the classes AST types
    name come from tables in [t], each entry computed at most once per run;
    the cycle and step counters are native ints.  A table may skip work,
    never a tick: a step charges the same cycles whether its lookups hit a
    table or not, so profiles stay byte-identical
    (test/golden/tau_profiles.txt pins them). *)

open Pdt_il
open Il
module Ast = Pdt_ast.Ast
module Rt = Runtime

exception Runtime_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type value =
  | Vunit
  | Vint of int64
  | Vdouble of float
  | Vbool of bool
  | Vchar of int
  | Vstr of string
  | Vobj of obj
  | Vptr of value ref
  | Vnull
  | Varr of value ref array

and obj = {
  o_class : Il.class_id;
  o_fields : (string, value ref) Hashtbl.t;
  mutable o_builtin : builtin option;
}

and builtin =
  | Bvector of value ref array ref * int ref  (** storage, logical size *)
  | Bostream                                   (** writes to the state's output *)
  | Bstring of string ref

(* C++ control flow *)
exception Return_exc of value
exception Break_exc
exception Continue_exc
exception Cpp_exception of value

type frame = {
  mutable scope : (string * value ref) list;  (** innermost binding first *)
  f_this : obj option;
  mutable f_timers : int;  (** TAU timers opened in this frame *)
  f_ret_ref : bool;  (** the routine returns a reference (T &) *)
}

(* The candidate routines of one kind of call, with the overload picked for
   each list of argument kind tags (see [pick]). *)
type cands = {
  routines : Il.routine_entity list;
  picks : (int list, Il.routine_entity option) Hashtbl.t;
}

(* What [invoke] needs to know of a routine on every call. *)
type routine_facts = {
  ret_ref : bool;  (** returns a reference (T &) *)
  params : (Il.param_info * bool) list;  (** with "bound by reference" *)
}

type t = {
  prog : Il.program;
  globals : (string, value ref) Hashtbl.t;
  output : Buffer.t;
  profiler : Rt.t;
  mutable cycles : int;
  mutable steps : int;
  max_steps : int;
  mutable depth : int;
  instrumented : bool;  (** whether TAU_PROFILE statements are honoured *)
  mpi : int * int;      (** simulated (rank, size) for mpi_rank()/mpi_size() *)
  (* Lookup tables; the IL is immutable during execution. *)
  class_by_name : (string, Il.class_id) Hashtbl.t;  (** display name -> class *)
  type_classes : (Ast.type_expr, Il.class_id option) Hashtbl.t;
      (** the class an AST type names, keyed by structure; filled on use *)
  members : (Il.class_id * string, cands) Hashtbl.t;
      (** member functions by name, inherited ones included; filled on use *)
  ctors : (Il.class_id, cands) Hashtbl.t;  (** filled on use *)
  facts : (Il.routine_id, routine_facts) Hashtbl.t;  (** filled on use *)
  free_routines : (string, cands) Hashtbl.t;  (** non-members, by name *)
  free_operators : (string, cands) Hashtbl.t;  (** parentless routines, by name *)
  enum_constants : (string, int64) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Cost model (deterministic virtual cycles)                           *)
(* ------------------------------------------------------------------ *)

let cost_expr = 1
let cost_call = 5

let tick t c =
  t.cycles <- t.cycles + c;
  t.steps <- t.steps + 1;
  if t.steps > t.max_steps then error "step limit exceeded (infinite loop?)"

(* ------------------------------------------------------------------ *)
(* Helpers over the IL                                                 *)
(* ------------------------------------------------------------------ *)

let class_base_name (c : Il.class_entity) =
  match String.index_opt c.cl_name '<' with
  | Some i -> String.sub c.cl_name 0 i
  | None -> c.cl_name

let rec member_funcs t (cl : Il.class_id) name : Il.routine_entity list =
  let c = Il.class_ t.prog cl in
  match Il.find_member_funcs t.prog c name with
  | [] ->
      let rec through = function
        | [] -> []
        | (b : Il.base_spec) :: rest -> (
            match member_funcs t b.ba_class name with
            | [] -> through rest
            | fs -> fs)
      in
      through c.cl_bases
  | fs -> fs

let rec all_data_members t (cl : Il.class_id) : Il.data_member list =
  let c = Il.class_ t.prog cl in
  List.concat_map (fun (b : Il.base_spec) -> all_data_members t b.ba_class) c.cl_bases
  @ c.cl_members

(* dynamic overload pick: by arity, then by value-kind proximity *)
let pick_overload_dyn t (cands : Il.routine_entity list) (args : value list) :
    Il.routine_entity option =
  let nargs = List.length args in
  let viable =
    List.filter
      (fun (r : Il.routine_entity) ->
        let nparams = List.length r.ro_params in
        let required =
          List.length (List.filter (fun p -> not p.pi_has_default) r.ro_params)
        in
        let ellipsis =
          match (Il.type_ t.prog r.ro_sig).ty_kind with
          | Tfunc { ellipsis; _ } -> ellipsis
          | _ -> false
        in
        nargs >= required && (nargs <= nparams || ellipsis))
      cands
  in
  let kind_score (p : Il.param_info) (v : value) =
    let pty = Il.strip_qual_ref t.prog p.pi_type in
    match ((Il.type_ t.prog pty).ty_kind, v) with
    | Tclass pc, Vobj o -> if pc = o.o_class then 3 else 2
    | Tclass _, _ -> 0
    | Tbuiltin { ykind = "int"; _ }, Vint _ -> 3
    | Tbuiltin { ykind = "float"; _ }, Vdouble _ -> 3
    | Tbuiltin { ykind = "bool"; _ }, Vbool _ -> 3
    | Tbuiltin { ykind = "char"; _ }, Vchar _ -> 3
    | Tbuiltin _, (Vint _ | Vdouble _ | Vbool _ | Vchar _) -> 2
    | Tptr _, (Vptr _ | Vnull | Vstr _) -> 3
    | _ -> 1
  in
  let score (r : Il.routine_entity) =
    let rec go ps vs acc =
      match (ps, vs) with
      | _, [] | [], _ -> acc
      | p :: ps', v :: vs' -> go ps' vs' (acc + kind_score p v)
    in
    go r.ro_params args 0
  in
  List.fold_left
    (fun best r ->
      match best with
      | None -> Some r
      | Some b -> if score r > score b then Some r else best)
    None viable

(* ------------------------------------------------------------------ *)
(* Dispatch tables                                                     *)
(* ------------------------------------------------------------------ *)

(* [tbl]'s entry for [key], computed by [compute t key] on first use *)
let memo tbl compute t key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = compute t key in
      Hashtbl.add tbl key v;
      v

let cands routines = { routines; picks = Hashtbl.create 4 }

(* [pick_overload_dyn] sees of an argument only its constructor and, for an
   object, its class: the tag carries exactly that *)
let kind_tag = function
  | Vunit -> 0
  | Vint _ -> 1
  | Vdouble _ -> 2
  | Vbool _ -> 3
  | Vchar _ -> 4
  | Vstr _ -> 5
  | Vptr _ -> 6
  | Vnull -> 7
  | Varr _ -> 8
  | Vobj o -> 9 + o.o_class

let pick t (c : cands) (args : value list) : Il.routine_entity option =
  match c.routines with
  | [] -> None
  | routines -> (
      let tags = List.map kind_tag args in
      match Hashtbl.find_opt c.picks tags with
      | Some r -> r
      | None ->
          let r = pick_overload_dyn t routines args in
          Hashtbl.add c.picks tags r;
          r)

let member_cands t (cl : Il.class_id) name : cands =
  memo t.members (fun t (cl, name) -> cands (member_funcs t cl name)) t (cl, name)

let ctor_cands t (cl : Il.class_id) : cands =
  memo t.ctors
    (fun t cl ->
      cands
        (List.filter (fun r -> r.ro_kind = Rk_ctor)
           (List.map (Il.routine t.prog) (Il.class_ t.prog cl).cl_funcs)))
    t cl

let routine_facts t (r : Il.routine_entity) : routine_facts =
  memo t.facts
    (fun t id ->
      let r = Il.routine t.prog id in
      let is_ref ty = match (Il.type_ t.prog ty).ty_kind with Tref _ -> true | _ -> false in
      let ret_ref =
        match (Il.type_ t.prog r.ro_sig).ty_kind with
        | Tfunc { rett; _ } -> is_ref rett
        | _ -> false
      in
      let by_ref (p : Il.param_info) =
        match (Il.type_ t.prog p.pi_type).ty_kind with
        | Tref _ -> true
        | Tqual { base; _ } -> is_ref base
        | _ -> false
      in
      { ret_ref; params = List.map (fun p -> (p, by_ref p)) r.ro_params })
    t r.ro_id

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let rec copy_value (v : value) : value =
  match v with
  | Vobj o -> Vobj (copy_obj o)
  | v -> v

and copy_obj (o : obj) : obj =
  let fields = Hashtbl.create (Hashtbl.length o.o_fields) in
  Hashtbl.iter (fun k cell -> Hashtbl.replace fields k (ref (copy_value !cell))) o.o_fields;
  { o_class = o.o_class;
    o_fields = fields;
    o_builtin =
      (match o.o_builtin with
       | Some (Bvector (store, size)) ->
           Some
             (Bvector
                (ref (Array.map (fun c -> ref (copy_value !c)) !store), ref !size))
       | Some (Bstring s) -> Some (Bstring (ref !s))
       | (Some Bostream | None) as b -> b) }

let truthy = function
  | Vbool b -> b
  | Vint n -> n <> 0L
  | Vdouble f -> f <> 0.0
  | Vchar c -> c <> 0
  | Vnull -> false
  | Vptr _ -> true
  | Vstr s -> s <> ""
  | Vunit -> false
  | Vobj _ | Varr _ -> true

let to_float = function
  | Vint n -> Int64.to_float n
  | Vdouble f -> f
  | Vbool b -> if b then 1.0 else 0.0
  | Vchar c -> float_of_int c
  | _ -> error "expected numeric value"

let to_int = function
  | Vint n -> n
  | Vdouble f -> Int64.of_float f
  | Vbool b -> if b then 1L else 0L
  | Vchar c -> Int64.of_int c
  | Vnull -> 0L
  | _ -> error "expected integer value"

let value_to_display_string = function
  | Vint n -> Int64.to_string n
  | Vdouble f ->
      (* C++ iostream default formatting: up to 6 significant digits *)
      let s = Printf.sprintf "%.6g" f in
      s
  | Vbool b -> if b then "1" else "0"
  | Vchar c -> String.make 1 (Char.chr (c land 0xff))
  | Vstr s -> s
  | Vnull -> "0"
  | Vunit -> ""
  | Vptr _ -> "<ptr>"
  | Vobj _ -> "<object>"
  | Varr _ -> "<array>"

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* the routines [keep] selects, grouped by name, each group in Hashtbl.iter
   order reversed unless [order] sorts it *)
let routines_by_name (prog : Il.program) keep order : (string, cands) Hashtbl.t =
  let groups = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (r : Il.routine_entity) ->
      if keep r then
        Hashtbl.replace groups r.ro_name
          (r :: Option.value (Hashtbl.find_opt groups r.ro_name) ~default:[]))
    prog.Il.routines;
  let by_name = Hashtbl.create (Hashtbl.length groups) in
  Hashtbl.iter (fun name rs -> Hashtbl.replace by_name name (cands (order rs))) groups;
  by_name

let create ?(instrumented = true) ?(tracing = false) ?callpath ?throttle
    ?(max_steps = 50_000_000L) ?(mpi = (0, 1)) (prog : Il.program) : t =
  let class_by_name = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id (c : Il.class_entity) ->
      if not (Hashtbl.mem class_by_name c.cl_name) then
        Hashtbl.replace class_by_name c.cl_name id)
    prog.Il.classes;
  let free_routines =
    routines_by_name prog
      (fun r -> match r.ro_parent with Pclass _ -> false | _ -> true)
      (List.sort (fun a b -> compare a.Il.ro_id b.Il.ro_id))
  in
  (* unsorted: the candidate order decides overload ties *)
  let free_operators = routines_by_name prog (fun r -> r.ro_parent = Pnone) Fun.id in
  (* the first enum (in table order) that declares a name wins *)
  let enum_constants = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (ty : Il.type_entity) ->
      match ty.ty_kind with
      | Tenum { constants; _ } ->
          List.iter
            (fun (n, v, _) ->
              if not (Hashtbl.mem enum_constants n) then Hashtbl.replace enum_constants n v)
            constants
      | _ -> ())
    prog.Il.types;
  let max_steps =
    if Int64.compare max_steps (Int64.of_int max_int) > 0 then max_int
    else Int64.to_int max_steps
  in
  { prog; globals = Hashtbl.create 64; output = Buffer.create 256;
    profiler = Rt.create ~tracing ?callpath ?throttle (); cycles = 0; steps = 0;
    max_steps; depth = 0; instrumented = true && instrumented; mpi; class_by_name;
    type_classes = Hashtbl.create 16;
    members = Hashtbl.create 64; ctors = Hashtbl.create 16; facts = Hashtbl.create 64;
    free_routines; free_operators; enum_constants }

(* type name of a value, used by the CT() macro *)
let type_name_of_value t = function
  | Vint _ -> "int"
  | Vdouble _ -> "double"
  | Vbool _ -> "bool"
  | Vchar _ -> "char"
  | Vstr _ -> "const char *"
  | Vobj o -> (Il.class_ t.prog o.o_class).cl_name
  | Vptr _ -> "<ptr>"
  | Vnull -> "<null>"
  | Vunit -> "void"
  | Varr _ -> "<array>"

(* default value for a type *)
let rec default_value t (ty : Il.type_id) : value =
  match (Il.type_ t.prog ty).ty_kind with
  | Tbuiltin { ykind = "int"; _ } -> Vint 0L
  | Tbuiltin { ykind = "float"; _ } -> Vdouble 0.0
  | Tbuiltin { ykind = "bool"; _ } -> Vbool false
  | Tbuiltin { ykind = "char"; _ } -> Vchar 0
  | Tbuiltin _ -> Vint 0L
  | Tqual { base; _ } -> default_value t base
  | Tref _ | Tptr _ -> Vnull
  | Tarray (elem, Some n) -> Varr (Array.init n (fun _ -> ref (default_value t elem)))
  | Tarray (_, None) -> Vnull
  | Tclass cl -> Vobj (make_object t cl)
  | Tenum _ -> Vint 0L
  | Tfunc _ | Ttparam _ | Terror -> Vnull

(* allocate an object with default-initialized fields (no ctor run) *)
and make_object t (cl : Il.class_id) : obj =
  let c = Il.class_ t.prog cl in
  let o = { o_class = cl; o_fields = Hashtbl.create 8; o_builtin = None } in
  (match class_base_name c with
   | "vector" -> o.o_builtin <- Some (Bvector (ref [||], ref 0))
   | "ostream" -> o.o_builtin <- Some Bostream
   | "string" -> o.o_builtin <- Some (Bstring (ref ""))
   | _ ->
       List.iter
         (fun (m : Il.data_member) ->
           if not m.dm_static then
             Hashtbl.replace o.o_fields m.dm_name (ref (default_value t m.dm_type)))
         (all_data_members t cl));
  o

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* run [k] in a nested block: the bindings it makes are dropped on every
   exit, normal or exceptional *)
let in_block (f : frame) k =
  let saved = f.scope in
  match k () with
  | () -> f.scope <- saved
  | exception e ->
      f.scope <- saved;
      raise e

let bind_local (f : frame) name cell = f.scope <- (name, cell) :: f.scope

let rec find_local scope name =
  match scope with
  | [] -> None
  | (n, c) :: rest -> if String.equal n name then Some c else find_local rest name

let lookup_cell t (f : frame) name : value ref option =
  match find_local f.scope name with
  | Some c -> Some c
  | None -> (
      (* implicit this->field *)
      match f.f_this with
      | Some o when Hashtbl.mem o.o_fields name -> Hashtbl.find_opt o.o_fields name
      | _ -> Hashtbl.find_opt t.globals name)

(* ------------------------------------------------------------------ *)
(* Binary operations on scalars                                        *)
(* ------------------------------------------------------------------ *)

let rec arith_binop op (a : value) (b : value) : value =
  let is_float = match (a, b) with Vdouble _, _ | _, Vdouble _ -> true | _ -> false in
  let bool v = Vbool v in
  match op with
  | "+" when is_float -> Vdouble (to_float a +. to_float b)
  | "-" when is_float -> Vdouble (to_float a -. to_float b)
  | "*" when is_float -> Vdouble (to_float a *. to_float b)
  | "/" when is_float -> Vdouble (to_float a /. to_float b)
  | "+" -> (
      match (a, b) with
      | Vstr x, Vstr y -> Vstr (x ^ y)
      | _ -> Vint (Int64.add (to_int a) (to_int b)))
  | "-" -> Vint (Int64.sub (to_int a) (to_int b))
  | "*" -> Vint (Int64.mul (to_int a) (to_int b))
  | "/" ->
      let d = to_int b in
      if d = 0L then raise (Cpp_exception (Vstr "division by zero"))
      else Vint (Int64.div (to_int a) d)
  | "%" ->
      let d = to_int b in
      if d = 0L then raise (Cpp_exception (Vstr "division by zero"))
      else Vint (Int64.rem (to_int a) d)
  | "<<" -> Vint (Int64.shift_left (to_int a) (Int64.to_int (to_int b)))
  | ">>" -> Vint (Int64.shift_right (to_int a) (Int64.to_int (to_int b)))
  | "&" -> Vint (Int64.logand (to_int a) (to_int b))
  | "|" -> Vint (Int64.logor (to_int a) (to_int b))
  | "^" -> Vint (Int64.logxor (to_int a) (to_int b))
  | "==" ->
      (match (a, b) with
       | Vstr x, Vstr y -> bool (x = y)
       | Vnull, (Vnull | Vptr _) | Vptr _, Vnull -> bool (a = Vnull && b = Vnull)
       | Vptr x, Vptr y -> bool (x == y)
       | _ when is_float -> bool (to_float a = to_float b)
       | _ -> bool (to_int a = to_int b))
  | "!=" -> (
      match arith_binop "==" a b with Vbool v -> bool (not v) | _ -> assert false)
  | "<" ->
      (match (a, b) with
       | Vstr x, Vstr y -> bool (x < y)
       | _ when is_float -> bool (to_float a < to_float b)
       | _ -> bool (to_int a < to_int b))
  | ">" ->
      (match (a, b) with
       | Vstr x, Vstr y -> bool (x > y)
       | _ when is_float -> bool (to_float a > to_float b)
       | _ -> bool (to_int a > to_int b))
  | "<=" -> (
      match arith_binop ">" a b with Vbool v -> bool (not v) | _ -> assert false)
  | ">=" -> (
      match arith_binop "<" a b with Vbool v -> bool (not v) | _ -> assert false)
  | op -> error "unsupported binary operator '%s'" op

(* ------------------------------------------------------------------ *)
(* Builtin class methods                                               *)
(* ------------------------------------------------------------------ *)

let vector_grow store size n =
  if n > Array.length !store then begin
    let bigger = Array.init (max n (2 * Array.length !store + 1)) (fun i ->
        if i < Array.length !store then !store.(i) else ref (Vint 0L))
    in
    store := bigger
  end;
  if n > !size then size := n

let builtin_method t (o : obj) (name : string) (args : value list) : value option =
  match (o.o_builtin, name) with
  | Some (Bvector (store, size)), _ -> (
      match (name, args) with
      | "vector", [] -> Some Vunit
      | "vector", [ n ] ->
          vector_grow store size (Int64.to_int (to_int n));
          Some Vunit
      | "~vector", _ -> Some Vunit
      | "size", [] -> Some (Vint (Int64.of_int !size))
      | "capacity", [] -> Some (Vint (Int64.of_int (Array.length !store)))
      | "empty", [] -> Some (Vbool (!size = 0))
      | "push_back", [ v ] ->
          vector_grow store size (!size + 1);
          !store.(!size - 1) := copy_value v;
          Some Vunit
      | "pop_back", [] ->
          if !size > 0 then size := !size - 1;
          Some Vunit
      | "operator[]", [ i ] ->
          let i = Int64.to_int (to_int i) in
          if i < 0 then raise (Cpp_exception (Vstr "vector index negative"))
          else begin
            vector_grow store size (i + 1);
            Some (Vptr !store.(i))  (* reference into the vector *)
          end
      | "front", [] -> if !size > 0 then Some (Vptr !store.(0)) else Some Vnull
      | "back", [] -> if !size > 0 then Some (Vptr !store.(!size - 1)) else Some Vnull
      | "clear", [] ->
          size := 0;
          Some Vunit
      | "resize", [ n ] ->
          let n = Int64.to_int (to_int n) in
          vector_grow store size n;
          size := n;
          Some Vunit
      | "reserve", [ n ] ->
          vector_grow store (ref !size) (Int64.to_int (to_int n));
          Some Vunit
      | _ -> None)
  | Some Bostream, "operator<<" -> (
      match args with
      | [ v ] ->
          Buffer.add_string t.output (value_to_display_string v);
          Some (Vobj o)
      | _ -> None)
  | Some (Bstring s), _ -> (
      match (name, args) with
      | "string", [] -> Some Vunit
      | "string", [ Vstr x ] ->
          s := x;
          Some Vunit
      | ("length" | "size"), [] -> Some (Vint (Int64.of_int (String.length !s)))
      | "empty", [] -> Some (Vbool (!s = ""))
      | "operator[]", [ i ] ->
          let i = Int64.to_int (to_int i) in
          if i >= 0 && i < String.length !s then Some (Vchar (Char.code !s.[i]))
          else Some (Vchar 0)
      | "operator+", [ other ] -> (
          match other with
          | Vobj { o_builtin = Some (Bstring s2); _ } ->
              let res = make_object t o.o_class in
              (match res.o_builtin with
               | Some (Bstring r) -> r := !s ^ !s2
               | _ -> ());
              Some (Vobj res)
          | Vstr x ->
              let res = make_object t o.o_class in
              (match res.o_builtin with
               | Some (Bstring r) -> r := !s ^ x
               | _ -> ());
              Some (Vobj res)
          | _ -> None)
      | "operator==", [ Vobj { o_builtin = Some (Bstring s2); _ } ] ->
          Some (Vbool (!s = !s2))
      | "operator<", [ Vobj { o_builtin = Some (Bstring s2); _ } ] ->
          Some (Vbool (!s < !s2))
      | "c_str", [] -> Some (Vstr !s)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* rvalue conversion: collapse references *)
let rec rvalue (v : value) : value =
  match v with Vptr cell when true -> rvalue_cell cell v | v -> v

and rvalue_cell cell orig =
  (* Vptr doubles as both pointer and reference; references auto-deref only
     through [deref_ref] at use sites, so keep pointers intact here *)
  ignore cell;
  orig

(* explicit reference dereference used where a value (not a cell) is needed *)
let deref = function Vptr cell -> !cell | v -> v

let rec eval t (f : frame) (e : Ast.expr) : value =
  tick t cost_expr;
  match e.Ast.e with
  | Ast.IntE n -> Vint n
  | Ast.FloatE x -> Vdouble x
  | Ast.CharE c -> Vchar c
  | Ast.StringE s -> Vstr s
  | Ast.BoolE b -> Vbool b
  | Ast.ThisE -> (
      (* 'this' is a pointer: wrap the receiver so *this and this->f work *)
      match f.f_this with
      | Some o -> Vptr (ref (Vobj o))
      | None -> error "'this' outside of member function")
  | Ast.IdE q -> deref (eval_name t f q)
  | Ast.Unary ("&", a) -> (
      match eval_lval t f a with
      | Some cell -> Vptr cell
      | None -> Vptr (ref (eval t f a)))
  | Ast.Unary ("*", a) -> (
      match eval t f a with
      | Vptr cell -> !cell
      | Vobj o -> (
          (* operator* on an object *)
          match call_method t o "operator*" [] with
          | Some v -> v
          | None -> error "no operator* on object")
      | Vnull -> raise (Cpp_exception (Vstr "null pointer dereference"))
      | v -> v)
  | Ast.Unary ("!", a) -> Vbool (not (truthy (deref (eval t f a))))
  | Ast.Unary ("-", a) -> (
      match deref (eval t f a) with
      | Vdouble x -> Vdouble (-.x)
      | v -> Vint (Int64.neg (to_int v)))
  | Ast.Unary ("+", a) -> deref (eval t f a)
  | Ast.Unary ("~", a) -> Vint (Int64.lognot (to_int (deref (eval t f a))))
  | Ast.Unary (("++" | "--") as op, a) -> (
      match eval_lval t f a with
      | Some cell ->
          let dv = if op = "++" then 1L else -1L in
          (match !cell with
           | Vdouble x -> cell := Vdouble (x +. Int64.to_float dv)
           | v -> cell := Vint (Int64.add (to_int v) dv));
          !cell
      | None -> (
          let v = deref (eval t f a) in
          match v with
          | Vobj o -> (
              match call_method t o ("operator" ^ op) [] with
              | Some r -> r
              | None -> error "no operator%s" op)
          | _ -> error "cannot increment non-lvalue"))
  | Ast.Unary (op, a) -> (
      match deref (eval t f a) with
      | Vobj o -> (
          match call_method t o ("operator" ^ op) [] with
          | Some v -> v
          | None -> error "no operator%s on object" op)
      | _ -> error "unsupported unary '%s'" op)
  | Ast.Postfix (("++" | "--") as op, a) -> (
      match eval_lval t f a with
      | Some cell ->
          let old = !cell in
          let dv = if op = "++" then 1L else -1L in
          (match old with
           | Vdouble x -> cell := Vdouble (x +. Int64.to_float dv)
           | v -> cell := Vint (Int64.add (to_int v) dv));
          old
      | None -> error "cannot increment non-lvalue")
  | Ast.Postfix (op, _) -> error "unsupported postfix '%s'" op
  | Ast.Binary ("&&", a, b) ->
      Vbool (truthy (deref (eval t f a)) && truthy (deref (eval t f b)))
  | Ast.Binary ("||", a, b) ->
      Vbool (truthy (deref (eval t f a)) || truthy (deref (eval t f b)))
  | Ast.Binary (op, a, b) -> (
      let va = deref (eval t f a) in
      match va with
      | Vobj o -> (
          let vb = deref (eval t f b) in
          match call_method t o ("operator" ^ op) [ vb ] with
          | Some v -> v
          | None -> (
              match free_operator t f op [ Vobj o; vb ] with
              | Some v -> v
              | None -> error "no operator%s for class %s" op
                          (Il.class_ t.prog o.o_class).cl_name))
      | _ ->
          let vb = deref (eval t f b) in
          (match vb with
           | Vobj o2 -> (
               (* e.g. 1 + obj via free operator *)
               match free_operator t f op [ va; Vobj o2 ] with
               | Some v -> v
               | None -> arith_binop op va vb)
           | _ -> arith_binop op va vb))
  | Ast.Assign (op, a, b) -> (
      let vb = deref (eval t f b) in
      match eval_lval t f a with
      | Some cell -> (
          match (!cell, op) with
          | Vobj o, _ when (Il.find_member_funcs t.prog (Il.class_ t.prog o.o_class)
                              ("operator" ^ op)) <> [] -> (
              match call_method t o ("operator" ^ op) [ vb ] with
              | Some v -> v
              | None -> error "operator%s failed" op)
          | Vobj o, "=" when o.o_builtin <> None -> (
              (* builtin copy assignment *)
              match vb with
              | Vobj src ->
                  let copy = copy_obj src in
                  (match (o.o_builtin, copy.o_builtin) with
                   | Some (Bvector (st, sz)), Some (Bvector (st', sz')) ->
                       st := !st';
                       sz := !sz'
                   | Some (Bstring s), Some (Bstring s') -> s := !s'
                   | _ -> ());
                  Vobj o
              | _ -> error "cannot assign non-object to builtin object")
          | _, "=" ->
              cell := copy_value vb;
              !cell
          | cur, _ ->
              let base_op = String.sub op 0 (String.length op - 1) in
              (match cur with
               | Vobj o -> (
                   match call_method t o ("operator" ^ op) [ vb ] with
                   | Some v -> v
                   | None -> error "no operator%s" op)
               | _ ->
                   cell := arith_binop base_op cur vb;
                   !cell))
      | None -> error "cannot assign to non-lvalue")
  | Ast.Cond (c, a, b) ->
      if truthy (deref (eval t f c)) then deref (eval t f a) else deref (eval t f b)
  | Ast.Call (callee, args) -> eval_call t f callee args
  | Ast.Member (oe, _, m) -> deref (eval_member t f oe m)
  | Ast.Index (a, i) -> (
      let va = deref (eval t f a) in
      let vi = deref (eval t f i) in
      match va with
      | Vobj o -> (
          match call_method t o "operator[]" [ vi ] with
          | Some v -> deref v
          | None -> error "no operator[] on class %s" (Il.class_ t.prog o.o_class).cl_name)
      | Varr cells ->
          let idx = Int64.to_int (to_int vi) in
          if idx < 0 || idx >= Array.length cells then
            raise (Cpp_exception (Vstr "array index out of range"))
          else !(cells.(idx))
      | Vptr cell -> (
          match !cell with
          | Varr cells ->
              let idx = Int64.to_int (to_int vi) in
              if idx < 0 || idx >= Array.length cells then
                raise (Cpp_exception (Vstr "array index out of range"))
              else !(cells.(idx))
          | v when to_int vi = 0L -> v
          | _ -> error "unsupported pointer indexing")
      | Vstr s ->
          let idx = Int64.to_int (to_int vi) in
          if idx >= 0 && idx < String.length s then Vchar (Char.code s.[idx]) else Vchar 0
      | _ -> error "cannot index this value")
  | Ast.CCast (ty, a) | Ast.NamedCast (_, ty, a) -> (
      let v = deref (eval t f a) in
      (* scalar conversions really convert; class/pointer casts pass through *)
      match Ast.unqual ty with
      | Ast.TBuiltin { base = `Int; _ } -> Vint (to_int v)
      | Ast.TBuiltin { base = `Double; _ } | Ast.TBuiltin { base = `Float; _ } ->
          Vdouble (to_float v)
      | Ast.TBuiltin { base = `Bool; _ } -> Vbool (truthy v)
      | Ast.TBuiltin { base = `Char; _ } -> Vchar (Int64.to_int (to_int v) land 0xff)
      | _ -> v)
  | Ast.Construct (ty, args) -> construct_from_type t f ty args e.Ast.eloc
  | Ast.New (ty, args, None) ->
      let v = construct_from_type t f ty (Option.value args ~default:[]) e.Ast.eloc in
      Vptr (ref v)
  | Ast.New (ty, _, Some n) ->
      let n = Int64.to_int (to_int (deref (eval t f n))) in
      let elem () =
        match lookup_class_of_asttype t ty with
        | Some cl -> Vobj (make_object t cl)
        | None -> Vint 0L
      in
      Vptr (ref (Varr (Array.init (max n 0) (fun _ -> ref (elem ())))))
  | Ast.Delete (_, a) ->
      ignore (eval t f a);
      Vunit
  | Ast.SizeofE _ | Ast.SizeofT _ -> Vint 8L
  | Ast.ThrowE (Some a) -> raise (Cpp_exception (deref (eval t f a)))
  | Ast.ThrowE None -> raise (Cpp_exception Vnull)
  | Ast.Comma (a, b) ->
      ignore (eval t f a);
      deref (eval t f b)

(* find the IL class named by an AST type (display-name based) *)
and lookup_class_of_asttype t (ty : Ast.type_expr) : Il.class_id option =
  memo t.type_classes
    (fun t ty -> Hashtbl.find_opt t.class_by_name (Ast.type_to_string (Ast.unqual ty)))
    t ty

and construct_from_type t f (ty : Ast.type_expr) (args : Ast.expr list) loc : value =
  ignore loc;
  let vargs = List.map (fun a -> deref (eval t f a)) args in
  match lookup_class_of_asttype t ty with
  | Some cl -> construct t cl vargs
  | None
    when (match ty with
          | Ast.TName { parts; _ } -> List.length parts >= 2
          | _ -> false) -> (
      (* qualified call parsed as a cast: Class::static_member(args) *)
      match ty with
      | Ast.TName { parts; global } -> (
          let front = List.filteri (fun i _ -> i < List.length parts - 1) parts in
          let last = List.nth parts (List.length parts - 1) in
          let cname =
            Ast.qual_name_to_string { Ast.global; parts = front }
          in
          match find_class_by_name t cname with
          | Some cl -> (
              let c = member_cands t cl last.Ast.id in
              if c.routines = [] then error "no member '%s' in %s" last.Ast.id cname;
              match pick t c vargs with
              | Some r -> invoke t r None vargs
              | None -> error "no viable overload for %s::%s" cname last.Ast.id)
          | None -> error "unknown class '%s'" cname)
      | _ -> assert false)
  | None -> (
      (* scalar functional cast *)
      match (Ast.unqual ty, vargs) with
      | _, [] -> Vint 0L
      | Ast.TBuiltin { base = `Double; _ }, [ v ] -> Vdouble (to_float v)
      | Ast.TBuiltin { base = `Float; _ }, [ v ] -> Vdouble (to_float v)
      | Ast.TBuiltin { base = `Bool; _ }, [ v ] -> Vbool (truthy v)
      | Ast.TBuiltin { base = `Char; _ }, [ v ] -> Vchar (Int64.to_int (to_int v))
      | _, [ v ] -> (
          match v with
          | Vdouble _ -> Vint (to_int v)
          | v -> v)
      | _, v :: _ -> v)

(* construct an object of class [cl] with the given argument values *)
and construct t (cl : Il.class_id) (args : value list) : value =
  let o = make_object t cl in
  match args with
  | [ Vobj src ] when src.o_class = cl ->
      (* copy ctor semantics *)
      let copied = copy_obj src in
      Hashtbl.reset o.o_fields;
      Hashtbl.iter (fun k v -> Hashtbl.replace o.o_fields k v) copied.o_fields;
      o.o_builtin <- copied.o_builtin;
      Vobj o
  | _ ->
      let c = Il.class_ t.prog cl in
      let ctor_name = class_base_name c in
      (match builtin_method t o ctor_name args with
       | Some _ -> Vobj o
       | None ->
           (match pick t (ctor_cands t cl) args with
            | Some ctor when ctor.ro_defined || ctor.ro_body <> None ->
                run_ctor t o cl ctor args
            | Some _ | None ->
                (* implicit / trivial constructor: still construct bases and
                   class-typed fields *)
                construct_bases_and_fields t o cl ~skip:[]);
           Vobj o)

(* run base-class and class-typed-field default constructors, except those
   named in [skip] (the explicit mem-initializer list) *)
and construct_bases_and_fields t (o : obj) (cl : Il.class_id) ~skip : unit =
  let c = Il.class_ t.prog cl in
  List.iter
    (fun (b : Il.base_spec) ->
      let bc = Il.class_ t.prog b.ba_class in
      let covered =
        List.mem bc.cl_name skip || List.mem (class_base_name bc) skip
      in
      if not covered then run_default_ctor t o b.ba_class)
    c.cl_bases;
  List.iter
    (fun (m : Il.data_member) ->
      if (not m.dm_static) && not (List.mem m.dm_name skip) then
        match Hashtbl.find_opt o.o_fields m.dm_name with
        | Some { contents = Vobj fo } -> run_default_ctor t fo fo.o_class
        | _ -> ())
    c.cl_members

and run_default_ctor t (o : obj) (cl : Il.class_id) : unit =
  let c = Il.class_ t.prog cl in
  match builtin_method t o (class_base_name c) [] with
  | Some _ -> ()
  | None -> (
      match pick t (ctor_cands t cl) [] with
      | Some ctor when ctor.ro_defined || ctor.ro_body <> None ->
          run_ctor t o cl ctor []
      | Some _ | None -> construct_bases_and_fields t o cl ~skip:[])

and run_ctor t (o : obj) (cl : Il.class_id) (ctor : Il.routine_entity)
    (args : value list) : unit =
  let skip = List.map fst ctor.ro_inits in
  construct_bases_and_fields t o cl ~skip;
  ignore (invoke t ctor (Some o) args)

(* evaluate a qualified name to a reference cell (wrapped as Vptr) or value *)
and eval_name t (f : frame) (q : Ast.qual_name) : value =
  match q.Ast.parts with
  | [ { id; _ } ] -> (
      match lookup_cell t f id with
      | Some cell -> Vptr cell
      | None -> (
          (* enum constants resolved by sema are... not in IL bodies; look in
             IL enums *)
          match Hashtbl.find_opt t.enum_constants id with
          | Some v -> Vint v
          | None -> error "unbound identifier '%s'" id))
  | parts -> (
      (* qualified: try enum constant Class::CONST or namespace variable *)
      let last = (List.nth parts (List.length parts - 1)).Ast.id in
      match Hashtbl.find_opt t.enum_constants last with
      | Some v -> Vint v
      | None -> (
          match Hashtbl.find_opt t.globals (Ast.qual_name_to_string q) with
          | Some cell -> Vptr cell
          | None -> (
              match Hashtbl.find_opt t.globals last with
              | Some cell -> Vptr cell
              | None -> error "unbound name '%s'" (Ast.qual_name_to_string q))))

(* lvalue evaluation: a mutable cell *)
and eval_lval t (f : frame) (e : Ast.expr) : value ref option =
  match e.Ast.e with
  | Ast.IdE q -> (
      match eval_name t f q with
      | Vptr cell -> Some cell
      | _ -> None)
  | Ast.Member (oe, _, m) -> (
      match eval_member t f oe m with
      | Vptr cell -> Some cell
      | _ -> None)
  | Ast.Index (a, i) -> (
      let va = deref (eval t f a) in
      let vi = deref (eval t f i) in
      match va with
      | Vobj o -> (
          match call_method t o "operator[]" [ vi ] with
          | Some (Vptr cell) -> Some cell
          | Some v -> Some (ref v)
          | None -> None)
      | Varr cells ->
          let idx = Int64.to_int (to_int vi) in
          if idx >= 0 && idx < Array.length cells then Some cells.(idx) else None
      | Vptr cell -> (
          match !cell with
          | Varr cells ->
              let idx = Int64.to_int (to_int vi) in
              if idx >= 0 && idx < Array.length cells then Some cells.(idx) else None
          | _ -> if to_int vi = 0L then Some cell else None)
      | _ -> None)
  | Ast.Unary ("*", a) -> (
      match deref (eval t f a) with
      | Vptr cell -> Some cell
      | _ -> None)
  | Ast.Call _ -> (
      (* calls returning T& yield a reference cell *)
      match eval t f e with
      | Vptr cell -> Some cell
      | _ -> None)
  | Ast.ThisE -> None
  | _ -> None

(* member access (field or zero-arg accessor reference): returns Vptr cell
   for fields *)
and eval_member t (f : frame) (oe : Ast.expr) (m : Ast.qual_name) : value =
  let recv = deref (eval t f oe) in
  let name = (Ast.last_part m).Ast.id in
  match recv with
  | Vobj o -> (
      match Hashtbl.find_opt o.o_fields name with
      | Some cell -> Vptr cell
      | None -> error "object of class %s has no field '%s'"
                  (Il.class_ t.prog o.o_class).cl_name name)
  | Vptr cell -> (
      match !cell with
      | Vobj o -> (
          match Hashtbl.find_opt o.o_fields name with
          | Some c -> Vptr c
          | None -> error "object has no field '%s'" name)
      | _ -> error "member access through non-object pointer")
  | Vnull -> raise (Cpp_exception (Vstr "null pointer member access"))
  | _ -> error "member access on non-object"

(* method call with dynamic dispatch *)
and call_method t (o : obj) (name : string) (args : value list) : value option =
  match builtin_method t o name args with
  | Some v -> Some v
  | None -> (
      match pick t (member_cands t o.o_class name) args with
      | Some r -> Some (invoke t r (Some o) args)
      | None -> None)

and free_operator t (f : frame) op (args : value list) : value option =
  ignore f;
  match Hashtbl.find_opt t.free_operators ("operator" ^ op) with
  | None -> None
  | Some c -> (
      match pick t c args with
      | Some r -> Some (invoke t r None args)
      | None -> None)

(* function-call expression *)
and eval_call t (f : frame) (callee : Ast.expr) (args : Ast.expr list) : value =
  match callee.Ast.e with
  | Ast.Member (oe, _, m) -> (
      let name = (Ast.last_part m).Ast.id in
      let recv = deref (eval t f oe) in
      let vargs = eval_args t f args in
      match recv with
      | Vobj o -> (
          match call_method t o name vargs with
          | Some v -> v
          | None -> error "no method '%s' on class %s" name
                      (Il.class_ t.prog o.o_class).cl_name)
      | Vptr cell -> (
          match !cell with
          | Vobj o -> (
              match call_method t o name vargs with
              | Some v -> v
              | None -> error "no method '%s'" name)
          | _ -> error "method call through non-object pointer")
      | Vnull -> raise (Cpp_exception (Vstr "null pointer method call"))
      | _ -> error "method call on non-object (%s)" name)
  | Ast.IdE q -> (
      let name = (Ast.last_part q).Ast.id in
      (* TAU measurement builtins *)
      match name with
      | "TAU_PROFILE" -> tau_profile t f args
      | "mpi_rank" -> Vint (Int64.of_int (fst t.mpi))
      | "mpi_size" -> Vint (Int64.of_int (snd t.mpi))
      | "CT" -> (
          match args with
          | [ a ] -> Vstr (type_name_of_value t (deref (eval t f a)))
          | _ -> Vstr "<CT?>")
      | _ -> (
          let vargs = eval_args t f args in
          (* member function of this? *)
          match f.f_this with
          | Some o when (member_cands t o.o_class name).routines <> [] -> (
              match call_method t o name vargs with
              | Some v -> v
              | None -> error "member call '%s' failed" name)
          | _ -> (
              (* free function by its unqualified name *)
              match Hashtbl.find_opt t.free_routines name with
              | None -> (
                  (* constructor call: Class(args) where parser kept IdE *)
                  match find_class_by_name t (Ast.qual_name_to_string q) with
                  | Some cl -> construct t cl vargs
                  | None -> error "call to unknown function '%s'"
                              (Ast.qual_name_to_string q))
              | Some c -> (
                  match pick t c vargs with
                  | Some r -> invoke t r None vargs
                  | None -> error "no viable overload for '%s'" name))))
  | _ -> (
      let fv = deref (eval t f callee) in
      let vargs = eval_args t f args in
      match fv with
      | Vobj o -> (
          match call_method t o "operator()" vargs with
          | Some v -> v
          | None -> error "object is not callable")
      | _ -> error "value is not callable")

(* arguments pass references through so T& parameters can alias; a call
   runs once, its T& result already a Vptr *)
and eval_args t f args =
  List.map
    (fun (a : Ast.expr) ->
      match a.Ast.e with
      | Ast.Call _ -> eval t f a
      | _ -> (
          match eval_lval t f a with
          | Some cell -> Vptr cell
          | None -> deref (eval t f a)))
    args

and find_class_by_name t name : Il.class_id option =
  Hashtbl.find_opt t.class_by_name name

(* the TAU_PROFILE statement: start a timer bound to the current frame *)
and tau_profile t (f : frame) (args : Ast.expr list) : value =
  if t.instrumented then begin
    let name_of a = value_to_display_string (deref (eval t f a)) in
    let label =
      match args with
      | [ n ] -> name_of n
      | n :: ty :: _ ->
          let n = name_of n and ty = name_of ty in
          if ty = "" || ty = "0" then n else String.concat "" [ n; " ["; ty; "]" ]
      | [] -> "<unnamed>"
    in
    if Rt.enter t.profiler label ~now:(Int64.of_int t.cycles) then
      f.f_timers <- f.f_timers + 1
  end;
  Vunit

(* invoke a routine with an optional receiver *)
and invoke t (r : Il.routine_entity) (this_obj : obj option) (args : value list) :
    value =
  tick t cost_call;
  t.depth <- t.depth + 1;
  if t.depth > 10_000 then error "call stack overflow";
  let facts = routine_facts t r in
  let frame = { scope = []; f_this = this_obj; f_timers = 0; f_ret_ref = facts.ret_ref } in
  bind_params t frame facts.params args;
  (match this_obj with
   | Some o when r.ro_kind = Rk_ctor ->
       (* run member initializers *)
       List.iter
         (fun (name, init_args) ->
           let vargs = List.map (fun a -> deref (eval t frame a)) init_args in
           match Hashtbl.find_opt o.o_fields name with
           | Some cell -> (
               match (!cell, vargs) with
               | Vobj fo, _ -> (
                   let c = Il.class_ t.prog fo.o_class in
                   match builtin_method t fo (class_base_name c) vargs with
                   | Some _ -> ()
                   | None -> (
                       match pick t (ctor_cands t fo.o_class) vargs with
                       | Some ctor -> ignore (invoke t ctor (Some fo) vargs)
                       | None -> ()))
               | _, [ v ] -> cell := copy_value v
               | _, _ -> ())
           | None -> (
               (* base class initializer *)
               let c = Il.class_ t.prog o.o_class in
               let base =
                 List.find_opt
                   (fun (b : Il.base_spec) ->
                     class_base_name (Il.class_ t.prog b.ba_class) = name
                     || (Il.class_ t.prog b.ba_class).cl_name = name)
                   c.cl_bases
               in
               match base with
               | Some b -> (
                   match pick t (ctor_cands t b.ba_class) vargs with
                   | Some ctor -> ignore (invoke t ctor (Some o) vargs)
                   | None -> ())
               | None -> ()))
         r.ro_inits
   | _ -> ());
  match r.ro_body with
  | None ->
      (* undefined routine: builtin or no-op *)
      finish t frame Vunit
  | Some body -> (
      try
        exec_stmt t frame body;
        finish t frame Vunit
      with
      | Return_exc v -> finish t frame v
      | Cpp_exception _ as ex ->
          (* unwind this frame's timers, then propagate *)
          ignore (finish t frame Vunit);
          raise ex)

(* bind parameters: by-value params copy; reference params alias *)
and bind_params t frame params (args : value list) =
  match (params, args) with
  | [], _ -> ()
  | ((p : Il.param_info), by_ref) :: ps, arg :: rest ->
      let cell =
        match (arg, by_ref) with
        | Vptr c, true -> c
        | v, _ -> ref (copy_value (deref v))
      in
      (match p.pi_name with
       | Some n -> bind_local frame n cell
       | None -> ());
      bind_params t frame ps rest
  | (p, _) :: ps, [] ->
      (* default argument *)
      (match (p.pi_default, p.pi_name) with
       | Some d, Some n ->
           let v = deref (eval t frame d) in
           bind_local frame n (ref v)
       | _ -> ());
      bind_params t frame ps []

(* leave a frame: close the TAU timers it opened *)
and finish t frame v =
  for _ = 1 to frame.f_timers do
    Rt.exit_ t.profiler ~now:(Int64.of_int t.cycles)
  done;
  t.depth <- t.depth - 1;
  v

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec_stmt t (f : frame) (s : Ast.stmt) : unit =
  tick t cost_expr;
  match s.Ast.s with
  | Ast.SExpr None -> ()
  | Ast.SExpr (Some e) -> ignore (eval t f e)
  | Ast.SDecl vds -> List.iter (exec_local_decl t f) vds
  | Ast.SCompound ss -> in_block f (fun () -> List.iter (exec_stmt t f) ss)
  | Ast.SIf (c, a, b) ->
      if truthy (deref (eval t f c)) then exec_stmt t f a
      else Option.iter (exec_stmt t f) b
  | Ast.SWhile (c, body) -> (
      try
        while truthy (deref (eval t f c)) do
          try exec_stmt t f body with Continue_exc -> ()
        done
      with Break_exc -> ())
  | Ast.SDoWhile (body, c) -> (
      try
        let continue_ = ref true in
        while !continue_ do
          (try exec_stmt t f body with Continue_exc -> ());
          continue_ := truthy (deref (eval t f c))
        done
      with Break_exc -> ())
  | Ast.SFor (init, cond, step, body) -> (
      in_block f (fun () ->
          Option.iter (exec_stmt t f) init;
          try
            while
              match cond with
              | Some c -> truthy (deref (eval t f c))
              | None -> true
            do
              (try exec_stmt t f body with Continue_exc -> ());
              Option.iter (fun e -> ignore (eval t f e)) step
            done
          with Break_exc -> ()))
  | Ast.SReturn None -> raise (Return_exc Vunit)
  | Ast.SReturn (Some e) ->
      if f.f_ret_ref then
        (* preserve the reference so callers can assign through it *)
        match eval_lval t f e with
        | Some cell -> raise (Return_exc (Vptr cell))
        | None -> raise (Return_exc (eval t f e))
      else raise (Return_exc (deref (eval t f e)))
  | Ast.SBreak -> raise Break_exc
  | Ast.SContinue -> raise Continue_exc
  | Ast.SSwitch (e, cases) -> (
      let v = to_int (deref (eval t f e)) in
      let matching =
        let rec from = function
          | [] ->
              (* run default if present *)
              (match
                 List.find_opt (fun (c : Ast.switch_case) -> c.case_guard = None) cases
               with
               | Some d -> [ d ]
               | None -> [])
          | (c : Ast.switch_case) :: rest -> (
              match c.case_guard with
              | Some g when to_int (deref (eval t f g)) = v -> c :: rest
              | _ -> from rest)
        in
        from cases
      in
      try
        List.iter
          (fun (c : Ast.switch_case) -> List.iter (exec_stmt t f) c.case_body)
          matching
      with Break_exc -> ())
  | Ast.STry (body, handlers) -> (
      try exec_stmt t f body
      with Cpp_exception v ->
        let matches (h : Ast.handler) =
          match h.h_param with
          | None -> true
          | Some p -> (
              let rec strip = function
                | Ast.TConst ty | Ast.TVolatile ty | Ast.TRef ty -> strip ty
                | ty -> ty
              in
              match (v, strip p.Ast.ptype) with
              | Vobj o, ty -> (
                  let cname = Ast.type_to_string (Ast.unqual ty) in
                  let rec class_matches cl =
                    let c = Il.class_ t.prog cl in
                    c.cl_name = cname
                    || class_base_name c = cname
                    || List.exists
                         (fun (b : Il.base_spec) -> class_matches b.ba_class)
                         c.cl_bases
                  in
                  class_matches o.o_class)
              | Vint _, Ast.TBuiltin { base = `Int; _ } -> true
              | Vdouble _, Ast.TBuiltin { base = `Double; _ } -> true
              | Vstr _, _ -> (
                  match p.Ast.ptype with
                  | Ast.TPtr _ | Ast.TConst _ -> true
                  | _ -> false)
              | _ -> false)
        in
        (match List.find_opt matches handlers with
         | Some h ->
             in_block f (fun () ->
                 (match h.h_param with
                  | Some { Ast.pname = Some n; _ } -> bind_local f n (ref v)
                  | _ -> ());
                 exec_stmt t f h.h_body)
         | None -> raise (Cpp_exception v)))
  | Ast.SSpawn e ->
      (* deterministic sequential schedule: the spawned call executes
         eagerly at the spawn site, so join is a no-op *)
      ignore (eval t f e)
  | Ast.SJoin _ -> ()

and exec_local_decl t (f : frame) (vd : Ast.var_decl) : unit =
  (* recursive default for a declared type, handling nested arrays *)
  let rec default_of_asttype ty =
    match Ast.unqual ty with
    | Ast.TArray (elem, Some n) -> (
        match deref (eval t f n) with
        | Vint len ->
            Varr (Array.init (Int64.to_int len) (fun _ -> ref (default_of_asttype elem)))
        | _ -> Vnull)
    | Ast.TBuiltin { base = `Double; _ } | Ast.TBuiltin { base = `Float; _ } ->
        Vdouble 0.0
    | Ast.TBuiltin { base = `Bool; _ } -> Vbool false
    | Ast.TBuiltin { base = `Char; _ } -> Vchar 0
    | Ast.TPtr _ -> Vnull
    | ty -> (
        match lookup_class_of_asttype t ty with
        | Some cl -> construct t cl []
        | None -> Vint 0L)
  in
  let init_value =
    match vd.Ast.v_init with
    | Ast.NoInit -> default_of_asttype vd.Ast.v_type
    | Ast.EqInit e -> (
        let v = deref (eval t f e) in
        match (lookup_class_of_asttype t vd.Ast.v_type, v) with
        | Some cl, Vobj _ -> (
            match construct t cl [ v ] with
            | Vobj _ as res -> res
            | res -> res)
        | _ -> copy_value v)
    | Ast.CtorInit args -> (
        let vargs = List.map (fun a -> deref (eval t f a)) args in
        match lookup_class_of_asttype t vd.Ast.v_type with
        | Some cl -> construct t cl vargs
        | None -> ( match vargs with v :: _ -> copy_value v | [] -> Vint 0L))
  in
  (* reference locals alias their initializer *)
  let is_ref = match vd.Ast.v_type with Ast.TRef _ -> true | _ -> false in
  let cell =
    if is_ref then
      match vd.Ast.v_init with
      | Ast.EqInit e -> (
          match eval_lval t f e with Some c -> c | None -> ref init_value)
      | _ -> ref init_value
    else ref init_value
  in
  bind_local f vd.Ast.v_name cell

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

let init_globals t =
  List.iter
    (fun (gv : Il.global_var) ->
      let base = Il.strip_qual_ref t.prog gv.gv_type in
      let v =
        match (Il.type_ t.prog base).ty_kind with
        | Tclass cl -> (
            let c = Il.class_ t.prog cl in
            match class_base_name c with
            | "ostream" | "istream" ->
                let o = make_object t cl in
                o.o_builtin <- Some Bostream;
                Vobj o
            | _ -> Vobj (make_object t cl))
        | _ -> default_value t base
      in
      let v = if gv.gv_name = "endl" then Vstr "\n" else v in
      Hashtbl.replace t.globals gv.gv_name (ref v))
    (Il.globals t.prog);
  (* frame for global initializers *)
  let gframe = { scope = []; f_this = None; f_timers = 0; f_ret_ref = false } in
  List.iter
    (fun (gv : Il.global_var) ->
      match gv.gv_init with
      | Ast.EqInit e -> (
          match Hashtbl.find_opt t.globals gv.gv_name with
          | Some cell -> cell := copy_value (deref (eval t gframe e))
          | None -> ())
      | Ast.CtorInit _ | Ast.NoInit -> ())
    (Il.globals t.prog)

type result = {
  exit_code : int;
  output : string;
  cycles : int64;
  steps : int64;
  profile : Rt.t;
}

exception Uncaught of string * result

(** Run [main] (or a named entry routine). *)
let run ?(entry = "main") ?instrumented ?tracing ?callpath ?throttle ?max_steps
    ?mpi (prog : Il.program) : result =
  let t = create ?instrumented ?tracing ?callpath ?throttle ?max_steps ?mpi prog in
  init_globals t;
  let main =
    List.find_opt
      (fun (r : Il.routine_entity) ->
        r.ro_name = entry && (match r.ro_parent with Pclass _ -> false | _ -> true))
      (Il.routines prog)
  in
  match main with
  | None -> error "no entry routine '%s'" entry
  | Some main -> (
      let mk code =
        { exit_code = code; output = Buffer.contents t.output;
          cycles = Int64.of_int t.cycles; steps = Int64.of_int t.steps;
          profile = t.profiler }
      in
      try
        let v = invoke t main None [] in
        Rt.unwind t.profiler ~now:(Int64.of_int t.cycles);
        mk (Int64.to_int (to_int (match v with Vunit -> Vint 0L | v -> v)))
      with Cpp_exception v ->
        Rt.unwind t.profiler ~now:(Int64.of_int t.cycles);
        raise
          (Uncaught
             ( Printf.sprintf "uncaught C++ exception: %s" (type_name_of_value t v),
               mk 134 )))
