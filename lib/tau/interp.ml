(** An interpreter for elaborated IL programs — the dynamic-analysis
    substrate.

    The paper's TAU workflow compiles instrumented C++ and runs it natively;
    here the instrumented program runs on this interpreter, whose virtual
    cycles are deterministic, and CI checks its exit codes against g++ on
    test/gxx (see DESIGN.md, substitutions).  It executes the AST bodies the
    front end attached to IL routines, and each call runs the routine sema
    resolved there (the PDB's [rcall] edge), dispatching on the receiver's
    class only when the call is virtual, with:

    - a deterministic virtual-cycle cost model, so profiles are reproducible;
    - builtin implementations of the mini-STL ([vector], [ostream],
      [string]) and of the TAU measurement macros ([TAU_PROFILE], [CT]);
    - C++ exceptions mapped onto OCaml exceptions.

    Memory is cells.  An object is one cell per field, in its class's
    [layout]: bases first, then members in IL order, made once per class
    in a run.  A pointer ([Vptr]) holds the cell it points at, so [&c],
    [this] and a [Cell *] reach the object itself; only a by-value
    initialization, argument or return copies it, and an assignment to an
    object writes its own cells.  An lvalue in flight (a [T&] argument or
    result, a vector element) is a [Vref], the one value [deref] strips.

    A routine runs as OCaml closures: its first [invoke] in a run
    translates its body, member initializers and default arguments once,
    kept in [t] by routine id; global initializers are translated too.
    Translation resolves what the text fixes: each local is a slot of the
    frame's cell array (a fresh cell each time its declaration runs),
    constants are built, each call's routine is the one sema noted, the TAU
    and MPI builtins, enum constants and globals are looked up, and each
    store's [bind] is chosen from its declared type (DESIGN §5).  What
    depends on run-time values is cached per site on exactly what the
    lookup reads: a virtual call's overrider and a field's index on the
    object's class (a non-local name is a field of [this], else a global),
    a TAU label on the identity of its two parts.  No tick can move:
    the closure of each AST expression and statement charges one tick when
    it runs and [invoke] charges one call, and neither a lookup nor a
    [bind] ever ticks, so a hit and a miss cost the same cycles;
    test/golden/tau_profiles.txt and interp_fingerprints.txt pin them. *)

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
  | Vptr of value ref  (** a pointer: the cell it points at *)
  | Vref of value ref  (** an lvalue in flight: a [T&] argument or result *)
  | Vnull
  | Varr of value ref array

and obj = {
  o_class : Il.class_id;
  o_fields : value ref array;  (** one cell per field of its class's [layout] *)
  mutable o_builtin : builtin option;
}

and builtin =
  | Bvector of value ref array ref * int ref  (** storage, logical size *)
  | Bostream                                   (** writes to the state's output *)
  | Bstring of string ref

(* C++ control flow *)
exception Return  (* the value is in the frame's [f_ret] *)
exception Break_exc
exception Continue_exc
exception Cpp_exception of value

type frame = {
  slots : value ref array;  (** each local's current cell, by slot *)
  f_this : obj option;
  mutable f_timers : int;  (** TAU timers opened in this frame *)
  mutable f_ret : value;  (** what a [return] hands back *)
}

(* A routine translated to closures: its slot count, its parameters (slot
   or -1 when unnamed, by reference, [bind], default argument), its member
   initializers (each initializing a base or a field of the object) and its
   body. *)
type body = {
  nslots : int;
  params : (int * bool * (value -> value) * (frame -> value) option) array;
  inits : (obj -> frame -> unit) list;
  run : (frame -> unit) option;
}

(* A routine of the program, translated on its first invoke in a run. *)
type code = { routine : Il.routine_entity; mutable body : body option }

(* A class's fields in its objects' cell order: bases first, then its own
   non-static members in IL order; [index] maps a name to its cell (the
   last declaration's, when a derived class redeclares a name). *)
type layout = { fields : Il.data_member array; index : (string, int) Hashtbl.t }

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
  codes : (Il.routine_id, code) Hashtbl.t;  (** this run's routines, by id *)
  enum_constants : (string, int64) Hashtbl.t;
  layouts : (Il.class_id, layout) Hashtbl.t;  (** filled on use *)
}

(* ------------------------------------------------------------------ *)
(* Cost model (deterministic virtual cycles)                           *)
(* ------------------------------------------------------------------ *)

let cost_expr = 1
let cost_call = 5

let step_limit () = error "step limit exceeded (infinite loop?)"

(* the value an lvalue in flight refers to; any other value is itself *)
let deref = function Vref cell -> !cell | v -> v

let[@inline] tick t c =
  t.cycles <- t.cycles + c;
  t.steps <- t.steps + 1;
  if t.steps > t.max_steps then step_limit ()

(* ------------------------------------------------------------------ *)
(* Helpers over the IL                                                 *)
(* ------------------------------------------------------------------ *)

let class_base_name (c : Il.class_entity) =
  match String.index_opt c.cl_name '<' with
  | Some i -> String.sub c.cl_name 0 i
  | None -> c.cl_name

let rec all_data_members t (cl : Il.class_id) : Il.data_member list =
  let c = Il.class_ t.prog cl in
  List.concat_map (fun (b : Il.base_spec) -> all_data_members t b.ba_class) c.cl_bases
  @ c.cl_members

(* [tbl]'s entry for [key], computed by [compute t key] on first use *)
let memo tbl compute t key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None -> let v = compute t key in Hashtbl.add tbl key v; v

(* the interned type of kind [k], if the program has it; none is added *)
let find_type t k = Hashtbl.find_opt t.prog.type_intern (Il.type_key t.prog k)

let find_builtin t bname = find_type t (Tbuiltin { bname; ykind = ""; yikind = "" })

(* The IL type of a value at a site where sema noted no call, as far as the
   value tells: an integer is an int, a floating value a double, a string
   literal a const char *, an object its class, a pointer one to its
   target's type; None for a null pointer. *)
let rec value_type t v =
  let ptr_to ty = Option.bind ty (fun ty -> find_type t (Tptr ty)) in
  match deref v with
  | Vint _ -> find_builtin t "int"
  | Vdouble _ -> find_builtin t "double"
  | Vchar _ -> find_builtin t "char"
  | Vbool _ -> find_builtin t "bool"
  | Vstr _ ->
      ptr_to
        (Option.bind (find_builtin t "char") (fun c ->
             find_type t (Tqual { base = c; q_const = true; q_volatile = false })))
  | Vobj o -> find_type t (Tclass o.o_class)
  | Vptr { contents = Varr a } when Array.length a > 0 -> ptr_to (value_type t !(a.(0)))
  | Vptr cell -> ptr_to (value_type t !cell)
  | Vunit | Vnull | Varr _ | Vref _ -> None

(* The routine of [candidates] that [args] call where sema noted no call:
   sema's rule on the values' types; None when a value has no type. *)
let pick_on_values t candidates args =
  let tys = List.map (value_type t) args in
  if List.mem None tys then None
  else Il.pick_overload t.prog candidates (List.map Option.get tys)

let members t cl = List.map (Il.routine t.prog) (Il.class_ t.prog cl).cl_funcs

let ctors t cl = List.filter (fun r -> r.ro_kind = Rk_ctor) (members t cl)

(* the member functions of [cl] that [keep] selects, or else those of its
   nearest base that has any *)
let rec nearest t cl keep =
  match List.filter keep (members t cl) with
  | [] ->
      List.fold_left
        (fun found (b : Il.base_spec) ->
          match found with [] -> nearest t b.ba_class keep | _ -> found)
        [] (Il.class_ t.prog cl).cl_bases
  | found -> found

(* the overrider of [r] for an object of class [cl]: the member of [cl], or
   of its nearest base, with [r]'s name and parameter types *)
let overrider t (r : Il.routine_entity) cl =
  let same (m : Il.routine_entity) =
    m.ro_name = r.ro_name
    && List.equal (fun (p : Il.param_info) (q : Il.param_info) -> p.pi_type = q.pi_type)
         m.ro_params r.ro_params
  in
  match nearest t cl same with m :: _ -> m | [] -> r

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let rec copy_value (v : value) : value =
  match v with
  | Vobj o -> Vobj (copy_obj o)
  | v -> v

and copy_obj (o : obj) : obj =
  { o_class = o.o_class;
    o_fields = Array.map (fun cell -> ref (copy_value !cell)) o.o_fields;
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
  | Vnull | Vunit -> false
  | Vstr s -> s <> ""
  | Vptr _ | Vref _ | Vobj _ | Varr _ -> true

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
  | Vdouble f -> Printf.sprintf "%.6g" f  (* iostream's default: 6 significant digits *)
  | Vbool b -> if b then "1" else "0"
  | Vchar c -> String.make 1 (Char.chr (c land 0xff))
  | Vstr s -> s
  | Vnull -> "0"
  | Vunit -> ""
  | Vptr _ | Vref _ -> "<ptr>"
  | Vobj _ -> "<object>"
  | Varr _ -> "<array>"

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let create ?(instrumented = true) ?(tracing = false) ?callpath ?throttle
    ?(max_steps = 50_000_000L) ?(mpi = (0, 1)) (prog : Il.program) : t =
  let class_by_name = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id (c : Il.class_entity) ->
      if not (Hashtbl.mem class_by_name c.cl_name) then
        Hashtbl.replace class_by_name c.cl_name id)
    prog.Il.classes;
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
    codes = Hashtbl.create 64; enum_constants; layouts = Hashtbl.create 16 }

(* type name of a value, used by the CT() macro *)
let type_name_of_value t = function
  | Vint _ -> "int"
  | Vdouble _ -> "double"
  | Vbool _ -> "bool"
  | Vchar _ -> "char"
  | Vstr _ -> "const char *"
  | Vobj o -> (Il.class_ t.prog o.o_class).cl_name
  | Vptr _ | Vref _ -> "<ptr>"
  | Vnull -> "<null>"
  | Vunit -> "void"
  | Varr _ -> "<array>"

(* the state of a new object of a mini-STL class the interpreter implements *)
let builtin_state t (cl : Il.class_id) =
  match class_base_name (Il.class_ t.prog cl) with
  | "vector" -> Some (Bvector (ref [||], ref 0))
  | "ostream" | "istream" -> Some Bostream
  | "string" -> Some (Bstring (ref ""))
  | _ -> None

(* [cl]'s layout, made on its first use in a run; a builtin has no fields *)
let layout t (cl : Il.class_id) : layout =
  memo t.layouts
    (fun t cl ->
      let fields =
        if builtin_state t cl <> None then [||]
        else Array.of_list (List.filter (fun m -> not m.dm_static) (all_data_members t cl))
      in
      let index = Hashtbl.create (Array.length fields) in
      Array.iteri (fun i (m : Il.data_member) -> Hashtbl.replace index m.dm_name i) fields;
      { fields; index })
    t cl

(* the answer "no cell" of a field lookup and of an expression's [lv];
   compared by physical equality, it never holds a value *)
let no_cell : value ref = ref Vunit

(* [name]'s cell in [o], or [no_cell] *)
let field_of t (o : obj) name =
  let index = Hashtbl.find_opt (layout t o.o_class).index name in
  match index with Some i -> o.o_fields.(i) | None -> no_cell

(* default value for a type *)
let rec default_value t (ty : Il.type_id) : value =
  match (Il.type_ t.prog ty).ty_kind with
  | Tbuiltin { ykind = "float"; _ } -> Vdouble 0.0
  | Tbuiltin { ykind = "bool"; _ } -> Vbool false
  | Tbuiltin { ykind = "char"; _ } -> Vchar 0
  | Tbuiltin _ | Tenum _ -> Vint 0L
  | Tqual { base; _ } -> default_value t base
  | Tarray (elem, Some n) -> Varr (Array.init n (fun _ -> ref (default_value t elem)))
  | Tclass cl -> Vobj (make_object t cl)
  | Tref _ | Tptr _ | Tarray (_, None) | Tfunc _ | Ttparam _ | Terror -> Vnull

(* allocate an object with default-initialized fields (no ctor run) *)
and make_object t (cl : Il.class_id) : obj =
  { o_class = cl;
    o_fields =
      Array.map (fun (m : Il.data_member) -> ref (default_value t m.dm_type)) (layout t cl).fields;
    o_builtin = builtin_state t cl }

(* [dst = src] for objects whose class has no operator=: [src]'s fields, by
   name, into [dst]'s own cells (a derived source is sliced), so every
   pointer to [dst] sees the change *)
let rec assign_obj t (dst : obj) (src : obj) =
  if src.o_builtin <> None then dst.o_builtin <- (copy_obj src).o_builtin;
  Array.iteri
    (fun i (m : Il.data_member) ->
      let cell = dst.o_fields.(i) and from = field_of t src m.dm_name in
      match (!cell, !from) with
      | Vobj d, Vobj s -> assign_obj t d s
      | _, v -> if from != no_cell then cell := copy_value v)
    (layout t dst.o_class).fields

let rec derives t sub (cl : Il.class_id) =
  sub = cl
  || List.exists (fun (b : Il.base_spec) -> derives t b.ba_class cl) (Il.class_ t.prog sub).cl_bases

(* [ty]'s kind under its cv-qualifiers *)
let rec unqual t ty =
  match (Il.type_ t.prog ty).ty_kind with Tqual { base; _ } -> unqual t base | k -> k

let class_of t ty = match Option.map (unqual t) ty with Some (Tclass cl) -> Some cl | _ -> None

let rett t (r : Il.routine_entity) =
  match (Il.type_ t.prog r.ro_sig).ty_kind with Tfunc { rett; _ } -> Some rett | _ -> None

(* ------------------------------------------------------------------ *)
(* Binary operations on scalars                                        *)
(* ------------------------------------------------------------------ *)

(* the Vint of each integer in [-256, 1023], shared: a value is immutable *)
let small_ints = Array.init 1280 (fun i -> Vint (Int64.of_int (i - 256)))

let[@inline] vint n =
  if n >= -256L && n < 1024L then Array.unsafe_get small_ints (Int64.to_int n + 256)
  else Vint n

let is_float a b = match (a, b) with Vdouble _, _ | _, Vdouble _ -> true | _ -> false
let vtrue = Vbool true
let vfalse = Vbool false
let vbool b = if b then vtrue else vfalse

let equal a b =
  match (a, b) with
  | Vint x, Vint y -> Int64.equal x y
  | Vstr x, Vstr y -> x = y
  | Vnull, Vnull -> true
  | (Vnull | Vint 0L), Vptr _ | Vptr _, (Vnull | Vint 0L) -> false  (* 0 is the null pointer *)
  (* [this] is a fresh cell, so two pointers to one object may differ *)
  | Vptr x, Vptr y -> x == y || (match (!x, !y) with Vobj p, Vobj q -> p == q | _ -> false)
  | _ when is_float a b -> to_float a = to_float b
  | _ -> to_int a = to_int b

let less a b =
  match (a, b) with
  | Vint x, Vint y -> Int64.compare x y < 0
  | Vstr x, Vstr y -> x < y
  | _ when is_float a b -> to_float a < to_float b
  | _ -> to_int a < to_int b

let greater a b = less b a

(* [op] on two scalars, the operator resolved once: the translator calls
   this when it meets a binary or compound-assignment site *)
let binop op : value -> value -> value =
  let arith fi ff a b =
    match (a, b) with
    | Vint x, Vint y -> vint (fi x y)
    | _ when is_float a b -> Vdouble (ff (to_float a) (to_float b))
    | _ -> vint (fi (to_int a) (to_int b))
  in
  let integral fi a b = vint (fi (to_int a) (to_int b)) in
  let divide fi a b =
    let d = to_int b in
    if d = 0L then raise (Cpp_exception (Vstr "division by zero"))
    else vint (fi (to_int a) d)
  in
  match op with
  | "+" -> (
      fun a b ->
        match (a, b) with
        | Vint x, Vint y -> vint (Int64.add x y)
        | _ when is_float a b -> Vdouble (to_float a +. to_float b)
        | Vstr x, Vstr y -> Vstr (x ^ y)
        | _ -> vint (Int64.add (to_int a) (to_int b)))
  | "-" -> arith Int64.sub ( -. )
  | "*" -> arith Int64.mul ( *. )
  | "/" ->
      fun a b -> if is_float a b then Vdouble (to_float a /. to_float b) else divide Int64.div a b
  | "%" -> divide Int64.rem
  | "<<" -> integral (fun x y -> Int64.shift_left x (Int64.to_int y))
  | ">>" -> integral (fun x y -> Int64.shift_right x (Int64.to_int y))
  | "&" -> integral Int64.logand
  | "|" -> integral Int64.logor
  | "^" -> integral Int64.logxor
  | "==" -> fun a b -> vbool (equal a b)
  | "!=" -> fun a b -> vbool (not (equal a b))
  | "<" -> fun a b -> vbool (less a b)
  | ">" -> fun a b -> vbool (greater a b)
  | "<=" -> fun a b -> vbool (not (greater a b))
  | ">=" -> fun a b -> vbool (not (less a b))
  | op -> fun _ _ -> error "unsupported binary operator '%s'" op

let[@inline] wrap ~unsigned s n =
  if unsigned then Int64.shift_right_logical (Int64.shift_left n s) s
  else Int64.shift_right (Int64.shift_left n s) s

(* ------------------------------------------------------------------ *)
(* Builtin class methods                                               *)
(* ------------------------------------------------------------------ *)

(* "no such method", compared by physical equality; never a program value *)
let absent = Vptr (ref Vunit)

let vector_grow store size n =
  if n > Array.length !store then begin
    let bigger = Array.init (max n (2 * Array.length !store + 1)) (fun i ->
        if i < Array.length !store then !store.(i) else ref (Vint 0L))
    in
    store := bigger
  end;
  if n > !size then size := n

(* [name] on a builtin object, or [absent] when the builtin has no such method *)
let builtin_method t (o : obj) (name : string) (args : value list) : value =
  match (o.o_builtin, name) with
  | Some (Bvector (store, size)), _ -> (
      match (name, args) with
      | "vector", [] -> Vunit
      | "vector", [ n ] ->
          vector_grow store size (Int64.to_int (to_int (deref n)));
          Vunit
      | "~vector", _ -> Vunit
      | "size", [] -> vint (Int64.of_int !size)
      | "capacity", [] -> Vint (Int64.of_int (Array.length !store))
      | "empty", [] -> vbool (!size = 0)
      | "push_back", [ v ] ->
          (* an lvalue argument arrives in flight: store its value *)
          vector_grow store size (!size + 1);
          !store.(!size - 1) := copy_value (deref v);
          Vunit
      | "pop_back", [] ->
          if !size > 0 then size := !size - 1;
          Vunit
      | "operator[]", [ i ] ->
          let i = Int64.to_int (to_int (deref i)) in
          if i < 0 then raise (Cpp_exception (Vstr "vector index negative"))
          else begin
            vector_grow store size (i + 1);
            Vref !store.(i)
          end
      | "front", [] -> if !size > 0 then Vref !store.(0) else Vnull
      | "back", [] -> if !size > 0 then Vref !store.(!size - 1) else Vnull
      | "clear", [] ->
          size := 0;
          Vunit
      | "resize", [ n ] ->
          let n = Int64.to_int (to_int (deref n)) in
          vector_grow store size n;
          size := n;
          Vunit
      | "reserve", [ n ] ->
          vector_grow store (ref !size) (Int64.to_int (to_int (deref n)));
          Vunit
      | _ -> absent)
  | Some Bostream, "operator<<" -> (
      match args with
      | [ v ] ->
          Buffer.add_string t.output (value_to_display_string v);
          Vobj o
      | _ -> absent)
  | Some (Bstring s), _ -> (
      match (name, args) with
      | "string", [] -> Vunit
      | "string", [ Vstr x ] ->
          s := x;
          Vunit
      | ("length" | "size"), [] -> Vint (Int64.of_int (String.length !s))
      | "empty", [] -> Vbool (!s = "")
      | "operator[]", [ i ] ->
          let i = Int64.to_int (to_int i) in
          if i >= 0 && i < String.length !s then Vchar (Char.code !s.[i])
          else Vchar 0
      | "operator+", [ (Vobj { o_builtin = Some (Bstring { contents = x }); _ } | Vstr x) ] ->
          let res = make_object t o.o_class in
          (match res.o_builtin with Some (Bstring r) -> r := !s ^ x | _ -> ());
          Vobj res
      | "operator==", [ Vobj { o_builtin = Some (Bstring s2); _ } ] ->
          Vbool (!s = !s2)
      | "operator<", [ Vobj { o_builtin = Some (Bstring s2); _ } ] ->
          Vbool (!s < !s2)
      | "c_str", [] -> Vstr !s
      | _ -> absent)
  | _ -> absent

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

(* A local's slot before its declaration has run in the current block;
   compared by physical equality, it never holds a value. *)
let unbound : value ref = ref Vunit

(* An expression, translated: [rv] evaluates it; [lv] yields the cell it
   denotes or [no_cell].  A name, member, index, [*p] or call runs the
   operands its cell needs (ticking as they do); any other expression runs
   nothing in [lv], and a caller that then needs its value runs [rv], so an
   operand probed for a cell may run twice, ticks included. *)
type cexpr = { rv : frame -> value; lv : frame -> value ref }

let no_lv : frame -> value ref = fun _ -> no_cell

(* What translation knows of the routine it is in: the locals visible here,
   innermost first, with their slots; the slot count so far; the slots of
   declarations the current block does not own directly (a declaration
   under an if, a loop or a case), which its entry resets to [unbound];
   the routine's return type. *)
type ctx = {
  t : t;
  mutable scope : (string * int) list;
  mutable nslots : int;
  mutable leaky : int list;
  rett : Il.type_id option;
}

let new_ctx t rett = { t; scope = []; nslots = 0; leaky = []; rett }

(* The IL type sema resolved [ty], at [loc] in a body, to: a declared, cast
   or constructed type seen in its own scope, so typedefs and template
   arguments name what they name there.  Sema resolves nothing in a global
   initializer or a default argument; there a builtin is found by its
   spelling and a class by its name, and no type is added. *)
let ast_type t loc (ty : Ast.type_expr) =
  match (Il.noted t.prog.ast_types loc ty, Ast.unqual ty) with
  | None, Ast.TBuiltin b -> find_builtin t (Ast.builtin_name b)
  | None, Ast.TName q ->
      Option.bind (Hashtbl.find_opt t.class_by_name (Ast.qual_name_to_string q)) (fun cl ->
          find_type t (Tclass cl))
  | id, _ -> id

(* The type a store to [e] writes, cv and references stripped, as sema typed
   the lvalue: a variable, a field, an element, a pointee, or what the
   picked [operator[]] or routine returns. *)
let store_type t (e : Ast.expr) =
  Option.map (Il.strip_qual_ref t.prog) (Il.noted t.prog.store_types e.Ast.eloc e)

(* the declared type of [cl]'s field [name] (the last declaration's) *)
let field_type t cl name =
  let l = layout t cl in
  Option.map (fun i -> l.fields.(i).dm_type) (Hashtbl.find_opt l.index name)

let code_of t (r : Il.routine_entity) : code =
  memo t.codes (fun _ _ -> { routine = r; body = None }) t r.ro_id

(* the call sema noted at expression [e], if any *)
let noted_call t (e : Ast.expr) = Il.noted t.prog.expr_calls e.Ast.eloc e

let callee_routine t (cs : Il.call_site) = Il.routine t.prog cs.cs_callee

(* whether [r] runs on a receiver *)
let on_receiver (r : Il.routine_entity) =
  match r.ro_parent with Pclass _ -> not r.ro_static | _ -> false

(* the object a member call runs on *)
let receiver = function
  | Vobj o | Vptr { contents = Vobj o } -> o
  | Vnull -> raise (Cpp_exception (Vstr "null pointer method call"))
  | Vptr _ -> error "method call through non-object pointer"
  | _ -> error "method call on non-object"

let rec find_class cl = function
  | (c, a) :: rest -> if c = cl then a else find_class cl rest
  | [] -> raise_notrace Not_found

(* [f cl], computed once per site for each class it meets *)
let per_class f =
  let seen = ref [] in
  fun cl ->
    match !seen with
    | (c, a) :: _ when c = cl -> a
    | l -> ( try find_class cl l with Not_found -> let a = f cl in seen := (cl, a) :: l; a)

(* leave a frame: close the TAU timers it opened *)
let finish t frame v =
  for _ = 1 to frame.f_timers do
    Rt.exit_ t.profiler ~now:t.cycles
  done;
  t.depth <- t.depth - 1;
  v

let bind_params (b : body) frame (args : value list) =
  let rec go i args =
    if i < Array.length b.params then begin
      let slot, by_ref, conv, default = b.params.(i) in
      match args with
      | arg :: rest ->
          (* a reference parameter aliases an lvalue; any other is bound *)
          if slot >= 0 then
            frame.slots.(slot) <-
              (match (arg, by_ref) with Vref c, true -> c | v, _ -> ref (conv (deref v)));
          go (i + 1) rest
      | [] ->
          (match default with
           | Some d when slot >= 0 -> frame.slots.(slot) <- ref (conv (deref (d frame)))
           | _ -> ());
          go (i + 1) []
    end
  in
  go 0 args

(* the slots a block must reset on entry, with the block's scope dropped
   when [k] returns *)
let in_scope ctx k =
  let scope = ctx.scope and leaky = ctx.leaky in
  ctx.leaky <- [];
  let r = k () in
  let own = Array.of_list ctx.leaky in
  ctx.scope <- scope;
  ctx.leaky <- leaky;
  (r, own)

let reset own f =
  for i = 0 to Array.length own - 1 do
    f.slots.(own.(i)) <- unbound
  done

let ret f v =
  f.f_ret <- v;
  raise_notrace Return

(* ++ or -- on a cell, the result bound by [conv] *)
let bump op conv =
  let dv = if op = "++" then 1L else -1L in
  fun cell ->
    match !cell with
    | Vdouble x -> cell := conv (Vdouble (x +. Int64.to_float dv))
    | v -> cell := conv (vint (Int64.add (to_int v) dv))

let rec run_all ss f = match ss with [] -> () | s :: rest -> s f; run_all rest f

(* the values of [es] in order *)
let rec eval_each f = function [] -> [] | e :: rest -> let v = e f in v :: eval_each f rest

let declare ctx ~direct name =
  let s = ctx.nslots in
  ctx.nslots <- s + 1;
  if not direct then ctx.leaky <- s :: ctx.leaky;
  ctx.scope <- (name, s) :: ctx.scope;
  s

(* [name]'s cell in an object, or [no_cell]: its index is looked up once
   per site and receiver class *)
let field_cell t name =
  let index = per_class (fun cl -> Hashtbl.find_opt (layout t cl).index name) in
  fun (o : obj) -> match index o.o_class with Some i -> o.o_fields.(i) | None -> no_cell

(* the cell a one-part name denotes, or [no_cell]: the innermost local of
   that name whose declaration has run, else a field of [this] (an object
   has its class's fields), else a global *)
let name_cell ctx id : frame -> value ref =
  let t = ctx.t in
  let global = Option.value (Hashtbl.find_opt t.globals id) ~default:no_cell in
  let field = field_cell t id in
  let nonlocal f =
    match f.f_this with
    | Some o ->
        let c = field o in
        if c != no_cell then c else global
    | None -> global
  in
  match List.filter_map (fun (n, s) -> if n = id then Some s else None) ctx.scope with
  | [] -> nonlocal
  | [ s ] ->
      fun f ->
        let c = Array.unsafe_get f.slots s in
        if c != unbound then c else nonlocal f
  | chain ->
      fun f ->
        let rec go = function
          | [] -> nonlocal f
          | s :: rest ->
              let c = f.slots.(s) in
              if c != unbound then c else go rest
        in
        go chain

let rec invoke t (code : code) (this_obj : obj option) (args : value list) : value =
  tick t cost_call;
  t.depth <- t.depth + 1;
  if t.depth > 10_000 then error "call stack overflow";
  let b = match code.body with Some b -> b | None -> translate t code in
  let slots = Array.make b.nslots unbound in
  let frame = { slots; f_this = this_obj; f_timers = 0; f_ret = Vunit } in
  bind_params b frame args;
  (match this_obj with
   | Some o when code.routine.ro_kind = Rk_ctor -> List.iter (fun init -> init o frame) b.inits
   | _ -> ());
  match b.run with
  | None ->
      (* undefined routine: builtin or no-op *)
      finish t frame Vunit
  | Some run -> (
      try
        run frame;
        finish t frame Vunit
      with
      | Return -> finish t frame frame.f_ret
      | Cpp_exception _ as ex ->
          (* unwind this frame's timers, then propagate *)
          ignore (finish t frame Vunit);
          raise ex)

(* The routine sema noted a call to, as the call runs it on a receiver
   (None for a free or static routine): a member of a builtin mini-STL
   class runs as that builtin, a virtual call runs the overrider in the
   receiver's class (found once per class at this site), any other call
   the routine itself. *)
and callee t (cs : Il.call_site) : obj option -> value list -> value =
  let r = callee_routine t cs in
  match r.ro_parent with
  | Pclass cl when builtin_state t cl <> None -> (
      let name = r.ro_name in
      (* push_back stores its element as the parameter's type *)
      let args =
        match (name, r.ro_params) with
        | "push_back", [ p ] ->
            let conv = bind t (Some (Il.strip_qual_ref t.prog p.pi_type)) in
            List.map (fun v -> conv (deref v))
        | _ -> Fun.id
      in
      fun this vargs ->
        let v = match this with Some o -> builtin_method t o name (args vargs) | None -> absent in
        if v != absent then v
        else error "no builtin '%s' on class %s" name (Il.class_ t.prog cl).cl_name)
  | Pclass _ when cs.cs_virtual ->
      let code_in = per_class (fun cl -> code_of t (overrider t r cl)) in
      fun this args ->
        invoke t (match this with Some o -> code_in o.o_class | None -> code_of t r) this args
  | _ ->
      let code = code_of t r in
      fun this args -> invoke t code this args

(* an operator sema noted, applied to its first operand and the rest: a
   member runs on the first *)
and operator t (cs : Il.call_site) : value -> value list -> value =
  let run = callee t cs in
  match (callee_routine t cs).ro_parent with
  | Pclass _ -> (
      fun v rest ->
        match deref v with Vobj o -> run (Some o) rest | _ -> error "operator on a non-object")
  | _ -> fun v rest -> run None (v :: rest)

(* The routine [name] that the values pick at a site where sema noted no
   call (in a global initializer or a default argument): a builtin method
   of [this], or a member of its class or nearest base, taking [args]; else
   a free routine taking [free_args].  The candidates are found once per
   site (the members once per class). *)
and call_by_name t name : obj option -> value list -> value list -> value =
  let run this candidates args =
    match pick_on_values t candidates args with
    | Some r -> invoke t (code_of t r) this args
    | None -> absent
  in
  let members = per_class (fun cl -> nearest t cl (fun m -> m.ro_name = name)) in
  let free =
    lazy (List.filter (fun r -> r.ro_name = name && not (on_receiver r)) (Il.routines t.prog))
  in
  fun this args free_args ->
    let v =
      match this with
      | Some o when o.o_builtin <> None -> builtin_method t o name args
      | Some o -> run this (members o.o_class) args
      | None -> absent
    in
    let v = if v != absent then v else run None (Lazy.force free) free_args in
    if v != absent then v else error "no routine '%s' for these arguments" name

(* the operator [name] at [e] on its operands: the one sema noted, else by
   name on the first operand's class or free *)
and operator_at t (e : Ast.expr) name : value -> value list -> value =
  match noted_call t e with
  | Some cs -> operator t cs
  | None -> (
      let by_name = call_by_name t name in
      fun v rest ->
        match deref v with
        | Vobj o -> by_name (Some o) rest (v :: rest)
        | _ -> by_name None [] (v :: rest))

(* a new object of class [cl] from [args], built by [ctor] (see [init_obj]) *)
and construct t (cl : Il.class_id) ctor (args : value list) : value =
  let o = make_object t cl in
  init_obj t o cl ctor args;
  Vobj o

(* Initialize [o] as a [cl] from [args] with [ctor], the constructor sema
   noted, or else the one the values pick: one object of [cl] or of a class
   derived from it is copied, sliced, unless a written copy constructor
   takes it; a builtin runs its own constructor; else a written or implicit
   constructor runs once the bases and class-typed fields its initializers
   skip are default-constructed. *)
and init_obj t (o : obj) (cl : Il.class_id) ctor (args : value list) : unit =
  let ctor =
    match (match ctor with None -> pick_on_values t (ctors t cl) args | c -> c) with
    | Some c when c.ro_defined || c.ro_body <> None -> Some c
    | _ -> None
  in
  let copier =
    match ctor with
    | Some { ro_params = [ p ]; _ } ->
        class_of t (Some (Il.strip_qual_ref t.prog p.pi_type)) = Some cl
    | _ -> false
  in
  match (args, ctor) with
  | [ Vobj src ], _ when derives t src.o_class cl && not copier -> assign_obj t o src
  | _ when builtin_method t o (class_base_name (Il.class_ t.prog cl)) args != absent -> ()
  | _, Some ctor ->
      construct_bases_and_fields t o cl ~skip:(List.map fst ctor.ro_inits);
      ignore (invoke t (code_of t ctor) (Some o) args)
  | _, None -> construct_bases_and_fields t o cl ~skip:[]

(* default-construct the bases and class-typed fields of [cl] in [o],
   except those named in [skip] (the explicit mem-initializer list) *)
and construct_bases_and_fields t (o : obj) (cl : Il.class_id) ~skip : unit =
  let c = Il.class_ t.prog cl in
  List.iter
    (fun (b : Il.base_spec) ->
      let bc = Il.class_ t.prog b.ba_class in
      if not (List.mem bc.cl_name skip || List.mem (class_base_name bc) skip) then
        init_obj t o b.ba_class None [])
    c.cl_bases;
  List.iter
    (fun (m : Il.data_member) ->
      if (not m.dm_static) && not (List.mem m.dm_name skip) then
        match !(field_of t o m.dm_name) with
        | Vobj fo -> init_obj t fo fo.o_class None []
        | _ -> ())
    c.cl_members

(* What a store of declared type [ty] keeps of [v], chosen once per site:
   an integer wrapped to its LP64 width as g++ does (char 8 bits, short 16,
   int 32, long 64; zero-extended when unsigned), a floating value as a
   double, bool as [truthy], [0] as a null pointer, an object copied as its
   class (a derived one sliced), a scalar or string literal constructing
   one; a reference keeps it, other types copy. *)
and bind t (ty : Il.type_id option) : value -> value =
  match Option.map (unqual t) ty with
  | Some (Tbuiltin { ykind = "float"; _ }) -> (
      function (Vint _ | Vbool _ | Vchar _) as v -> Vdouble (to_float v) | v -> v)
  | Some (Tbuiltin { ykind = "bool"; _ }) -> fun v -> vbool (truthy v)
  | Some (Tbuiltin { ykind = ("int" | "char" | "wchar") as k; bname; _ }) -> (
      let has w = List.mem w (String.split_on_char ' ' bname) in
      let unsigned = has "unsigned" and char = k = "char" in
      let s = 64 - if char then 8 else if has "short" then 16 else if has "long" then 64 else 32 in
      function
      | Vint n as v when (not char) && wrap ~unsigned s n = n -> v
      | (Vint _ | Vdouble _ | Vbool _ | Vchar _) as v ->
          let n = wrap ~unsigned s (to_int v) in
          if char then Vchar (Int64.to_int n) else vint n
      | v -> v)
  | Some (Tptr _) -> ( function Vint 0L -> Vnull | v -> v)
  | Some (Tref _) -> Fun.id
  | Some (Tclass cl) -> (
      function
      | Vobj src as v when src.o_class <> cl && derives t src.o_class cl ->
          construct t cl None [ v ]
      | (Vstr _ | Vint _ | Vdouble _ | Vchar _ | Vbool _) as v -> construct t cl None [ v ]
      | v -> copy_value v)
  | _ -> copy_value

(* A routine's parameters, member initializers and body, translated and
   kept in [code] for the rest of the run.  The parameters take the first
   slots, in order. *)
and translate t (code : code) : body =
  let r = code.routine in
  let cls = match r.ro_parent with Pclass cl -> Some cl | _ -> None in
  let ctx = new_ctx t (rett t r) in
  let params =
    List.map
      (fun (p : Il.param_info) ->
        let by_ref = match unqual t p.pi_type with Tref _ -> true | _ -> false in
        (* a default sees the parameters before it, not its own *)
        let default = Option.map (fun d -> (expr ctx d).rv) p.pi_default in
        let slot = match p.pi_name with Some n -> declare ctx ~direct:true n | None -> -1 in
        (slot, by_ref, bind t (Some p.pi_type), default))
      r.ro_params
  in
  let inits =
    List.map
      (fun ((name, args) as init) ->
        (* a base initializer names a direct base of the constructor's class *)
        let base (b : Il.base_spec) =
          let c = Il.class_ t.prog b.ba_class in
          if class_base_name c = name || c.cl_name = name then Some b.ba_class else None
        in
        let base = Option.bind cls (fun cl -> List.find_map base (Il.class_ t.prog cl).cl_bases) in
        let ctor = Option.map (callee_routine t) (Il.noted t.prog.init_calls r.ro_loc init) in
        let conv = bind t (Option.bind cls (fun cl -> field_type t cl name)) in
        let field = field_cell t name and args = List.map (fun a -> (expr ctx a).rv) args in
        fun o frame ->
          let vargs = List.map (fun a -> deref (a frame)) args in
          let cell = field o in
          match (!cell, vargs, base) with
          | _, _, Some bc when cell == no_cell -> init_obj t o bc ctor vargs
          | _ when cell == no_cell -> ()
          | Vobj fo, _, _ -> init_obj t fo fo.o_class ctor vargs
          | _, [ v ], _ -> cell := conv v
          | _ -> ())
      r.ro_inits
  in
  let run = Option.map (stmt ctx ~direct:false) r.ro_body in
  let b = { nslots = ctx.nslots; params = Array.of_list params; inits; run } in
  code.body <- Some b;
  b

(* ---- expressions: [rv] ticks once for the node, then runs its operands ---- *)

and expr ctx (e : Ast.expr) : cexpr =
  let t = ctx.t in
  let const v = { rv = (fun _ -> tick t cost_expr; v); lv = no_lv } in
  let rv rv = { rv; lv = no_lv } in
  match e.Ast.e with
  | Ast.IntE n -> const (Vint n)
  | Ast.FloatE x -> const (Vdouble x)
  | Ast.CharE c -> const (Vchar c)
  | Ast.StringE s -> const (Vstr s)
  | Ast.BoolE b -> const (Vbool b)
  | Ast.ThisE ->
      (* 'this' is a pointer: wrap the receiver so *this and this->f work *)
      rv (fun f -> tick t cost_expr; Vptr (ref (Vobj (this f))))
  | Ast.IdE q -> ident ctx q
  | Ast.Unary ("&", a) ->
      let a = expr ctx a in
      rv (fun f ->
          tick t cost_expr;
          let c = a.lv f in
          if c != no_cell then Vptr c else Vptr (ref (a.rv f)))
  | Ast.Unary ("*", a) ->
      let a = expr ctx a and on_object = operator_at t e "operator*" in
      { rv =
          (fun f ->
            tick t cost_expr;
            match deref (a.rv f) with
            | Vptr cell -> !cell
            | Vobj _ as v -> on_object v []
            | Vnull -> raise (Cpp_exception (Vstr "null pointer dereference"))
            | v -> v);
        lv = (fun f -> match deref (a.rv f) with Vptr cell -> cell | _ -> no_cell) }
  | Ast.Unary (op, a) | Ast.Postfix (op, a) ->
      (* an object calls its class's operator, postfix passing the dummy
         int; a scalar takes the builtin operation *)
      let postfix = match e.Ast.e with Ast.Postfix _ -> true | _ -> false in
      let on_object =
        let run = operator_at t e ("operator" ^ op) in
        if postfix then fun v -> run v [ vint 0L ] else fun v -> run v []
      in
      let bump = bump op (bind t (store_type t a)) in
      let a = expr ctx a in
      let scalar : value -> value =
        match op with
        | "!" -> fun v -> vbool (not (truthy v))
        | "-" -> ( function Vdouble x -> Vdouble (-.x) | v -> vint (Int64.neg (to_int v)))
        | "+" -> Fun.id
        | "~" -> fun v -> Vint (Int64.lognot (to_int v))
        | "++" | "--" -> fun _ -> error "cannot increment non-lvalue"
        | _ -> fun _ -> error "unsupported operator '%s'" op
      in
      let on_value f = match deref (a.rv f) with Vobj _ as v -> on_object v | v -> scalar v in
      if op <> "++" && op <> "--" then rv (fun f -> tick t cost_expr; on_value f)
      else
        rv (fun f ->
            tick t cost_expr;
            let cell = a.lv f in
            if cell == no_cell then on_value f
            else
              match !cell with
              | Vobj _ -> on_object (Vref cell)
              | old -> bump cell; if postfix then old else !cell)
  | Ast.Binary (("&&" | "||") as op, a, b) ->
      let a = expr ctx a and b = expr ctx b and conj = op = "&&" in
      rv (fun f ->
          tick t cost_expr;
          (* the right operand runs only when the left does not decide *)
          let x = truthy (deref (a.rv f)) in
          vbool (if x <> conj then x else truthy (deref (b.rv f))))
  | Ast.Binary (op, a, b) ->
      (* an object operand calls an operator, scalars take the builtin one *)
      let a = expr ctx a and b = expr ctx b in
      let arith = binop op and on_objects = operator_at t e ("operator" ^ op) in
      rv (fun f ->
          tick t cost_expr;
          let va = deref (a.rv f) in
          let vb = deref (b.rv f) in
          match (va, vb) with Vobj _, _ | _, Vobj _ -> on_objects va [ vb ] | _ -> arith va vb)
  | Ast.Assign (op, a, b) -> assign ctx e op a b
  | Ast.Cond (c, a, b) ->
      let c = expr ctx c and a = expr ctx a and b = expr ctx b in
      rv (fun f ->
          tick t cost_expr;
          if truthy (deref (c.rv f)) then deref (a.rv f) else deref (b.rv f))
  | Ast.Call (callee, args) ->
      let call = call ctx e callee args in
      { rv = call; lv = (fun f -> match call f with Vref cell -> cell | _ -> no_cell) }
  | Ast.Member (oe, _, m) ->
      let cell = member ctx oe m in
      { rv = (fun f -> tick t cost_expr; !(cell f)); lv = cell }
  | Ast.Index (a, i) ->
      let a = expr ctx a and i = expr ctx i in
      let on_object = operator_at t e "operator[]" in
      (* an array element, or through a non-array pointer index 0 *)
      let cell va vi =
        match va with
        | Varr cells | Vptr { contents = Varr cells } ->
            let idx = Int64.to_int (to_int vi) in
            if idx < 0 || idx >= Array.length cells then no_cell else cells.(idx)
        | Vptr cell -> if to_int vi = 0L then cell else no_cell
        | _ -> no_cell
      in
      { rv =
          (fun f ->
            tick t cost_expr;
            let va = deref (a.rv f) in
            let vi = deref (i.rv f) in
            match va with
            | Vobj _ -> deref (on_object va [ vi ])
            | Vstr s ->
                let idx = Int64.to_int (to_int vi) in
                if idx >= 0 && idx < String.length s then Vchar (Char.code s.[idx]) else Vchar 0
            | _ -> (
                let c = cell va vi in
                if c != no_cell then !c
                else
                  match va with
                  | Varr _ | Vptr { contents = Varr _ } ->
                      raise (Cpp_exception (Vstr "array index out of range"))
                  | Vptr _ -> error "unsupported pointer indexing"
                  | _ -> error "cannot index this value"));
        lv =
          (fun f ->
            let va = deref (a.rv f) in
            let vi = deref (i.rv f) in
            match va with
            | Vobj _ -> ( match on_object va [ vi ] with Vref cell -> cell | v -> ref v)
            | _ -> cell va vi) }
  | Ast.CCast (ty, a) | Ast.NamedCast (_, ty, a) ->
      let a = expr ctx a and conv = bind t (ast_type t e.Ast.eloc ty) in
      rv (fun f -> tick t cost_expr; conv (deref (a.rv f)))
  | Ast.Construct (ty, args) ->
      let make = construct_from_type ctx e ty args in
      rv (fun f -> tick t cost_expr; make f)
  | Ast.New (ty, args, None) ->
      let make = construct_from_type ctx e ty (Option.value args ~default:[]) in
      rv (fun f -> tick t cost_expr; Vptr (ref (make f)))
  | Ast.New (ty, _, Some n) ->
      (* each element of a class is built by the constructor sema noted *)
      let n = expr ctx n and ty = ast_type t e.Ast.eloc ty in
      let elem =
        match (class_of t ty, ty) with
        | Some cl, _ ->
            let make = construct t cl (Option.map (callee_routine t) (noted_call t e)) in
            fun _ -> ref (make [])
        | None, Some ty -> fun _ -> ref (default_value t ty)
        | None, None -> fun _ -> ref (Vint 0L)
      in
      rv (fun f ->
          tick t cost_expr;
          let n = Int64.to_int (to_int (deref (n.rv f))) in
          Vptr (ref (Varr (Array.init (max n 0) elem))))
  | Ast.Delete (_, a) ->
      let a = expr ctx a in
      rv (fun f -> tick t cost_expr; ignore (a.rv f); Vunit)
  | Ast.SizeofE _ | Ast.SizeofT _ -> const (Vint 8L)
  | Ast.ThrowE (Some a) ->
      let a = expr ctx a in
      rv (fun f -> tick t cost_expr; raise (Cpp_exception (deref (a.rv f))))
  | Ast.ThrowE None -> rv (fun _ -> tick t cost_expr; raise (Cpp_exception Vnull))
  | Ast.Comma (a, b) ->
      let a = expr ctx a and b = expr ctx b in
      rv (fun f -> tick t cost_expr; ignore (a.rv f); deref (b.rv f))

and this f =
  match f.f_this with Some o -> o | None -> error "'this' outside of member function"

(* a name: a local's slot, a field of this or a global found once per site;
   a qualified name is an enum constant or a namespace variable *)
and ident ctx (q : Ast.qual_name) : cexpr =
  let t = ctx.t in
  match q.Ast.parts with
  | [ { id; _ } ] -> (
      let cell = name_cell ctx id in
      (* enum constants resolved by sema are... not in IL bodies; look in
         IL enums *)
      match Hashtbl.find_opt t.enum_constants id with
      | Some v ->
          let v = Vint v in
          { rv = (fun f -> tick t cost_expr; let c = cell f in if c != no_cell then !c else v);
            lv = cell }
      | None ->
          let cell f =
            let c = cell f in
            if c != no_cell then c else error "unbound identifier '%s'" id
          in
          { rv = (fun f -> tick t cost_expr; !(cell f)); lv = cell })
  | _ -> (
      (* qualified: try enum constant Class::CONST or namespace variable *)
      let last = (Ast.last_part q).Ast.id and full = Ast.qual_name_to_string q in
      let global = Hashtbl.find_opt t.globals in
      match (Hashtbl.find_opt t.enum_constants last, global full, global last) with
      | Some v, _, _ -> { rv = (let v = Vint v in fun _ -> tick t cost_expr; v); lv = no_lv }
      | None, Some c, _ | None, None, Some c ->
          { rv = (fun _ -> tick t cost_expr; !c); lv = (fun _ -> c) }
      | None, None, None ->
          let fail _ = error "unbound name '%s'" full in
          { rv = (fun f -> tick t cost_expr; fail f); lv = fail })

(* member access, [o.f] or [p->f]: the field's cell *)
and member ctx (oe : Ast.expr) (m : Ast.qual_name) : frame -> value ref =
  let t = ctx.t in
  let oe = expr ctx oe and name = (Ast.last_part m).Ast.id in
  let field = field_cell t name in
  fun f ->
    match deref (oe.rv f) with
    | Vobj o | Vptr { contents = Vobj o } ->
        let c = field o in
        if c != no_cell then c
        else error "object of class %s has no field '%s'" (Il.class_ t.prog o.o_class).cl_name name
    | Vptr _ -> error "member access through non-object pointer"
    | Vnull -> raise (Cpp_exception (Vstr "null pointer member access"))
    | _ -> error "member access on non-object"

(* [a op b]: the operator sema noted, on [a]'s cell, else the builtin
   store (an object assigned field by field) *)
and assign ctx (e : Ast.expr) op (a : Ast.expr) (b : Ast.expr) : cexpr =
  let t = ctx.t in
  let b = expr ctx b and conv = bind t (store_type t a) and a = expr ctx a in
  let update =
    match noted_call t e with
    | Some cs -> let run = operator t cs in fun cell vb -> run (Vref cell) [ vb ]
    | None when op = "=" -> (
        fun cell vb ->
          (match (!cell, vb) with
           | Vobj o, Vobj src -> assign_obj t o src
           | Vobj _, _ -> error "cannot assign a non-object to an object"
           | _ -> cell := conv vb);
          !cell)
    | None -> (
        let arith = binop (String.sub op 0 (String.length op - 1)) in
        let on_object = operator_at t e ("operator" ^ op) in
        fun cell vb ->
          match !cell with
          | Vobj _ -> on_object (Vref cell) [ vb ]
          | cur -> cell := conv (arith cur vb); !cell)
  in
  { rv =
      (fun f ->
        tick t cost_expr;
        let vb = deref (b.rv f) in
        let cell = a.lv f in
        if cell == no_cell then error "cannot assign to non-lvalue";
        update cell vb);
    lv = no_lv }

(* an lvalue argument is passed in flight, so a T& parameter can alias it;
   a call runs once, its T& result already in flight *)
and arguments ctx (args : Ast.expr list) : frame -> value list =
  let arg (a : Ast.expr) : frame -> value =
    let c = expr ctx a in
    match a.Ast.e with
    | Ast.Call _ -> c.rv
    | _ when c.lv == no_lv -> fun f -> deref (c.rv f)
    | _ ->
        fun f ->
          let cell = c.lv f in
          if cell != no_cell then Vref cell else deref (c.rv f)
  in
  match List.map arg args with
  | [] -> fun _ -> []
  | [ a ] -> fun f -> [ a f ]
  | l -> fun f -> eval_each f l

and values ctx (args : Ast.expr list) : frame -> value list =
  let args = List.map (fun a -> let a = expr ctx a in fun f -> deref (a.rv f)) args in
  fun f -> eval_each f args

(* [T(args)] or [new T(args)] at [e]: a class is built by the constructor
   sema noted; a routine sema noted instead (a qualified call read as
   [T(x)], such as [C::f(x)], or [B::val()] on [this]) runs; a scalar
   converts, [T()] giving 0 of its type. *)
and construct_from_type ctx (e : Ast.expr) (ty : Ast.type_expr) (args : Ast.expr list) :
    frame -> value =
  let t = ctx.t in
  let vargs = values ctx args and rty = ast_type t e.Ast.eloc ty in
  let noted = Option.map (fun cs -> (cs, callee_routine t cs)) (noted_call t e) in
  match (noted, class_of t rty) with
  | Some (cs, r), _ when r.ro_kind <> Rk_ctor ->
      let run = callee t cs in
      if on_receiver r then fun f -> let this = this f in run (Some this) (vargs f)
      else fun f -> run None (vargs f)
  | _, Some cl ->
      let make = construct t cl (Option.map snd noted) in
      fun f -> make (vargs f)
  | _ ->
      let conv = bind t rty in
      let zero = conv (Vint 0L) in
      fun f -> match vargs f with [] -> zero | [ v ] -> conv v | v :: _ -> v

(* A call expression [e], the Call node's tick included.  The routine sema
   noted runs: a constructor builds its class, a member runs on the object
   the callee names ([o.f], [p->f], a functor) or else on [this], any
   other without a receiver.  Where sema noted no call, [call_by_name]. *)
and call ctx (e : Ast.expr) (callee_e : Ast.expr) (cargs : Ast.expr list) : frame -> value =
  let t = ctx.t in
  (* the TAU measurement builtins and mpi_rank/mpi_size go by name *)
  let builtin =
    match callee_e.Ast.e with
    | Ast.IdE { Ast.parts = [ p ]; _ } when List.mem_assoc p.Ast.id ctx.scope -> ""
    | Ast.IdE q -> (Ast.last_part q).Ast.id
    | _ -> ""
  in
  match (builtin, cargs) with
  | "TAU_PROFILE", _ -> tau_profile ctx cargs
  | "mpi_rank", _ -> let v = Vint (Int64.of_int (fst t.mpi)) in fun _ -> tick t cost_expr; v
  | "mpi_size", _ -> let v = Vint (Int64.of_int (snd t.mpi)) in fun _ -> tick t cost_expr; v
  | "CT", [ { Ast.e = Ast.Unary ("*", { Ast.e = Ast.ThisE; _ }); _ } ] ->
      (* CT( *this ): the receiver's class name *)
      let cname = per_class (fun cl -> Vstr (Il.class_ t.prog cl).cl_name) in
      fun f -> tick t cost_expr; tick t cost_expr; tick t cost_expr; cname (this f).o_class
  | "CT", [ a ] ->
      let a = expr ctx a in
      fun f -> tick t cost_expr; Vstr (type_name_of_value t (deref (a.rv f)))
  | "CT", _ -> fun _ -> tick t cost_expr; Vstr "<CT?>"
  | _ -> (
      let args = arguments ctx cargs in
      (* on the object [recv_e] names, found before the arguments run *)
      let on recv_e run =
        let recv = expr ctx recv_e in
        fun f ->
          tick t cost_expr;
          let o = receiver (deref (recv.rv f)) in
          run o (args f)
      in
      match (callee_e.Ast.e, noted_call t e) with
      | _, Some cs -> (
          let r = callee_routine t cs and run = callee t cs in
          match (callee_e.Ast.e, r.ro_parent) with
          | _, Pclass cl when r.ro_kind = Rk_ctor ->
              let make = construct t cl (Some r) in
              fun f -> tick t cost_expr; make (args f)
          | Ast.Member (oe, _, _), _ -> on oe (fun o vargs -> run (Some o) vargs)
          | _ when r.ro_name = "operator()" -> on callee_e (fun o vargs -> run (Some o) vargs)
          | _ when on_receiver r ->
              fun f -> tick t cost_expr; let vargs = args f in run (Some (this f)) vargs
          | _ -> fun f -> tick t cost_expr; run None (args f))
      | Ast.Member (oe, _, m), None ->
          let by_name = call_by_name t (Ast.last_part m).Ast.id in
          on oe (fun o vargs -> by_name (Some o) vargs vargs)
      | Ast.IdE q, None -> (
          match Hashtbl.find_opt t.class_by_name (Ast.qual_name_to_string q) with
          | Some cl -> fun f -> tick t cost_expr; construct t cl None (args f)
          | None ->
              let by_name = call_by_name t (Ast.last_part q).Ast.id in
              fun f -> tick t cost_expr; let vargs = args f in by_name f.f_this vargs vargs)
      | _, None -> fun _ -> error "call to an unresolved routine")

(* the TAU_PROFILE statement: start a timer bound to the current frame; the
   label is rebuilt only when its parts are not the last call's strings *)
and tau_profile ctx (args : Ast.expr list) : frame -> value =
  let t = ctx.t in
  let enter f label =
    if Rt.enter t.profiler label ~now:t.cycles then f.f_timers <- f.f_timers + 1
  in
  let name_of a = let a = expr ctx a in fun f -> value_to_display_string (deref (a.rv f)) in
  let profile =
    match args with
    | _ when not t.instrumented -> fun _ -> ()
    | [ n ] ->
        let n = name_of n in
        fun f -> enter f (n f)
    | n :: ty :: _ ->
        let n = name_of n and ty = name_of ty in
        let last_n = ref "" and last_ty = ref "" and last = ref "" in
        fun f ->
          let n = n f in
          let ty = ty f in
          if n != !last_n || ty != !last_ty then begin
            last := if ty = "" || ty = "0" then n else String.concat "" [ n; " ["; ty; "]" ];
            last_n := n;
            last_ty := ty
          end;
          enter f !last
    | [] -> fun f -> enter f "<unnamed>"
  in
  fun f ->
    tick t cost_expr;
    profile f;
    Vunit

(* ---- statements: each ticks once for itself, then runs its parts ---- *)

and stmt ctx ~direct (s : Ast.stmt) : frame -> unit =
  let t = ctx.t in
  let cond c = let c = expr ctx c in fun f -> truthy (deref (c.rv f)) in
  let loop_body body = let body = stmt ctx ~direct:false body in
    fun f -> try body f with Continue_exc -> () in
  match s.Ast.s with
  | Ast.SExpr None | Ast.SJoin _ -> fun _ -> tick t cost_expr
  | Ast.SExpr (Some e) | Ast.SSpawn e ->
      (* spawn: deterministic sequential schedule, the spawned call runs
         eagerly at the spawn site, so join is a no-op *)
      let e = expr ctx e in
      fun f -> tick t cost_expr; ignore (e.rv f)
  | Ast.SDecl vds ->
      let ds = List.map (local_decl ctx ~direct) vds in
      fun f -> tick t cost_expr; run_all ds f
  | Ast.SCompound ss ->
      let ss, own = in_scope ctx (fun () -> List.map (stmt ctx ~direct:true) ss) in
      if own = [||] then fun f -> tick t cost_expr; run_all ss f
      else fun f -> tick t cost_expr; reset own f; run_all ss f
  | Ast.SIf (c, a, b) ->
      let c = cond c in
      let a = stmt ctx ~direct:false a in
      let b = match b with Some b -> stmt ctx ~direct:false b | None -> ignore in
      fun f -> tick t cost_expr; if c f then a f else b f
  | Ast.SWhile (c, body) ->
      let c = cond c in
      let body = loop_body body in
      fun f -> tick t cost_expr; (try while c f do body f done with Break_exc -> ())
  | Ast.SDoWhile (body, c) ->
      let body = loop_body body in
      let c = cond c in
      let rec go f = body f; if c f then go f in
      fun f -> tick t cost_expr; (try go f with Break_exc -> ())
  | Ast.SFor (init, c, step, body) ->
      let run, own =
        in_scope ctx (fun () ->
            let init = match init with Some s -> stmt ctx ~direct:true s | None -> ignore in
            let c = match c with Some c -> cond c | None -> fun _ -> true in
            let body = loop_body body in
            let step = match step with Some e -> (expr ctx e).rv | None -> fun _ -> Vunit in
            fun f ->
              init f;
              try
                while c f do
                  body f;
                  ignore (step f)
                done
              with Break_exc -> ())
      in
      fun f -> tick t cost_expr; reset own f; run f
  | Ast.SReturn None -> fun f -> tick t cost_expr; ret f Vunit
  | Ast.SReturn (Some e) ->
      let e = expr ctx e in
      (match Option.map (unqual t) ctx.rett with
       | Some (Tref _) ->
           (* preserve the reference so callers can assign through it *)
           fun f ->
             tick t cost_expr;
             let cell = e.lv f in
             if cell != no_cell then ret f (Vref cell) else ret f (e.rv f)
       | _ ->
           let conv = bind t ctx.rett in
           fun f -> tick t cost_expr; ret f (conv (deref (e.rv f))))
  | Ast.SBreak -> fun _ -> tick t cost_expr; raise_notrace Break_exc
  | Ast.SContinue -> fun _ -> tick t cost_expr; raise_notrace Continue_exc
  | Ast.SSwitch (e, cases) ->
      let e = expr ctx e in
      let cases =
        List.map
          (fun (c : Ast.switch_case) ->
            (Option.map (fun g -> (expr ctx g).rv) c.case_guard,
             List.map (stmt ctx ~direct:false) c.case_body))
          cases
      in
      (* a switch with no matching case runs its default alone *)
      let default = List.filter (fun (g, _) -> Option.is_none g) cases in
      let default = match default with d :: _ -> [ d ] | [] -> [] in
      fun f ->
        tick t cost_expr;
        let v = to_int (deref (e.rv f)) in
        let rec from = function
          | [] -> default
          | (Some g, _) :: _ as matching when to_int (deref (g f)) = v -> matching
          | _ :: rest -> from rest
        in
        let matching = from cases in
        (try List.iter (fun (_, body) -> run_all body f) matching with Break_exc -> ())
  | Ast.STry (body, handlers) ->
      let body = stmt ctx ~direct:false body in
      let handlers = List.map (handler ctx) handlers in
      fun f ->
        tick t cost_expr;
        (try body f
         with Cpp_exception v -> (
           match List.find_opt (fun (matches, _) -> matches v) handlers with
           | Some (_, run) -> run f v
           | None -> raise (Cpp_exception v)))

(* a handler catches an object of its class or a derived one, a scalar of
   its kind, or a string literal when it takes a pointer *)
and handler ctx (h : Ast.handler) : (value -> bool) * (frame -> value -> unit) =
  let t = ctx.t in
  let ty = Option.bind h.h_param (fun p -> ast_type t p.Ast.ploc p.Ast.ptype) in
  let matches =
    match Option.map (fun ty -> (Il.type_ t.prog (Il.strip_qual_ref t.prog ty)).ty_kind) ty with
    | _ when h.h_param = None -> fun _ -> true
    | Some (Tclass cl) -> ( function Vobj o -> derives t o.o_class cl | _ -> false)
    | Some (Tbuiltin { ykind; _ }) ->
        fun v -> ykind = (match v with Vdouble _ -> "float" | v -> type_name_of_value t v)
    | Some (Tptr _) -> ( function Vstr _ -> true | _ -> false)
    | _ -> fun _ -> false
  in
  let conv = bind t ty in
  let (slot, body), own =
    in_scope ctx (fun () ->
        let slot =
          match h.h_param with
          | Some { Ast.pname = Some n; _ } -> declare ctx ~direct:true n
          | _ -> -1
        in
        (slot, stmt ctx ~direct:false h.h_body))
  in
  ( matches,
    fun f v ->
      reset own f;
      if slot >= 0 then f.slots.(slot) <- ref (conv v);
      body f )

and local_decl ctx ~direct (vd : Ast.var_decl) : frame -> unit =
  let t = ctx.t in
  (* a declared type's default: an array's size is evaluated each time, a
     class object is default-constructed, a scalar is 0 of its type *)
  let rec default_of aty ty ctor : frame -> value =
    match Ast.unqual aty with
    | Ast.TArray (elem, Some n) ->
        let ety = match Option.map (unqual t) ty with Some (Tarray (e, _)) -> Some e | _ -> None in
        let n = expr ctx n and elem = default_of elem ety None in
        fun f ->
          (match deref (n.rv f) with
           | Vint len -> Varr (Array.init (Int64.to_int len) (fun _ -> ref (elem f)))
           | _ -> Vnull)
    | _ -> (
        match class_of t ty with
        | Some cl -> let make = construct t cl ctor in fun _ -> make []
        | None -> let zero = bind t ty (Vint 0L) in fun _ -> zero)
  in
  let ty = ast_type t vd.Ast.v_loc vd.Ast.v_type in
  let conv = bind t ty in
  (* the constructor sema noted for a class object *)
  let ctor = Option.map (callee_routine t) (Il.noted t.prog.decl_calls vd.Ast.v_loc vd) in
  let init : frame -> value =
    match (vd.Ast.v_init, class_of t ty) with
    | Ast.NoInit, _ -> default_of vd.Ast.v_type ty ctor
    | Ast.EqInit e, Some cl when ctor <> None -> (
        (* an object of [cl] or of a class derived from it is copied as [bind]
           copies it; any other value runs the constructor sema noted *)
        let e = expr ctx e and make = construct t cl ctor in
        fun f ->
          match deref (e.rv f) with
          | Vobj o as v when derives t o.o_class cl -> conv v
          | v -> make [ v ])
    | Ast.EqInit e, _ -> let e = expr ctx e in fun f -> conv (deref (e.rv f))
    | Ast.CtorInit args, Some cl ->
        let vargs = values ctx args and make = construct t cl ctor in
        fun f -> make (vargs f)
    | Ast.CtorInit args, None ->
        let vargs = values ctx args in
        fun f -> conv (match vargs f with v :: _ -> v | [] -> Vint 0L)
  in
  (* reference locals alias their initializer *)
  let cell : frame -> value ref =
    match (vd.Ast.v_type, vd.Ast.v_init) with
    | Ast.TRef _, Ast.EqInit e ->
        let e = expr ctx e in
        fun f ->
          let v = init f in
          let c = e.lv f in
          if c != no_cell then c else ref v
    | _ -> fun f -> ref (init f)
  in
  let slot = declare ctx ~direct vd.Ast.v_name in
  fun f -> f.slots.(slot) <- cell f

(* ------------------------------------------------------------------ *)
(* Program execution                                                   *)
(* ------------------------------------------------------------------ *)

let init_globals t =
  List.iter
    (fun (gv : Il.global_var) ->
      let v =
        if gv.gv_name = "endl" then Vstr "\n"
        else default_value t (Il.strip_qual_ref t.prog gv.gv_type)
      in
      Hashtbl.replace t.globals gv.gv_name (ref v))
    (Il.globals t.prog);
  (* global initializers run in a frame with no locals and no receiver *)
  let ctx = new_ctx t None in
  let gframe = { slots = [||]; f_this = None; f_timers = 0; f_ret = Vunit } in
  List.iter
    (fun (gv : Il.global_var) ->
      match gv.gv_init with
      | Ast.EqInit e -> (
          match Hashtbl.find_opt t.globals gv.gv_name with
          | Some cell -> cell := bind t (Some gv.gv_type) (deref ((expr ctx e).rv gframe))
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
        let v = invoke t (code_of t main) None [] in
        Rt.unwind t.profiler ~now:t.cycles;
        mk (Int64.to_int (to_int (match v with Vunit -> Vint 0L | v -> v)))
      with Cpp_exception v ->
        Rt.unwind t.profiler ~now:t.cycles;
        raise
          (Uncaught
             ( Printf.sprintf "uncaught C++ exception: %s" (type_name_of_value t v),
               mk 134 )))
