(* Semantic-analysis tests: entities, scopes, call edges, overloads. *)

open Pdt_il.Il

let compile ?(with_stl = false) src =
  let vfs = Pdt_util.Vfs.create () in
  if with_stl then Pdt_workloads.Ministl.mount vfs;
  let c = Pdt.compile_string ~vfs src in
  (c.Pdt.program, c.Pdt.diags)

let compile_ok ?with_stl src =
  let prog, diags = compile ?with_stl src in
  if Pdt_util.Diag.has_errors diags then
    Alcotest.failf "compile errors:\n%s" (Pdt_util.Diag.to_string diags);
  prog

let find_class prog name =
  match List.find_opt (fun c -> c.cl_name = name) (classes prog) with
  | Some c -> c
  | None -> Alcotest.failf "class %s not found" name

let find_routine prog full =
  match
    List.find_opt (fun r -> routine_full_name prog r = full) (routines prog)
  with
  | Some r -> r
  | None -> Alcotest.failf "routine %s not found" full

let callee_names prog r =
  List.map (fun cs -> routine_full_name prog (routine prog cs.cs_callee)) (calls r)

(* ---------------------------------------------------------------- *)

let test_class_members () =
  let prog =
    compile_ok
      "class P {\npublic:\n  P(int x, int y) : x_(x), y_(y) { }\n  int x() const { return x_; }\n\
       protected:\n  int y_;\nprivate:\n  int x_;\n};"
  in
  let c = find_class prog "P" in
  Alcotest.(check int) "funcs" 2 (List.length c.cl_funcs);
  Alcotest.(check int) "members" 2 (List.length c.cl_members);
  let y = List.find (fun m -> m.dm_name = "y_") c.cl_members in
  Alcotest.(check string) "protected" "prot" (access_to_string y.dm_access);
  let x = List.find (fun m -> m.dm_name = "x_") c.cl_members in
  Alcotest.(check string) "private" "priv" (access_to_string x.dm_access)

let test_struct_default_access () =
  let prog = compile_ok "struct S { int a; void f() { } };" in
  let c = find_class prog "S" in
  Alcotest.(check string) "struct member is public" "pub"
    (access_to_string (List.hd c.cl_members).dm_access);
  let f = routine prog (List.hd c.cl_funcs) in
  Alcotest.(check string) "struct func is public" "pub" (access_to_string f.ro_access)

let test_call_edges () =
  let prog =
    compile_ok
      "int helper(int a) { return a * 2; }\n\
       int helper(double d) { return 1; }\n\
       int main() { int x = helper(21); double y = 1.5; return helper(y); }"
  in
  let main = find_routine prog "main" in
  Alcotest.(check int) "two calls" 2 (List.length (calls main));
  (* overload resolution picked the right ones *)
  let cs = calls main in
  let sig0 = type_name prog (routine prog (List.nth cs 0).cs_callee).ro_sig in
  let sig1 = type_name prog (routine prog (List.nth cs 1).cs_callee).ro_sig in
  Alcotest.(check string) "int overload" "int (int)" sig0;
  Alcotest.(check string) "double overload" "int (double)" sig1;
  (* a float goes to the builtin of its own kind, double, before int *)
  let prog =
    compile_ok
      "int h(int n) { return 1; }\nint h(double d) { return 2; }\n\
       int main() { float f = 1.5; return h(f); }"
  in
  let cs = calls (find_routine prog "main") in
  Alcotest.(check (list string)) "h(f) with a float f" [ "int (double)" ]
    (List.map (fun cs -> type_name prog (routine prog cs.cs_callee).ro_sig) cs);
  (* a call that names its class is direct, even to a virtual routine *)
  let prog =
    compile_ok
      "class V {\npublic:\n  virtual int val() { return 1; }\n};\n\
       class W : public V {\npublic:\n  int val() { return V::val() + 1; }\n};"
  in
  Alcotest.(check (list (pair string bool))) "V::val() inside W::val" [ ("V::val", false) ]
    (List.map
       (fun cs -> (routine_full_name prog (routine prog cs.cs_callee), cs.cs_virtual))
       (calls (find_routine prog "W::val")))

let test_member_call_edges () =
  let prog =
    compile_ok
      "class A {\npublic:\n  int f() { return g() + 1; }\n  int g() { return 2; }\n};\n\
       int main() { A a; return a.f(); }"
  in
  let f = find_routine prog "A::f" in
  Alcotest.(check (list string)) "f calls g" [ "A::g" ] (callee_names prog f);
  let main = find_routine prog "main" in
  (* ctor (implicit), a.f(), implicit dtor *)
  let names = callee_names prog main in
  Alcotest.(check bool) "calls A::f" true (List.mem "A::f" names);
  Alcotest.(check bool) "implicit ctor edge" true (List.mem "A::A" names);
  Alcotest.(check bool) "implicit dtor edge" true (List.mem "A::~A" names)

let test_ctor_dtor_lifetimes () =
  let prog =
    compile_ok
      "class R {\npublic:\n  R() { }\n  ~R() { }\n};\n\
       void f() { R r1; { R r2; } }"
  in
  let f = find_routine prog "f" in
  let names = callee_names prog f in
  Alcotest.(check int) "2 ctors + 2 dtors" 4 (List.length names);
  Alcotest.(check int) "two dtor calls" 2
    (List.length (List.filter (fun n -> n = "R::~R") names))

let test_virtual_override () =
  let prog =
    compile_ok
      "class B {\npublic:\n  virtual int f() { return 1; }\n};\n\
       class D : public B {\npublic:\n  int f() { return 2; }\n};\n\
       int main() { D d; return d.f(); }"
  in
  let df = find_routine prog "D::f" in
  Alcotest.(check string) "override is virtual" "virt" (virt_to_string df.ro_virt);
  let main = find_routine prog "main" in
  let virtual_calls = List.filter (fun cs -> cs.cs_virtual) (calls main) in
  Alcotest.(check int) "virtual call site" 1 (List.length virtual_calls);
  (* a grandparent's virtual makes an override virtual through a class that
     does not redeclare it *)
  let prog =
    compile_ok
      "class A {\npublic:\n  virtual int f() { return 1; }\n};\nclass B : public A { };\n\
       class C : public B {\npublic:\n  int f() { return 2; }\n};\n\
       int main() { C c; C * p = &c; return p->f(); }"
  in
  Alcotest.(check string) "override past a level is virtual" "virt"
    (virt_to_string (find_routine prog "C::f").ro_virt);
  Alcotest.(check (list (pair string bool))) "p->f() through a C *" [ ("C::f", true) ]
    (List.map
       (fun cs -> (routine_full_name prog (routine prog cs.cs_callee), cs.cs_virtual))
       (List.filter
          (fun cs -> (routine prog cs.cs_callee).ro_name = "f")
          (calls (find_routine prog "main"))))

let test_bases_and_derived () =
  let prog =
    compile_ok
      "class A {}; class B {}; class C : public A, private virtual B {};"
  in
  let c = find_class prog "C" in
  Alcotest.(check int) "2 bases" 2 (List.length c.cl_bases);
  let b1 = List.nth c.cl_bases 1 in
  Alcotest.(check bool) "virtual base" true b1.ba_virtual;
  Alcotest.(check string) "private base" "priv" (access_to_string b1.ba_access);
  let a = find_class prog "A" in
  Alcotest.(check (list int)) "derived backlink" [ c.cl_id ] a.cl_derived

let test_namespaces () =
  let prog =
    compile_ok
      "namespace outer {\n  int f() { return 1; }\n  namespace inner { int g() { return 2; } }\n}\n\
       int main() { return outer::f() + outer::inner::g(); }"
  in
  Alcotest.(check int) "two namespaces" 2 (List.length (namespaces prog));
  let main = find_routine prog "main" in
  Alcotest.(check (list string)) "qualified calls resolved"
    [ "outer::f"; "outer::inner::g" ] (callee_names prog main)

let test_using_namespace () =
  let prog =
    compile_ok
      "namespace N { int f() { return 1; } }\nusing namespace N;\n\
       int main() { return f(); }"
  in
  let main = find_routine prog "main" in
  Alcotest.(check (list string)) "call through using" [ "N::f" ] (callee_names prog main)

let test_enum_constants () =
  let prog =
    compile_ok
      "enum Color { Red, Green = 5, Blue };\nint main() { return Blue; }"
  in
  let enum =
    List.find_opt
      (fun ty -> match ty.ty_kind with Tenum _ -> true | _ -> false)
      (types prog)
  in
  match enum with
  | Some { ty_kind = Tenum { constants; _ }; _ } ->
      Alcotest.(check (list (pair string int)))
        "values"
        [ ("Red", 0); ("Green", 5); ("Blue", 6) ]
        (List.map (fun (n, v, _) -> (n, Int64.to_int v)) constants)
  | _ -> Alcotest.fail "enum type not found"

let test_typedef () =
  let prog =
    compile_ok "typedef unsigned long size_type;\nsize_type f() { return 0; }"
  in
  let f = find_routine prog "f" in
  Alcotest.(check string) "underlying type in signature" "unsigned long ()"
    (type_name prog f.ro_sig)

let test_signature_types () =
  let prog =
    compile_ok
      "class T {\npublic:\n  const int & get(const double * p, bool b = true) const;\n};"
  in
  let get = find_routine prog "T::get" in
  Alcotest.(check string) "signature" "const int & (const double *, bool) const"
    (type_name prog get.ro_sig);
  Alcotest.(check bool) "default arg flagged" true
    (List.exists (fun p -> p.pi_has_default) get.ro_params)

let test_exception_spec () =
  let prog = compile_ok "class E {};\nvoid f() throw(E);" in
  let f = find_routine prog "f" in
  match (type_ prog f.ro_sig).ty_kind with
  | Tfunc { exceptions = Some [ e ]; _ } ->
      Alcotest.(check string) "exception class" "E" (type_name prog e)
  | _ -> Alcotest.fail "exception spec not recorded"

let test_static_members () =
  let prog =
    compile_ok
      "class C {\npublic:\n  static int count() { return 0; }\n  static int total;\n};"
  in
  let count = find_routine prog "C::count" in
  Alcotest.(check bool) "static method" true count.ro_static;
  Alcotest.(check string) "storage" "static" count.ro_store;
  let c = find_class prog "C" in
  let total = List.find (fun m -> m.dm_name = "total") c.cl_members in
  Alcotest.(check bool) "static member" true total.dm_static

let test_operator_calls () =
  let prog =
    compile_ok
      "class V {\npublic:\n  V(int x) : x_(x) { }\n  V operator+(const V & o) const { return V(x_ + o.x_); }\n\
       \  bool operator<(const V & o) const { return x_ < o.x_; }\nprivate:\n  int x_;\n};\n\
       int main() { V a(1); V b(2); V c = a + b; if (a < b) return 1; return 0; }"
  in
  let main = find_routine prog "main" in
  let names = callee_names prog main in
  Alcotest.(check bool) "operator+ edge" true (List.mem "V::operator+" names);
  Alcotest.(check bool) "operator< edge" true (List.mem "V::operator<" names);
  (* a free operator is found for a scalar left operand; an operator never
     applies to pointers to a class *)
  let prog =
    compile_ok
      "class V {\npublic:\n  V(int x) : x_(x) { }\n  bool operator==(const V & o) const { return true; }\n\
       \  int x_;\n};\n\
       V operator*(int k, const V & v) { return V(k * v.x_); }\n\
       int main() { V a(1); V b = 2 * a; V * p = &a; V * q = &b; return p == q; }"
  in
  let names = callee_names prog (find_routine prog "main") in
  Alcotest.(check bool) "2 * a calls the free operator*" true (List.mem "operator*" names);
  Alcotest.(check bool) "p == q on V * calls no operator==" false
    (List.mem "V::operator==" names)

let test_out_of_line_definition () =
  let prog =
    compile_ok
      "class C {\npublic:\n  int f(int x);\n};\nint C::f(int x) { return x + 1; }"
  in
  let f = find_routine prog "C::f" in
  Alcotest.(check bool) "defined" true f.ro_defined;
  Alcotest.(check bool) "has body" true (f.ro_body <> None);
  (* only one routine entity for decl+def *)
  let all_f = List.filter (fun r -> r.ro_name = "f") (routines prog) in
  Alcotest.(check int) "merged decl/def" 1 (List.length all_f)

let test_forward_declaration () =
  let prog = compile_ok "class F;\nclass F { public: int x; };\nF *p;" in
  let fs = List.filter (fun c -> c.cl_name = "F") (classes prog) in
  Alcotest.(check int) "one class entity" 1 (List.length fs);
  Alcotest.(check bool) "complete" true (List.hd fs).cl_complete

let test_conversion_operator () =
  let prog =
    compile_ok
      "class Meters {\npublic:\n  Meters(double v) : v_(v) { }\n  operator double() const { return v_; }\n\
       private:\n  double v_;\n};"
  in
  let conv =
    List.find_opt (fun r -> r.ro_kind = Rk_conversion) (routines prog)
  in
  Alcotest.(check bool) "conversion op exists" true (conv <> None)

let test_inheritance_member_lookup () =
  let prog =
    compile_ok
      "class Base {\npublic:\n  int common() { return 1; }\n  int data;\n};\n\
       class Derived : public Base {\npublic:\n  int use() { return common() + data; }\n};\n\
       int main() { Derived d; return d.use(); }"
  in
  let use = find_routine prog "Derived::use" in
  Alcotest.(check (list string)) "inherited member call" [ "Base::common" ]
    (callee_names prog use)

let test_global_vars () =
  let prog = compile_ok "int counter = 5;\nint main() { return counter; }" in
  Alcotest.(check int) "one global" 1 (List.length (globals prog));
  Alcotest.(check string) "name" "counter" (List.hd (globals prog)).gv_name

let test_stats () =
  let prog = compile_ok ~with_stl:true
      "#include <vector.h>\nint main() { vector<int> v; v.push_back(1); return v.size(); }"
  in
  let s = stats prog in
  Alcotest.(check bool) "instantiated classes > 0" true (s.n_instantiated_classes >= 1);
  Alcotest.(check bool) "call edges" true (s.n_call_edges >= 3)

let suite =
  [ Alcotest.test_case "class members and access" `Quick test_class_members;
    Alcotest.test_case "struct default access" `Quick test_struct_default_access;
    Alcotest.test_case "call edges and overloads" `Quick test_call_edges;
    Alcotest.test_case "member call edges" `Quick test_member_call_edges;
    Alcotest.test_case "ctor/dtor lifetime edges" `Quick test_ctor_dtor_lifetimes;
    Alcotest.test_case "virtual override detection" `Quick test_virtual_override;
    Alcotest.test_case "bases and derived links" `Quick test_bases_and_derived;
    Alcotest.test_case "namespaces" `Quick test_namespaces;
    Alcotest.test_case "using namespace" `Quick test_using_namespace;
    Alcotest.test_case "enum constants" `Quick test_enum_constants;
    Alcotest.test_case "typedef resolution" `Quick test_typedef;
    Alcotest.test_case "signature types" `Quick test_signature_types;
    Alcotest.test_case "exception specification" `Quick test_exception_spec;
    Alcotest.test_case "static members" `Quick test_static_members;
    Alcotest.test_case "operator call edges" `Quick test_operator_calls;
    Alcotest.test_case "out-of-line definition" `Quick test_out_of_line_definition;
    Alcotest.test_case "forward declaration" `Quick test_forward_declaration;
    Alcotest.test_case "conversion operator" `Quick test_conversion_operator;
    Alcotest.test_case "inherited member lookup" `Quick test_inheritance_member_lookup;
    Alcotest.test_case "global variables" `Quick test_global_vars;
    Alcotest.test_case "program statistics" `Quick test_stats ]
