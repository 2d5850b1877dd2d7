(* Interpreter tests: the dynamic-analysis substrate. *)

let run ?(with_stl = true) src =
  let vfs = Pdt_util.Vfs.create () in
  if with_stl then Pdt_workloads.Ministl.mount vfs;
  let c = Pdt.compile_string ~vfs src in
  if Pdt_util.Diag.has_errors c.Pdt.diags then
    Alcotest.failf "compile errors:\n%s" (Pdt_util.Diag.to_string c.Pdt.diags);
  Pdt_tau.Interp.run c.Pdt.program

let check_exit msg src expected =
  let r = run src in
  Alcotest.(check int) msg expected r.exit_code

let check_output msg src expected =
  let r = run src in
  Alcotest.(check string) msg expected r.output

let test_casts_convert () =
  (* regression: C-style and named casts must actually convert scalars *)
  check_exit "double->int truncates" "int main() { double d = 2.9; return (int)d; }" 2;
  check_exit "cast in expression" "int main() { return (int)2.5 + 10 * (int)2.5; }" 22;
  check_exit "static_cast" "int main() { double d = 7.7; return static_cast<int>(d); }" 7;
  check_exit "int->double->int" "int main() { int x = 3; double d = (double)x / 2.0; return (int)(d * 4.0); }" 6;
  check_exit "bool cast" "int main() { return (bool)42 ? 1 : 0; }" 1;
  check_exit "char cast wraps" "int main() { return (char)321; }" 65

let test_arithmetic () =
  check_exit "int arith" "int main() { return (2 + 3) * 4 - 20 / 2; }" 10;
  check_exit "modulo" "int main() { return 17 % 5; }" 2;
  check_exit "shifts" "int main() { return (1 << 4) | 3; }" 19;
  check_exit "double to int" "int main() { double d = 3.9; return (int)d; }" 3;
  check_exit "comparison chain" "int main() { return (3 < 4) + (4 <= 4) + (5 > 6); }" 2

let test_control_flow () =
  check_exit "if/else" "int main() { int x = 5; if (x > 3) return 1; else return 2; }" 1;
  check_exit "while" "int main() { int s = 0; int i = 0; while (i < 5) { s += i; i++; } return s; }" 10;
  check_exit "do-while" "int main() { int n = 0; do { n++; } while (n < 3); return n; }" 3;
  check_exit "for with break/continue"
    "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i == 7) break; if (i % 2) continue; s += i; } return s; }"
    12;
  check_exit "switch"
    "int main() { int x = 2; switch (x) { case 1: return 10; case 2: return 20; default: return 30; } }"
    20;
  check_exit "switch fallthrough"
    "int main() { int s = 0; switch (1) { case 1: s += 1; case 2: s += 2; break; case 3: s += 4; } return s; }"
    3

let test_recursion () =
  check_exit "factorial" "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\nint main() { return fact(5); }" 120;
  check_exit "fibonacci" "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\nint main() { return fib(10); }" 55

let test_references () =
  check_exit "ref param" "void bump(int & x) { x = x + 1; }\nint main() { int v = 41; bump(v); return v; }" 42;
  check_exit "swap"
    "void swp(int & a, int & b) { int t = a; a = b; b = t; }\nint main() { int x = 3; int y = 7; swp(x, y); return x * 10 + y; }"
    73;
  check_exit "ref local" "int main() { int a = 5; int & r = a; r = 9; return a; }" 9

let test_default_args () =
  check_exit "defaults" "int f(int a, int b = 10, int c = 100) { return a + b + c; }\nint main() { return f(1) - f(1, 2) - f(1, 2, 3); }" 2

let test_objects () =
  check_exit "fields and methods"
    "class Counter {\npublic:\n  Counter() : n_(0) { }\n  void add(int k) { n_ += k; }\n  int get() const { return n_; }\nprivate:\n  int n_;\n};\n\
     int main() { Counter c; c.add(3); c.add(4); return c.get(); }"
    7;
  check_exit "ctor args and member init"
    "class P {\npublic:\n  P(int x, int y) : x_(x), y_(y) { }\n  int sum() { return x_ + y_; }\nprivate:\n  int x_;\n  int y_;\n};\n\
     int main() { P p(30, 12); return p.sum(); }"
    42;
  check_exit "copy semantics"
    "class B {\npublic:\n  B() : v(1) { }\n  int v;\n};\n\
     int main() { B a; B b = a; b.v = 99; return a.v; }"
    1

let test_virtual_dispatch () =
  check_exit "dynamic dispatch through base pointer"
    "class Base {\npublic:\n  virtual int id() { return 1; }\n  virtual ~Base() { }\n};\n\
     class Derived : public Base {\npublic:\n  virtual int id() { return 2; }\n};\n\
     int main() { Base *p = new Derived(); int r = p->id(); delete p; return r; }"
    2;
  check_exit "inherited fields"
    "class A {\npublic:\n  A() : x(5) { }\n  int x;\n};\n\
     class B : public A {\npublic:\n  int twice() { return x * 2; }\n};\n\
     int main() { B b; return b.twice(); }"
    10

let test_exceptions () =
  check_exit "throw and catch by class"
    "class Oops { };\nint main() { try { throw Oops(); } catch (Oops & e) { return 7; } return 0; }"
    7;
  check_exit "catch all"
    "int main() { try { throw 42; } catch (...) { return 1; } return 0; }" 1;
  check_exit "unwinds nested calls"
    "class E { };\nvoid deep(int n) { if (n == 0) throw E(); deep(n - 1); }\n\
     int main() { try { deep(5); } catch (E & e) { return 3; } return 0; }"
    3;
  check_exit "derived caught as base"
    "class Base { };\nclass Derived : public Base { };\n\
     int main() { try { throw Derived(); } catch (Base & e) { return 1; } return 0; }"
    1

let test_vector_builtin () =
  check_exit "push_back and size"
    "#include <vector.h>\nint main() { vector<int> v; for (int i = 0; i < 5; i++) v.push_back(i * i); return v[4]; }"
    16;
  check_exit "subscript write" "#include <vector.h>\nint main() { vector<int> v(3); v[1] = 42; return v[1]; }" 42;
  check_exit "pop_back and empty"
    "#include <vector.h>\nint main() { vector<int> v; v.push_back(1); v.pop_back(); return v.empty() ? 5 : 6; }"
    5

let test_iostream () =
  check_output "cout chain" "#include <iostream.h>\nint main() { cout << \"x=\" << 42 << endl; return 0; }" "x=42\n";
  check_output "doubles" "#include <iostream.h>\nint main() { cout << 2.5 << endl; return 0; }" "2.5\n";
  check_output "bools print as ints" "#include <iostream.h>\nint main() { cout << true << false << endl; return 0; }" "10\n"

let test_stack_program_output () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file in
  let r = Pdt_tau.Interp.run c.Pdt.program in
  Alcotest.(check int) "exit 0" 0 r.exit_code;
  Alcotest.(check string) "LIFO output" "9\n8\n7\n6\n5\n4\n3\n2\n1\n0\n" r.output

let test_stack_overflow_exception () =
  let vfs = Pdt_workloads.Stack.vfs () in
  Pdt_util.Vfs.add_file vfs "TestStackAr.cpp"
    "#include \"StackAr.h\"\nint main() {\n  Stack<int> s(2);\n  try {\n    for (int i = 0; i < 5; i++)\n      s.push(i);\n  } catch (Overflow & e) {\n    return 42;\n  }\n  return 0;\n}\n";
  let c = Pdt.compile_exn ~vfs "TestStackAr.cpp" in
  let r = Pdt_tau.Interp.run c.Pdt.program in
  Alcotest.(check int) "Overflow thrown at capacity" 42 r.exit_code

let test_krylov_converges () =
  let vfs = Pdt_workloads.Pooma_like.vfs ~n:8 () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Pooma_like.main_file in
  let r = Pdt_tau.Interp.run c.Pdt.program in
  Alcotest.(check int) "exit 0" 0 r.exit_code;
  (* for the 1-D Laplacian with b = 1: x_1 = n/2 *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "converged" true
    (contains r.output "converged=1" && contains r.output "x0=4")

let test_determinism () =
  let src = Pdt_workloads.Generator.single_file_program () in
  let r1 = run src and r2 = run src in
  Alcotest.(check int) "same exit" r1.exit_code r2.exit_code;
  Alcotest.(check int64) "same cycles" r1.cycles r2.cycles

let test_step_limit () =
  let c = Pdt.compile_string "int main() { while (true) { } return 0; }" in
  match Pdt_tau.Interp.run ~max_steps:10_000L c.Pdt.program with
  | exception Pdt_tau.Interp.Runtime_error msg ->
      Alcotest.(check bool) "step limit message" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected step limit"

let test_globals_initialized () =
  check_exit "global init order"
    "int a = 10;\nint b = a + 5;\nint main() { return b; }" 15

let test_operator_overloading_runtime () =
  check_exit "operator+ and operator=="
    "class C {\npublic:\n  C(int v) : v_(v) { }\n  C operator+(const C & o) const { return C(v_ + o.v_); }\n\
     \  bool operator==(const C & o) const { return v_ == o.v_; }\n  int val() const { return v_; }\nprivate:\n  int v_;\n};\n\
     int main() { C a(20); C b(22); C c = a + b; if (c == C(42)) return c.val(); return 0; }"
    42

let test_function_template_runtime () =
  check_exit "instantiated templates compute"
    "template <class T> T max2(T a, T b) { if (a < b) return b; return a; }\n\
     int main() { return max2(3, 9) + (int)max2(1.5, 2.5); }"
    11

let test_call_args_evaluated_once () =
  (* regression: a call used as an argument ran twice when its result was
     not a reference — the lvalue probe ran it, then the value path did *)
  check_exit "argument call runs once"
    "int c = 0;\nint g() { c = c + 1; return c; }\nint f(int x) { return x; }\n\
     int main() { f(g()); return c; }"
    1;
  check_exit "T& result still aliases"
    "int c = 1;\nint & g() { return c; }\nvoid bump(int & x) { x = x + 10; }\n\
     int main() { bump(g()); return c; }"
    11

(* Dispatch is answered from per-run tables.  Each answer is hand-derived
   from the C++ source, so a table keyed too coarsely (by routine name
   without the dynamic class, by candidate set without the argument kinds)
   hands back a stale routine and a wrong exit code. *)
let test_dispatch_tables () =
  check_exit "one pointer, dynamic class cycles"
    "class Base {\npublic:\n  virtual int id() { return 1; }\n  virtual ~Base() { }\n};\n\
     class D1 : public Base {\npublic:\n  virtual int id() { return 2; }\n};\n\
     class D2 : public Base {\npublic:\n  virtual int id() { return 3; }\n};\n\
     int main() {\n  Base b;\n  D1 d1;\n  D2 d2;\n  Base *p = &b;\n  int s = 0;\n\
     \  for (int i = 0; i < 6; i++) {\n\
     \    if (i % 3 == 0) p = &b; else if (i % 3 == 1) p = &d1; else p = &d2;\n\
     \    s = s * 4 + p->id();\n  }\n  return s % 251;\n}"
    249;
  check_exit "one overload set, argument kind alternates"
    "int f(int x) { return 1; }\nint f(double x) { return 2; }\n\
     int main() {\n  int s = 0;\n  for (int i = 0; i < 6; i++)\n\
     \    s = s * 3 + (i % 2 == 0 ? f(0.5) : f(i));\n  return s % 251;\n}"
    135;
  check_exit "enum constant read in a loop"
    "enum Color { RED, GREEN, BLUE };\n\
     int main() { int s = 0; for (int i = 0; i < 3; i++) s = s + BLUE; return s; }"
    6

(* regression: the builtin vector stored the reference an lvalue argument
   arrives as, so the element aliased the variable; g++ gives 0 and 3 *)
let test_push_back_copies_lvalue () =
  check_exit "loop variable pushed"
    "#include <vector.h>\nint main() { vector<int> v; for (int i = 0; i < 5; i++) v.push_back(i); return v[0]; }"
    0;
  check_exit "variable changed after the push"
    "#include <vector.h>\nint main() { vector<int> v; int a = 3; v.push_back(a); a = 9; return v[0]; }"
    3;
  check_exit "size from a variable"
    "#include <vector.h>\nint main() { vector<int> v; int n = 4; v.resize(n); v.reserve(n); return v.size(); }"
    4

(* values take their declared types through the mini-STL, which test/gxx
   programs cannot include; g++ with the real headers gives 4, 34, "b", 35
   and 35 *)
let test_declared_types_stl () =
  check_exit "string initialized from a literal"
    "#include <string.h>\nint main() { string s = \"abcd\"; return s.length(); }" 4;
  check_exit "string parameter and global from literals"
    "#include <string.h>\nstring g = \"abcd\";\nint len(string s) { return s.length(); }\nint main() { return len(\"abc\") * 10 + g.length(); }"
    34;
  check_output "char incremented"
    "#include <iostream.h>\nint main() { char c = 'a'; c++; cout << c; return 0; }" "b";
  check_exit "int stored through vector<double>::operator[]"
    "#include <vector.h>\nint main() { vector<double> v(3); v[0] = 7; return (int)(v[0] / 2 * 10); }"
    35;
  check_exit "int pushed onto a vector<double>"
    "#include <vector.h>\nint main() { vector<double> v; v.push_back(7); return (int)(v[0] / 2 * 10); }"
    35

(* test/gxx holds self-contained programs whose first line is "// g++: N",
   N being the exit status of the program built by g++ -std=c++98; CI's
   "Interpreter against g++" step holds each pin to g++ itself.  Every
   program must give N under the interpreter. *)
let test_gxx_corpus () =
  let dir = if Sys.file_exists "gxx" then "gxx" else Filename.concat "test" "gxx" in
  let files =
    List.sort compare
      (List.filter (fun f -> Filename.check_suffix f ".cpp") (Array.to_list (Sys.readdir dir)))
  in
  if files = [] then Alcotest.failf "no programs in %s" dir;
  let disagreement file =
    let src = Test_golden.read_file (Filename.concat dir file) in
    let want = Scanf.sscanf src "// g++: %d" Fun.id in
    let vfs = Pdt_util.Vfs.create () in
    Pdt_util.Vfs.add_file vfs file src;
    let c = Pdt.compile ~vfs file in
    let got =
      if Pdt_util.Diag.has_errors c.Pdt.diags then Some "compile errors"
      else
        match Pdt_tau.Interp.run c.Pdt.program with
        | r when r.exit_code = want -> None
        | r -> Some (Printf.sprintf "exit %d" r.exit_code)
        | exception Pdt_tau.Interp.(Uncaught (msg, _) | Runtime_error msg) -> Some msg
    in
    Option.map (fun got -> Printf.sprintf "%s: %s, g++ exits %d" file got want) got
  in
  Alcotest.(check (list string)) "programs the interpreter runs unlike g++" []
    (List.filter_map disagreement files)

let suite =
  [ Alcotest.test_case "casts convert" `Quick test_casts_convert;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "references" `Quick test_references;
    Alcotest.test_case "default arguments" `Quick test_default_args;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "vector builtin" `Quick test_vector_builtin;
    Alcotest.test_case "iostream output" `Quick test_iostream;
    Alcotest.test_case "Stack program output" `Quick test_stack_program_output;
    Alcotest.test_case "Stack overflow exception" `Quick test_stack_overflow_exception;
    Alcotest.test_case "Krylov solver converges" `Quick test_krylov_converges;
    Alcotest.test_case "deterministic execution" `Quick test_determinism;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "global initialization" `Quick test_globals_initialized;
    Alcotest.test_case "operator overloading at runtime" `Quick test_operator_overloading_runtime;
    Alcotest.test_case "function templates at runtime" `Quick test_function_template_runtime;
    Alcotest.test_case "call arguments evaluated once" `Quick test_call_args_evaluated_once;
    Alcotest.test_case "dispatch tables" `Quick test_dispatch_tables;
    Alcotest.test_case "push_back copies an lvalue" `Quick test_push_back_copies_lvalue;
    Alcotest.test_case "declared types through the mini-STL" `Quick test_declared_types_stl;
    Alcotest.test_case "exit codes agree with g++" `Quick test_gxx_corpus ]
