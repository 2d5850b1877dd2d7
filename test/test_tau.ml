(* TAU instrumentor + profiler tests (paper §4.1, Figures 6 and 7). *)

module D = Pdt_ductape.Ductape
module I = Pdt_tau.Instrument

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let compile_d vfs main =
  let c = Pdt.compile_exn ~vfs main in
  (c, D.index (Pdt_analyzer.Analyzer.run c.Pdt.program))

(* Figure 6: the kind filter and the CT( *this ) decision *)
let test_plan_figure6_filter () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let _, d = compile_d vfs Pdt_workloads.Stack.main_file in
  let plan = I.plan d in
  let by_name n = List.filter (fun ir -> ir.I.ir_name = n) plan in
  (* member function templates get CT( *this ) *)
  (match by_name "push" with
   | [ ir ] -> Alcotest.(check bool) "push uses CT(*this)" true ir.I.ir_use_ct_this
   | l -> Alcotest.failf "expected one push plan, got %d" (List.length l));
  (* plain functions do not *)
  (match by_name "main" with
   | [ ir ] -> Alcotest.(check bool) "main has no CT(*this)" false ir.I.ir_use_ct_this
   | l -> Alcotest.failf "expected one main plan, got %d" (List.length l));
  (* class templates themselves are not instrumented (only their members) *)
  Alcotest.(check bool) "plan sorted by location" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> I.loc_cmp a b <= 0 && sorted rest
       | _ -> true
     in
     sorted plan)

let test_plan_static_members_no_ct () =
  let src =
    "template <class T>\nclass S {\npublic:\n  static T make() { return T(); }\n};\n\
     template <class T> T freebie(T x) { return x; }\n\
     int main() { S<int>::make(); freebie(1); return 0; }"
  in
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.add_file vfs "main.cpp" src;
  let _, d = compile_d vfs "main.cpp" in
  let plan = I.plan d in
  List.iter
    (fun ir ->
      if ir.I.ir_name = "make" || ir.I.ir_name = "freebie" then
        Alcotest.(check bool)
          (ir.I.ir_name ^ " (static/free) has no CT(*this)")
          false ir.I.ir_use_ct_this)
    plan

let test_rewrite_inserts_after_brace () =
  let source = "int f(int x) {\n    return x;\n}\n" in
  let plan =
    [ { I.ir_name = "f"; ir_file = "t.cpp"; ir_line = 1; ir_col = 14;
        ir_signature = "int (int)"; ir_use_ct_this = false; ir_group = "TAU_USER" } ]
  in
  let out = I.rewrite ~file:"t.cpp" ~source plan in
  Alcotest.(check bool) "macro inserted" true
    (contains out "{ TAU_PROFILE(\"f\", \"int (int)\", TAU_USER);")

let test_rewrite_multiple_points_stable () =
  let source = "int a() { return 1; }\nint b() { return 2; }\n" in
  let mk name line col =
    { I.ir_name = name; ir_file = "t.cpp"; ir_line = line; ir_col = col;
      ir_signature = "int ()"; ir_use_ct_this = false; ir_group = "TAU_USER" }
  in
  let out = I.rewrite ~file:"t.cpp" ~source [ mk "a" 1 9; mk "b" 2 9 ] in
  Alcotest.(check bool) "a instrumented" true (contains out "TAU_PROFILE(\"a\"");
  Alcotest.(check bool) "b instrumented" true (contains out "TAU_PROFILE(\"b\"");
  (* both lines still end with their original bodies *)
  Alcotest.(check bool) "bodies preserved" true
    (contains out "return 1; }" && contains out "return 2; }")

let test_instrumented_program_same_behaviour () =
  (* instrumentation must not change program semantics *)
  let vfs = Pdt_workloads.Stack.vfs () in
  let c, d = compile_d vfs Pdt_workloads.Stack.main_file in
  let r_plain = Pdt_tau.Interp.run c.Pdt.program in
  let plan = I.plan d in
  let vfs2, _ = I.instrument_vfs vfs plan in
  let c2 = Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Stack.main_file in
  let r_instr = Pdt_tau.Interp.run c2.Pdt.program in
  Alcotest.(check int) "same exit code" r_plain.exit_code r_instr.exit_code;
  Alcotest.(check string) "same output" r_plain.output r_instr.output

let test_profile_contents () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let _, d = compile_d vfs Pdt_workloads.Stack.main_file in
  let plan = I.plan d in
  let vfs2, _ = I.instrument_vfs vfs plan in
  let c2 = Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Stack.main_file in
  let r = Pdt_tau.Interp.run c2.Pdt.program in
  let rows = Pdt_tau.Pprof.rows r.profile in
  let find name =
    List.find_opt (fun (n, _, _, _, _, _) -> contains n name) rows
  in
  (* CT( *this ) resolved the instantiation type at run time *)
  (match find "push [Stack<int>]" with
   | Some (_, calls, _, _, _, _) -> Alcotest.(check int) "push called 10x" 10 calls
   | None -> Alcotest.fail "push [Stack<int>] not in profile");
  (match find "topAndPop [Stack<int>]" with
   | Some (_, calls, _, _, _, _) -> Alcotest.(check int) "topAndPop 10x" 10 calls
   | None -> Alcotest.fail "topAndPop missing");
  (* isEmpty is called by topAndPop (10) and by the while condition (11) *)
  match find "isEmpty [Stack<int>]" with
  | Some (_, calls, _, _, _, _) -> Alcotest.(check int) "isEmpty 21x" 21 calls
  | None -> Alcotest.fail "isEmpty missing"

let test_inclusive_exclusive_invariants () =
  let vfs = Pdt_workloads.Pooma_like.vfs ~n:8 () in
  let _, d = compile_d vfs Pdt_workloads.Pooma_like.main_file in
  let plan = I.plan d in
  let vfs2, _ = I.instrument_vfs vfs plan in
  let c2 = Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Pooma_like.main_file in
  let r = Pdt_tau.Interp.run c2.Pdt.program in
  List.iter
    (fun (name, calls, _, excl, incl, pct) ->
      Alcotest.(check bool) (name ^ ": exclusive <= inclusive") true (excl <= incl);
      Alcotest.(check bool) (name ^ ": calls > 0") true (calls > 0);
      Alcotest.(check bool) (name ^ ": 0 <= %time <= 100") true
        (pct >= 0.0 && pct <= 100.001))
    (Pdt_tau.Pprof.rows r.profile);
  (* main's inclusive time is the maximum *)
  let rows = Pdt_tau.Pprof.rows r.profile in
  let main_incl =
    List.fold_left
      (fun acc (n, _, _, _, incl, _) -> if contains n "main" then incl else acc)
      0L rows
  in
  List.iter
    (fun (_, _, _, _, incl, _) ->
      Alcotest.(check bool) "main dominates" true (incl <= main_incl))
    rows

let test_profile_determinism () =
  let once () =
    let vfs = Pdt_workloads.Stack.vfs () in
    let _, d = compile_d vfs Pdt_workloads.Stack.main_file in
    let plan = I.plan d in
    let vfs2, _ = I.instrument_vfs vfs plan in
    let c2 = Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Stack.main_file in
    let r = Pdt_tau.Interp.run c2.Pdt.program in
    Pdt_tau.Pprof.format r.profile
  in
  Alcotest.(check string) "profiles identical across runs" (once ()) (once ())

let test_tracing () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let _, d = compile_d vfs Pdt_workloads.Stack.main_file in
  let plan = I.plan d in
  let vfs2, _ = I.instrument_vfs vfs plan in
  let c2 = Pdt.compile_exn ~vfs:vfs2 Pdt_workloads.Stack.main_file in
  let r = Pdt_tau.Interp.run ~tracing:true c2.Pdt.program in
  let events = Pdt_tau.Runtime.events r.profile in
  Alcotest.(check bool) "events recorded" true (List.length events > 40);
  (* events balance: every enter has an exit *)
  let enters =
    List.length (List.filter (function Pdt_tau.Runtime.Enter _ -> true | _ -> false) events)
  in
  let exits =
    List.length (List.filter (function Pdt_tau.Runtime.Exit _ -> true | _ -> false) events)
  in
  Alcotest.(check int) "balanced" enters exits;
  (* timestamps are monotone *)
  let stamps =
    List.map (function Pdt_tau.Runtime.Enter (_, ts) | Pdt_tau.Runtime.Exit (_, ts) -> ts) events
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone timestamps" true (monotone stamps)

let test_uninstrumented_profile_empty () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file in
  let r = Pdt_tau.Interp.run c.Pdt.program in
  Alcotest.(check int) "no profile entries" 0
    (List.length (Pdt_tau.Pprof.rows r.profile))

(* The interpreter's cost model, pinned: for the Figure 7 solver and the
   Figure 1 Stack, test/golden/tau_profiles.txt holds every run's exit
   code, cycles and steps (uninstrumented, flat, callpath, tracing), the
   program output, both pprof texts and the trace's event count.  An
   interpreter change that moves a single tick fails here with a diff;
   the uninstrumented cycles make the B4 virtual-cycle overhead an
   asserted figure.  Regenerate with
   PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test tau *)
let tau_profiles_text () =
  let b = Buffer.create 16384 in
  let section title vfs main =
    let c, d = compile_d vfs main in
    let vfs2, _ = I.instrument_vfs vfs (I.plan d) in
    let prog = (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program in
    let line label (r : Pdt_tau.Interp.result) extra =
      Printf.bprintf b "%-15s exit %d, cycles %Ld, steps %Ld%s\n" label r.exit_code
        r.cycles r.steps extra
    in
    let plain = Pdt_tau.Interp.run c.Pdt.program in
    let flat = Pdt_tau.Interp.run prog in
    let callpath = Pdt_tau.Interp.run ~callpath:true prog in
    let traced = Pdt_tau.Interp.run ~tracing:true prog in
    Printf.bprintf b "== %s ==\n" title;
    line "uninstrumented" plain "";
    line "instrumented" flat "";
    line "callpath" callpath "";
    line "tracing" traced
      (Printf.sprintf ", events %d" (List.length (Pdt_tau.Runtime.events traced.profile)));
    Printf.bprintf b "virtual-cycle overhead: %.2fx\n"
      (Int64.to_float flat.cycles /. Int64.to_float plain.cycles);
    Printf.bprintf b "-- output --\n%s" flat.output;
    Printf.bprintf b "-- flat profile --\n%s" (Pdt_tau.Pprof.format flat.profile);
    Printf.bprintf b "-- callpath profile --\n%s\n"
      (Pdt_tau.Pprof.format callpath.profile)
  in
  section "pooma_like: n=24, max_iters=200"
    (Pdt_workloads.Pooma_like.vfs ~n:24 ~max_iters:200 ())
    Pdt_workloads.Pooma_like.main_file;
  section "Stack" (Pdt_workloads.Stack.vfs ()) Pdt_workloads.Stack.main_file;
  Buffer.contents b

let test_tau_profiles_golden () =
  Test_golden.check_text_golden ~suite:"tau" ~what:"interpreter cost model"
    ~name:"tau_profiles.txt" (tau_profiles_text ())

(* Hand-written programs for the constructs the workloads and the
   generated programs do not reach: exceptions across timed frames,
   switch and the loop forms, compound assignment, arrays and pointers,
   strings, operator overloads, qualified names, the address of a loop
   local, field and local shadowing, and the two ends of a run that
   [Interp.run] reports by exception. *)
let fingerprint_snippets =
  [ ( "exceptions",
      "#include <iostream.h>\n\
       class Err { public: Err(int c) : code(c) { } int code; };\n\
       class Sub : public Err { public: Sub() : Err(7) { } };\n\
       int depth(int n) { if (n == 0) throw Sub(); return depth(n - 1) + 1; }\n\
       int guarded(int n) {\n\
      \  try { return depth(n); } catch (Err & e) { return e.code * 10 + n; }\n\
      \  return -1;\n}\n\
       int main() {\n\
      \  int s = 0;\n\
      \  for (int i = 0; i < 4; i++) s += guarded(i);\n\
      \  try { throw 3; } catch (int k) { s += k; }\n\
      \  try { throw 2.5; } catch (double d) { s += (int)(d * 2.0); }\n\
      \  try { throw \"text\"; } catch (const char * m) { s += 100; }\n\
      \  try { try { throw Err(4); } catch (int k) { s += 1000; } }\n\
      \  catch (...) { s += 40; }\n\
      \  cout << s << endl;\n\
      \  return s % 256;\n}\n" );
    ( "control",
      "int classify(int x) {\n\
      \  switch (x % 5) {\n\
      \    case 0: return 10;\n\
      \    case 1: x += 3;\n\
      \    case 2: x *= 2; break;\n\
      \    case 3: { int y = x; x = y - 1; } break;\n\
      \    default: x = -x;\n\
      \  }\n\
      \  return x;\n}\n\
       int main() {\n\
      \  int s = 0, n = 0;\n\
      \  for (int i = 0; i < 12; i++) { if (i == 10) break; if (i % 4 == 3) continue; s += classify(i); }\n\
      \  do { n++; s -= n; } while (n < 5);\n\
      \  while (true) { n--; if (n < 2) break; }\n\
      \  int a = 100; a -= 7; a /= 3; a %= 7; a <<= 2; a >>= 1; a |= 16; a &= 29; a ^= 5;\n\
      \  int t = (s > 0) ? s : -s;\n\
      \  t = (t, t + a);\n\
      \  bool f = !(t < 3) && (a != 0 || s == 1);\n\
      \  return (t + a + n + (f ? 1 : 0) + ~a + -(-a) + +a) % 256;\n}\n" );
    ( "arrays",
      "class Cell { public: Cell() : v(1) { } int v; };\n\
       int sum(int * p, int n) { int s = 0; for (int i = 0; i < n; i++) s += p[i]; return s; }\n\
       int main() {\n\
      \  int a[6];\n\
      \  for (int i = 0; i < 6; i++) a[i] = i * i;\n\
      \  int m[3][4];\n\
      \  for (int i = 0; i < 3; i++) for (int j = 0; j < 4; j++) m[i][j] = i + j;\n\
      \  int * h = new int[5];\n\
      \  for (int i = 0; i < 5; i++) h[i] = 2 * i;\n\
      \  Cell * cs = new Cell[3];\n\
      \  cs[1].v = 9;\n\
      \  int x = 4; int * px = &x; int y = *px + 3;\n\
      \  Cell c; Cell * pc = &c; pc->v = 5;\n\
      \  int r = a[5] + m[2][3] + sum(h, 5) + cs[0].v + cs[1].v + y + c.v + pc->v + sizeof(int);\n\
      \  delete [] h;\n\
      \  return r % 256;\n}\n" );
    ( "strings",
      "#include <iostream.h>\n#include <string.h>\n\
       int main() {\n\
      \  string a(\"ab\");\n\
      \  string b(\"cd\");\n\
      \  string c = a + b;\n\
      \  const char * p = \"xyz\";\n\
      \  char ch = p[1];\n\
      \  cout << c.c_str() << ' ' << c.length() << ' ' << ch << ' ' << 1.25 << ' ' << (3 < 4) << endl;\n\
      \  int r = c.size() + (c == a + b ? 10 : 0) + (a < b ? 20 : 0) + c[2];\n\
      \  if (c.empty()) r = 0;\n\
      \  return r % 256;\n}\n" );
    ( "operators",
      "class V {\npublic:\n\
      \  V(int x) : x_(x) { }\n\
      \  V operator+(const V & o) const { return V(x_ + o.x_); }\n\
      \  V & operator+=(const V & o) { x_ = x_ + o.x_; return *this; }\n\
      \  int operator[](int i) const { return x_ * i; }\n\
      \  bool operator<(const V & o) const { return x_ < o.x_; }\n\
      \  int get() const { return x_; }\n\
       private:\n  int x_;\n};\n\
       V operator*(int k, const V & v) { return V(k * v.get()); }\n\
       template <class T> T biggest(T a, T b) { if (a < b) return b; return a; }\n\
       int main() {\n\
      \  V a(3); V b(4);\n\
      \  V c = a + b;\n\
      \  c += V(10);\n\
      \  V e = 2 * a;\n\
      \  V f = biggest(a, b);\n\
      \  return (c.get() + e.get() + f.get() + c[2]) % 256;\n}\n" );
    ( "names",
      "enum Mode { OFF, ON, AUTO };\n\
       int counter = 5;\n\
       int twice = counter * 2;\n\
       class Util {\npublic:\n\
      \  static int scale(int x) { return x * 3; }\n\
      \  static int scale(double x) { return 1; }\n};\n\
       class Box {\npublic:\n\
      \  Box(int v) : v(v), w(v + 1) { }\n\
      \  int shadow(int w) { int v = 100; return v + w + this->v; }\n\
      \  int fields() { return v + w; }\n\
      \  int v;\n  int w;\n};\n\
       int bump(int & r, int k = 2) { r = r + k; return r; }\n\
       int & pick(int & a, int & b, bool first) { if (first) return a; return b; }\n\
       int main() {\n\
      \  Mode m = AUTO;\n\
      \  int s = m + ON + Util::scale(4) + Util::scale(0.5) + twice;\n\
      \  Box bx(7);\n\
      \  s += bx.shadow(1) + bx.fields();\n\
      \  int x = 1; int y = 2;\n\
      \  bump(x); bump(x, 5);\n\
      \  pick(x, y, false) = 40;\n\
      \  int & ry = y; ry += 1;\n\
      \  counter += 1;\n\
      \  return (s + x + y + counter) % 256;\n}\n" );
    ( "loop_cells",
      "int main() {\n\
      \  int * keep[4];\n\
      \  for (int i = 0; i < 4; i++) { int x = i * 10; keep[i] = &x; }\n\
      \  int s = 0;\n\
      \  for (int i = 0; i < 4; i++) s = s * 3 + *keep[i];\n\
      \  int j = 0;\n\
      \  while (j < 3) { int y = j; y++; j = y; }\n\
      \  return s % 256;\n}\n" );
    ( "virtuals",
      "#include <vector.h>\n\
       class Shape {\npublic:\n\
      \  Shape(int s) : side(s) { }\n\
      \  virtual ~Shape() { }\n\
      \  virtual int area() const { return 0; }\n\
      \  int twice() const { return 2 * area(); }\n\
      \  int side;\n};\n\
       class Sq : public Shape {\npublic:\n\
      \  Sq(int s) : Shape(s) { }\n\
      \  int area() const { return side * side; }\n};\n\
       class Tri : public Shape {\npublic:\n\
      \  Tri(int s) : Shape(s) { }\n\
      \  int area() const { return side * side / 2; }\n};\n\
       int main() {\n\
      \  vector<Shape *> v;\n\
      \  for (int i = 1; i < 7; i++) {\n\
      \    if (i % 2 == 0) v.push_back(new Sq(i)); else v.push_back(new Tri(i));\n\
      \  }\n\
      \  int s = 0;\n\
      \  for (int i = 0; i < v.size(); i++) s += v[i]->twice();\n\
      \  v.pop_back();\n\
      \  return (s + v.size()) % 256;\n}\n" );
    ("uncaught", "int main() { int x = 2; x = x * 3; throw x; return 0; }\n");
    ( "deep_recursion",
      "int f(int n) { return f(n + 1); }\nint main() { return f(0); }\n" ) ]

(* Differential fingerprints of the interpreter: every C++ workload with a
   main, the snippets above and 300 generated programs, each run
   uninstrumented and instrumented in five TAU modes.  A run's line holds
   its exit code, cycles and steps and the MD5s of its output and its pprof
   text, so any change in what the interpreter computes or charges shows up
   here.  Regenerate with
   PDT_GOLDEN_REGEN=1 dune exec test/main.exe -- test tau *)
let interp_fingerprints_text () =
  let b = Buffer.create 262144 in
  let md5 s = Digest.to_hex (Digest.string s) in
  let fingerprint name vfs main =
    let c, d = compile_d vfs main in
    let vfs2, _ = I.instrument_vfs vfs (I.plan d) in
    let prog = (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program in
    let line mode run =
      let show (r : Pdt_tau.Interp.result) =
        Printf.sprintf "exit %d, cycles %Ld, steps %Ld, output %s, profile %s, events %d"
          r.exit_code r.cycles r.steps (md5 r.output)
          (md5 (Pdt_tau.Pprof.format r.profile))
          (List.length (Pdt_tau.Runtime.events r.profile))
      in
      let text =
        match run () with
        | r -> show r
        | exception Pdt_tau.Interp.Uncaught (msg, r) -> show r ^ ", " ^ msg
        | exception Pdt_tau.Interp.Runtime_error msg -> "runtime error: " ^ msg
      in
      Printf.bprintf b "%s %s: %s\n" name mode text
    in
    let module R = Pdt_tau.Interp in
    line "plain" (fun () -> R.run c.Pdt.program);
    line "flat" (fun () -> R.run prog);
    line "callpath" (fun () -> R.run ~callpath:true prog);
    line "tracing" (fun () -> R.run ~tracing:true prog);
    line "throttle" (fun () -> R.run ~throttle:(100, 20L) prog);
    line "mpi" (fun () -> R.run ~mpi:(2, 8) prog)
  in
  let module W = Pdt_workloads in
  (* the instrumented sources include tau.h from the mini-STL *)
  let with_stl vfs = W.Ministl.mount vfs; vfs in
  fingerprint "stack" (W.Stack.vfs ()) W.Stack.main_file;
  fingerprint "pooma_like" (W.Pooma_like.vfs ()) W.Pooma_like.main_file;
  fingerprint "parallel_stencil" (W.Parallel_stencil.vfs ()) W.Parallel_stencil.main_file;
  fingerprint "duchain_demo" (with_stl (W.Duchain_demo.vfs ())) W.Duchain_demo.main_file;
  fingerprint "parallel_spawn" (with_stl (W.Parallel_spawn.vfs ())) W.Parallel_spawn.main_file;
  List.iter
    (fun (name, src) ->
      let vfs = with_stl (Pdt_util.Vfs.create ()) in
      Pdt_util.Vfs.add_file vfs "snippet.cpp" src;
      fingerprint name vfs "snippet.cpp")
    fingerprint_snippets;
  for seed = 1 to 300 do
    let cfg =
      { W.Generator.default_config with
        seed; n_class_templates = 2 + (seed mod 4); methods_per_class = 1 + (seed mod 3);
        chain_depth = seed mod 4; n_instantiation_types = 1 + (seed mod 5) }
    in
    let vfs = with_stl (Pdt_util.Vfs.create ()) in
    Pdt_util.Vfs.add_file vfs "gen.cpp" (W.Generator.single_file_program ~cfg ());
    fingerprint (Printf.sprintf "gen%03d" seed) vfs "gen.cpp"
  done;
  Buffer.contents b

let test_interp_fingerprints_golden () =
  Test_golden.check_text_golden ~suite:"tau" ~what:"interpreter fingerprints"
    ~name:"interp_fingerprints.txt" (interp_fingerprints_text ())

(* As TAU's macro keeps a static timer per site, a timed call resolves no
   name and allocates nothing: what an instrumented pooma_like run
   allocates beyond an uninstrumented run of the same program (the
   profile table, and one row and label per timer) is the same at n=8
   and at n=16, which makes about five times as many timed calls. *)
let test_timers_allocate_nothing () =
  let excess n =
    let vfs = Pdt_workloads.Pooma_like.vfs ~n () in
    let main = Pdt_workloads.Pooma_like.main_file in
    let _, d = compile_d vfs main in
    let vfs2, _ = I.instrument_vfs vfs (I.plan d) in
    let prog = (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program in
    let words run =
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (run ()));
      Gc.minor_words () -. before
    in
    words (fun () -> Pdt_tau.Interp.run prog)
    -. words (fun () -> Pdt_tau.Interp.run ~instrumented:false prog)
  in
  let e8 = excess 8 and e16 = excess 16 in
  if Float.abs (e16 -. e8) > 64.0 then
    Alcotest.failf "timing allocates per call: %.0f words beyond the bare run at n=8, %.0f at n=16"
      e8 e16

(* A CT( *this ) site in a base method changes its label with the
   receiver's class, and the timer it starts follows the label; in
   callpath mode the timer is named by its parent too. *)
let test_timer_follows_label () =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_workloads.Ministl.mount vfs;
  Pdt_util.Vfs.add_file vfs "snippet.cpp" (List.assoc "virtuals" fingerprint_snippets);
  let _, d = compile_d vfs "snippet.cpp" in
  let vfs2, _ = I.instrument_vfs vfs (I.plan d) in
  let prog = (Pdt.compile_exn ~vfs:vfs2 "snippet.cpp").Pdt.program in
  let check mode (r : Pdt_tau.Interp.result) prefix =
    let rows = Pdt_tau.Pprof.rows r.profile in
    List.iter
      (fun (cls, incl) ->
        let name = prefix ^ "Shape::twice [" ^ cls ^ "]" in
        match List.find_opt (fun (n, _, _, _, _, _) -> n = name) rows with
        | Some (_, calls, _, _, i, _) ->
            Alcotest.(check (pair int int64)) (mode ^ ": " ^ name) (3, incl) (calls, i)
        | None -> Alcotest.failf "%s: no row %s" mode name)
      [ ("Tri", 66L); ("Sq", 60L) ]
  in
  check "flat" (Pdt_tau.Interp.run prog) "";
  check "callpath" (Pdt_tau.Interp.run ~callpath:true prog) "main [int ()] => "

(* tau_instr --run as a process: a run the interpreter stops (a C++
   exception out of main, the step limit, the call-depth limit) prints the
   program's output, one "tau_instr: FILE: reason" line on stderr and exits
   1, where it used to die with an uncaught OCaml exception (exit 125). *)
let test_tau_instr_runtime_errors () =
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "tau_instr.exe")
  in
  let dir = Test_pdtc.fresh_dir () in
  Fun.protect ~finally:(fun () -> Test_pdtc.rm_rf dir) @@ fun () ->
  let run name src =
    let path = Filename.concat dir name in
    Test_pdtc.write_file path src;
    let out = Filename.concat dir "stdout.txt" and err = Filename.concat dir "stderr.txt" in
    let open_log p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let o = open_log out and e = open_log err in
    let pid = Unix.create_process exe [| exe; path; "--run" |] Unix.stdin o e in
    Unix.close o;
    Unix.close e;
    let code =
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED c -> c
      | _ -> Alcotest.fail "tau_instr did not exit normally"
    in
    (path, code, Test_pdtc.read_file out, Test_pdtc.read_file err)
  in
  let check name src ~output ~reason =
    let path, code, out, err = run name src in
    Alcotest.(check int) (name ^ ": exit code") 1 code;
    Alcotest.(check string) (name ^ ": stderr") (Printf.sprintf "tau_instr: %s: %s\n" path reason) err;
    Alcotest.(check bool) (name ^ ": program output printed") true (contains out output)
  in
  check "throw.cpp"
    "#include <iostream.h>\nint main() { cout << \"before\" << endl; throw 1; return 0; }\n"
    ~output:"instrumented 1 source files\nbefore\n" ~reason:"uncaught C++ exception: int";
  check "loop.cpp" "int main() { int x = 0; while (true) { x++; } return 0; }\n"
    ~output:"instrumented 1 source files\n" ~reason:"step limit exceeded (infinite loop?)";
  check "deep.cpp" "int f(int n) { return f(n + 1); }\nint main() { return f(0); }\n"
    ~output:"instrumented 1 source files\n" ~reason:"call stack overflow"

let suite =
  [ Alcotest.test_case "Figure 6 plan filter" `Quick test_plan_figure6_filter;
    Alcotest.test_case "static/free: no CT(*this)" `Quick test_plan_static_members_no_ct;
    Alcotest.test_case "rewrite inserts macro" `Quick test_rewrite_inserts_after_brace;
    Alcotest.test_case "rewrite multiple points" `Quick test_rewrite_multiple_points_stable;
    Alcotest.test_case "instrumentation preserves behaviour" `Quick
      test_instrumented_program_same_behaviour;
    Alcotest.test_case "profile contents (Fig 7)" `Quick test_profile_contents;
    Alcotest.test_case "inclusive/exclusive invariants" `Quick
      test_inclusive_exclusive_invariants;
    Alcotest.test_case "profile determinism" `Quick test_profile_determinism;
    Alcotest.test_case "event tracing" `Quick test_tracing;
    Alcotest.test_case "uninstrumented: empty profile" `Quick
      test_uninstrumented_profile_empty;
    Alcotest.test_case "golden: tau profiles" `Quick test_tau_profiles_golden;
    Alcotest.test_case "golden: interp fingerprints" `Quick
      test_interp_fingerprints_golden;
    Alcotest.test_case "timers allocate nothing per call" `Quick test_timers_allocate_nothing;
    Alcotest.test_case "a timer follows its label" `Quick test_timer_follows_label;
    Alcotest.test_case "tau_instr --run: runtime errors exit 1" `Quick
      test_tau_instr_runtime_errors ]
