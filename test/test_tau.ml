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
    Alcotest.test_case "golden: tau profiles" `Quick test_tau_profiles_golden ]
