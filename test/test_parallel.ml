(* Tests for the TAU parallel-profiling simulation, callpath profiling and
   runtime throttling. *)

module Rt = Pdt_tau.Runtime

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let instrumented_stencil () =
  let vfs = Pdt_workloads.Parallel_stencil.vfs () in
  let main = Pdt_workloads.Parallel_stencil.main_file in
  let c = Pdt.compile_exn ~vfs main in
  let d = Pdt_ductape.Ductape.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let plan = Pdt_tau.Instrument.plan d in
  let vfs2, _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
  (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program

let test_mpi_builtins () =
  let vfs = Pdt_workloads.Parallel_stencil.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Parallel_stencil.main_file in
  let r = Pdt_tau.Interp.run ~mpi:(2, 8) c.Pdt.program in
  Alcotest.(check bool) "rank visible to the program" true
    (contains r.output "rank 2/8")

let test_ranks_run_spmd () =
  let prog = instrumented_stencil () in
  let rs = Pdt_tau.Parallel.run_ranks ~nranks:4 prog in
  Alcotest.(check int) "4 ranks" 4 (List.length rs);
  List.iteri
    (fun i (rr : Pdt_tau.Parallel.rank_result) ->
      Alcotest.(check int) "rank id" i rr.rank;
      Alcotest.(check int) "exit 0" 0 rr.result.exit_code;
      Alcotest.(check bool) "per-rank output" true
        (contains rr.result.output (Printf.sprintf "rank %d/4" i)))
    rs

let test_imbalance_detected () =
  let prog = instrumented_stencil () in
  let rs = Pdt_tau.Parallel.run_ranks ~nranks:4 prog in
  let aggs = Pdt_tau.Parallel.aggregate rs in
  let sweep =
    List.find (fun a -> contains a.Pdt_tau.Parallel.a_name "jacobi_sweep") aggs
  in
  (* the workload gives later ranks more work: max >> min *)
  Alcotest.(check bool) "imbalance visible" true
    (sweep.Pdt_tau.Parallel.a_incl_max
     > Int64.mul 2L sweep.Pdt_tau.Parallel.a_incl_min);
  Alcotest.(check int) "timer present on every rank" 4 sweep.Pdt_tau.Parallel.a_ranks;
  let summary = Pdt_tau.Parallel.format_summary rs in
  Alcotest.(check bool) "summary formats" true (contains summary "imbal%")

let test_rank_determinism () =
  let prog = instrumented_stencil () in
  let r1 = Pdt_tau.Parallel.run_ranks ~nranks:3 prog in
  let r2 = Pdt_tau.Parallel.run_ranks ~nranks:3 prog in
  Alcotest.(check string) "summaries identical"
    (Pdt_tau.Parallel.format_summary r1)
    (Pdt_tau.Parallel.format_summary r2)

(* ---------------- callpath ---------------- *)

let instrumented_stack () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let main = Pdt_workloads.Stack.main_file in
  let c = Pdt.compile_exn ~vfs main in
  let d = Pdt_ductape.Ductape.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let plan = Pdt_tau.Instrument.plan d in
  let vfs2, _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
  (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program

let test_callpath_names () =
  let prog = instrumented_stack () in
  let r = Pdt_tau.Interp.run ~callpath:true prog in
  let names = List.map (fun (e : Rt.entry) -> e.e_name) (Rt.entries r.profile) in
  (* push is timed under its caller main *)
  Alcotest.(check bool) "parent => child timers" true
    (List.exists (fun n -> contains n "main [int ()] => push [Stack<int>]") names);
  (* and isEmpty appears under two different parents *)
  let isempty_paths = List.filter (fun n -> contains n "=> isEmpty") names in
  Alcotest.(check bool) "isEmpty split by call path" true
    (List.length isempty_paths >= 2)

let test_callpath_off_by_default () =
  let prog = instrumented_stack () in
  let r = Pdt_tau.Interp.run prog in
  let names = List.map (fun (e : Rt.entry) -> e.e_name) (Rt.entries r.profile) in
  Alcotest.(check bool) "flat names" false
    (List.exists (fun n -> contains n "=>") names)

(* ---------------- throttling ---------------- *)

let test_throttling () =
  let vfs = Pdt_workloads.Pooma_like.vfs ~n:16 () in
  let main = Pdt_workloads.Pooma_like.main_file in
  let c = Pdt.compile_exn ~vfs main in
  let d = Pdt_ductape.Ductape.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let plan = Pdt_tau.Instrument.plan d in
  let vfs2, _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
  let prog = (Pdt.compile_exn ~vfs:vfs2 main).Pdt.program in
  let full = Pdt_tau.Interp.run prog in
  (* throttle: timers beyond 100 calls with < 20 cycles/call stop timing *)
  let throttled = Pdt_tau.Interp.run ~throttle:(100, 20L) prog in
  let incl name (r : Pdt_tau.Interp.result) =
    List.fold_left
      (fun acc (e : Rt.entry) -> if contains e.e_name name then e.e_inclusive else acc)
      0
      (Rt.entries r.profile)
  in
  let calls name (r : Pdt_tau.Interp.result) =
    List.fold_left
      (fun acc (e : Rt.entry) -> if contains e.e_name name then e.e_calls else acc)
      0
      (Rt.entries r.profile)
  in
  (* the hot cheap accessor stops accumulating time but keeps counting *)
  Alcotest.(check bool) "accessor time reduced" true
    (incl "at [" throttled < incl "at [" full);
  Alcotest.(check int) "calls still counted" (calls "at [" full)
    (calls "at [" throttled);
  (* behaviour is unchanged *)
  Alcotest.(check int) "same exit" full.exit_code throttled.exit_code;
  Alcotest.(check string) "same output" full.output throttled.output

let suite =
  [ Alcotest.test_case "mpi builtins" `Quick test_mpi_builtins;
    Alcotest.test_case "SPMD rank execution" `Quick test_ranks_run_spmd;
    Alcotest.test_case "imbalance detected" `Quick test_imbalance_detected;
    Alcotest.test_case "rank determinism" `Quick test_rank_determinism;
    Alcotest.test_case "callpath profiling" `Quick test_callpath_names;
    Alcotest.test_case "callpath off by default" `Quick test_callpath_off_by_default;
    Alcotest.test_case "runtime throttling" `Quick test_throttling ]
