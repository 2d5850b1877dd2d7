(* tau_profile: one full tau_instr --run on pooma_like (CG on the n=24 1-D
   Laplacian, max_iters=200, the size examples/tau_krylov.ml uses):
   compile, analyze, index, plan and rewrite the instrumentation,
   recompile, interpret with the TAU runtime, format the profile.  The
   interpreter and runtime do almost all of the work; this workload is the
   one that measures lib/tau.  Its input does not depend on the seed. *)

module D = Pdt_ductape.Ductape
module Tau = Pdt_tau
module W = Pdt_workloads.Pooma_like

let n = 24
let max_iters = 200

(* Hand-derived: x_i = (i+1)(n-i)/2 solves the system, so x0 = n/2 = 12,
   and CG on this symmetric tridiagonal system converges in n/2 = 12
   iterations. *)
let expected_output = "converged=1\niterations=12\nx0=12\n"

(* Profile rows as (name, calls).  With 12 iterations: matvec runs once
   for the initial residual and once per iteration (13); dot once plus
   twice per iteration (25); axpy twice per iteration (24); scale_add once
   per iteration (12).  Each matvec reads A.at 24*24 times and the matrix
   set-up 70 more (13*576 + 70 = 7558); its loops test rows() 25 times and
   cols() 24*25 times (325, 7800).  Five Array1D objects: b, x, r, p, Ap. *)
let expected_rows =
  [ ("Array1D [Array1D<double>]", 5); ("KrylovSolver [KrylovSolver<double>]", 1);
    ("Matrix [Matrix<double>]", 1); ("at [Matrix<double>]", 7558);
    ("axpy [template]", 24); ("cols [Matrix<double>]", 7800);
    ("dot [template]", 25); ("fill [Array1D<double>]", 1);
    ("iterations [KrylovSolver<double>]", 1); ("main [int ()]", 1);
    ("matvec [template]", 13); ("operator[] [Array1D<double>]", 11713);
    ("rows [Matrix<double>]", 325); ("scale_add [template]", 12);
    ("size [Array1D<double>]", 1526); ("solve [KrylovSolver<double>]", 1) ]

type outcome = { run : Tau.Interp.result; profile_text : string }

let compile ~vfs =
  let c = Pdt.compile ~vfs W.main_file in
  if Pdt_util.Diag.has_errors c.Pdt.diags then
    failwith ("tau_profile: " ^ Pdt_util.Diag.to_string c.Pdt.diags);
  c

(* The op, as tau_instr --run does it. *)
let run_once vfs : outcome =
  let c = compile ~vfs in
  let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
  let d = D.index pdb in
  let plan = Tau.Instrument.plan d in
  let vfs2, _ = Tau.Instrument.instrument_vfs vfs plan in
  let c2 = compile ~vfs:vfs2 in
  let run = Tau.Interp.run c2.Pdt.program in
  { run; profile_text = Tau.Pprof.format run.profile }

let outcome_ok (o : outcome) =
  let rows =
    List.map (fun (name, calls, _, _, _, _) -> (name, calls)) (Tau.Pprof.rows o.run.profile)
  in
  o.run.exit_code = 0
  && o.run.output = expected_output
  && List.sort compare rows = expected_rows
  && List.for_all
       (fun (name, _) ->
         let k = String.length name and t = o.profile_text in
         let rec has i = i + k <= String.length t && (String.sub t i k = name || has (i + 1)) in
         has 0)
       expected_rows

let setup ~seed:_ ~work:_ : Harness.session =
  let vfs = W.vfs ~n ~max_iters () in
  let last = ref None in
  { prepare = ignore;
    op = (fun () -> last := Some (run_once vfs));
    check =
      (fun () ->
        let ok = match !last with Some o -> outcome_ok o | None -> false in
        last := None;
        ok);
    close = ignore;
    sizes =
      [ ("n", Pdt_util.Json.Num (float_of_int n));
        ("max_iters", Pdt_util.Json.Num (float_of_int max_iters));
        ("source_files", Pdt_util.Json.Num (float_of_int (List.length (W.files ~n ~max_iters ())))) ] }

(* The op with a span around each layer call. *)
let replay (r : Spans.t) vfs : outcome =
  snd
    (Spans.op r (fun () ->
         let prog = Replay.compile r ~vfs W.main_file in
         let pdb = Replay.analyze r prog in
         let d = Spans.span r "ductape.index" (fun () -> D.index pdb) in
         let plan, (vfs2, _) =
           Spans.span r "instrument" (fun () ->
               let plan = Tau.Instrument.plan d in
               (plan, Tau.Instrument.instrument_vfs vfs plan))
         in
         let prog2 = Replay.compile r ~vfs:vfs2 W.main_file in
         let run = Spans.span r "interp" (fun () -> Tau.Interp.run prog2) in
         let profile_text = Spans.span r "pprof" (fun () -> Tau.Pprof.format run.profile) in
         Spans.note_here r "instrument.points" (float_of_int (List.length plan));
         Spans.note_here r "interp.steps" (Int64.to_float run.steps);
         { run; profile_text }))

let traced ~seed:_ ~work:_ ~seconds (tally : Harness.tally) =
  let vfs = W.vfs ~n ~max_iters () in
  let original = (compile ~vfs).Pdt.program in
  let r = Spans.create "tau_profile" in
  let op_ms = ref [] and traced_ms = ref [] and bare_ms = ref [] and gcs = ref [] in
  Harness.count tally (outcome_ok (run_once vfs));
  Harness.loop_for ~seconds (fun () ->
      let gc, (ns, o) = Harness.gc_delta (fun () -> Harness.time_ns (fun () -> run_once vfs)) in
      Harness.count tally (outcome_ok o);
      op_ms := Harness.ms_of_ns ns :: !op_ms;
      gcs := gc :: !gcs;
      let ns, o = Harness.time_ns (fun () -> replay r vfs) in
      Harness.count tally (outcome_ok o);
      traced_ms := Harness.ms_of_ns ns :: !traced_ms;
      (* the same program without instrumentation, for the runtime's cost *)
      let ns, bare = Harness.time_ns (fun () -> Tau.Interp.run original) in
      Harness.count tally (bare.exit_code = 0 && bare.output = expected_output);
      bare_ms := Harness.ms_of_ns ns :: !bare_ms);
  let op_ms = Harness.median_list !op_ms in
  let p = "tau_profile." in
  let m = Harness.metric in
  ( r,
    [ m (p ^ "op.ms") "ms" op_ms ]
    @ Replay.layer_metrics ~prefix:p r
        [ ("preproc", "preproc.ms"); ("parser", "parser.ms"); ("sema", "sema.ms");
          ("analyzer", "analyzer.ms"); ("ductape.index", "ductape.index_ms");
          ("instrument", "instrument.ms"); ("interp", "interp.ms"); ("pprof", "pprof.ms") ]
    @ [ m (p ^ "instrument.points") "count" (Spans.noted r "instrument.points");
        m (p ^ "interp.steps") "count" (Spans.noted r "interp.steps");
        m (p ^ "runtime.overhead_ratio") "ratio"
          (Spans.layer_ms r "interp" /. Harness.median_list !bare_ms);
        m (p ^ "trace.overhead_pct") "%"
          (100.0 *. ((Harness.median_list !traced_ms /. op_ms) -. 1.0)) ]
    @ Harness.gc_metrics ~prefix:p !gcs )

let workload : Harness.workload =
  { name = "tau_profile"; tail_per_mille = 900; warmup_ops = 3; setup; traced }
