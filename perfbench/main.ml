(* pdtbench: one run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no span recorded;
   --trace 1 runs the traced procedure of every workload (NAME first) and
   reports the per-layer metrics, each prefixed by its workload.  The last
   line of stdout is the result object; the line before it records what a
   reader needs to interpret it.  Inputs and outputs live under
   .perfbench/work-<pid>/ in the current directory, removed when the run
   ends; a traced run leaves its span file in .perfbench/. *)

open Pdtbench
module J = Pdt_util.Json

let workloads : Harness.workload list =
  [ Cold_build.workload; Edit_rebuild.workload; Query_serve.workload;
    Tau_profile.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: cold_build edit_rebuild query_serve tau_profile";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some (("0" | "1") as t) when s > 0.0 -> (
      match List.find_opt (fun (x : Harness.workload) -> x.name = w) workloads with
      | Some wl -> (wl, seed, s, t = "1")
      | None -> usage ())
  | _ -> usage ()

let root = ".perfbench"

let num x = J.Num x
let int n = J.Num (float_of_int n)

(* Set up [k] times and keep the last session; set-up includes the warm-up
   ops, whose checks count like any op's. *)
let set_up (wl : Harness.workload) ~seed ~work ~k (tally : Harness.tally) =
  let times = ref [] and session = ref None in
  for _ = 1 to k do
    Option.iter (fun (s : Harness.session) -> s.close ()) !session;
    Sysinfo.rm_rf work;
    Sysinfo.mkdir_p work;
    Gc.compact ();
    let ns, s =
      Harness.time_ns (fun () ->
          let s = wl.setup ~seed ~work in
          for _ = 1 to wl.warmup_ops do
            s.prepare ();
            s.op ();
            Harness.count tally (s.check ())
          done;
          s)
    in
    times := (float_of_int ns /. 1e9) :: !times;
    session := Some s
  done;
  (Option.get !session, List.rev !times)

(* The timed loop: per op, wall ms and process CPU ms. *)
let measure (s : Harness.session) ~seconds (tally : Harness.tally) =
  let wall = Harness.buf () and cpu = Harness.buf () in
  Harness.loop_for ~seconds (fun () ->
      s.prepare ();
      let c0 = Sysinfo.cpu_s () in
      let t0 = Harness.now_ns () in
      s.op ();
      let t1 = Harness.now_ns () in
      let c1 = Sysinfo.cpu_s () in
      Harness.count tally (s.check ());
      Harness.push wall (Harness.ms_of_ns (t1 - t0));
      Harness.push cpu ((c1 -. c0) *. 1e3));
  (Harness.contents wall, Harness.contents cpu)

(* The last line of stdout; a line that fails the schema is never printed *)
let print_result ~correct ~(tally : Harness.tally) (metrics : Harness.metric list) =
  let line =
    Report.result_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics
  in
  match Report.validate line with
  | Ok _ -> print_endline line
  | Error e ->
      Printf.eprintf "pdtbench: invalid result (%s): %s\n" e line;
      exit 1

let host_meta ~steal =
  [ ("nproc", int (Domain.recommended_domain_count ()));
    ("default_domains", int (Pdt_build.Scheduler.default_domains ()));
    ("ocaml", J.Str Sys.ocaml_version);
    ("git_rev", J.Str (Sysinfo.git_rev ()));
    ("source_digest", J.Str (Sysinfo.source_digest ()));
    ("steal_share", num steal) ]

let untraced (wl : Harness.workload) ~seed ~seconds ~work =
  let tally = Harness.tally () in
  let ticks0 = Sysinfo.cpu_ticks () in
  let session, setups = set_up wl ~seed ~work ~k:5 tally in
  let wall_ms, cpu_ms = measure session ~seconds tally in
  session.close ();
  let steal = Sysinfo.steal_share ~before:ticks0 ~after:(Sysinfo.cpu_ticks ()) in
  let n = Array.length wall_ms in
  (* throughput and CPU per op are medians over the run's tenths, so a
     burst of host interference moves one tenth, not the result *)
  let tenth a k = Array.sub a (k * n / 10) (((k + 1) * n / 10) - (k * n / 10)) in
  let over_tenths f =
    Stats.median
      (Array.of_list
         (List.filter_map
            (fun k ->
              let w = tenth wall_ms k in
              if w = [||] then None else Some (f w (tenth cpu_ms k)))
            (List.init 10 Fun.id)))
  in
  let ops_per_s = over_tenths (fun w _ -> float_of_int (Array.length w) /. (Stats.sum w /. 1e3)) in
  let cpu_per_op_ms = over_tenths (fun _ c -> Stats.mean c) in
  let pm = wl.tail_per_mille in
  let beyond = Stats.beyond ~per_mille:pm n in
  if beyond < 10 then
    Printf.eprintf
      "pdtbench: %s: only %d samples beyond %s (%d ops); the tail is thin\n%!"
      wl.name beyond (Stats.per_mille_name pm) n;
  let m = Harness.metric in
  let metrics =
    [ m "setup_s" "s" (Stats.median (Array.of_list setups));
      m "op_p50_ms" "ms" (Stats.median wall_ms);
      m "op_tail_ms" "ms" (Stats.percentile ~per_mille:pm wall_ms);
      m "ops_per_s" "1/s" ops_per_s;
      m "cpu_per_op_ms" "ms" cpu_per_op_ms;
      m "peak_rss_mb" "MiB" (Sysinfo.peak_rss_mib ()) ]
  in
  (* trend check: the median op in each tenth of the run *)
  let tenths =
    List.init 10 (fun k ->
        let w = tenth wall_ms k in
        if w = [||] then J.Null else num (Stats.median w))
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("meta",
             J.Obj
               ([ ("workload", J.Str wl.name); ("trace", J.Bool false);
                  ("seed", int seed); ("seconds", num seconds);
                  ("inputs", J.Obj session.sizes);
                  ("tail", J.Str (Stats.per_mille_name pm));
                  ("ops", int n); ("samples_beyond_tail", int beyond);
                  ("setup_s", J.List (List.map num setups));
                  ("p50_by_tenth_ms", J.List tenths) ]
               @ host_meta ~steal)) ]));
  print_result ~correct:(tally.failed = 0) ~tally metrics

(* Every workload's traced procedure, [first] first, each for a quarter of
   the run: the result must carry every per-layer metric, and each is
   measured in the workload whose op does that layer's work. *)
let traced (first : Harness.workload) ~seed ~seconds ~work =
  let tally = Harness.tally () in
  let ticks0 = Sysinfo.cpu_ticks () in
  let order = first :: List.filter (fun (w : Harness.workload) -> w != first) workloads in
  let share = seconds /. float_of_int (List.length order) in
  let results =
    List.map
      (fun (wl : Harness.workload) ->
        let dir = Filename.concat work wl.name in
        Sysinfo.mkdir_p dir;
        Gc.compact ();
        let spans, metrics = wl.traced ~seed ~work:dir ~seconds:share tally in
        Sysinfo.rm_rf dir;
        (wl, spans, metrics))
      order
  in
  let steal = Sysinfo.steal_share ~before:ticks0 ~after:(Sysinfo.cpu_ticks ()) in
  (* spans are written once the run has ended *)
  let base =
    List.fold_left (fun m (_, r, _) -> min m (Spans.first_ns r)) max_int results
  in
  let events =
    List.concat
      (List.mapi (fun i (_, r, _) -> Spans.chrome_events r ~tid:(i + 1) ~base) results)
  in
  let trace_path = Filename.concat root (Printf.sprintf "spans-%s-seed%d.json" first.name seed) in
  let oc = open_out_bin trace_path in
  output_string oc (J.to_string (J.Obj [ ("traceEvents", J.List events) ]));
  close_out oc;
  print_endline
    (J.to_string
       (J.Obj
          [ ("meta",
             J.Obj
               ([ ("workload", J.Str first.name); ("trace", J.Bool true);
                  ("seed", int seed); ("seconds", num seconds);
                  ("seconds_per_workload", num share);
                  ("ops_per_workload",
                   J.Obj (List.map (fun ((w : Harness.workload), r, _) -> (w.name, int r.Spans.ops)) results));
                  ("spans", J.Str trace_path) ]
               @ host_meta ~steal)) ]));
  print_result ~correct:(tally.failed = 0) ~tally
    (List.concat_map (fun (_, _, ms) -> ms) results)

let () =
  let wl, seed, seconds, trace = parse_args () in
  (* per process, so two runs in one checkout never share files *)
  let work = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Sysinfo.rm_rf work;
  Sysinfo.mkdir_p work;
  Fun.protect
    ~finally:(fun () -> Sysinfo.rm_rf work)
    (fun () ->
      if trace then traced wl ~seed ~seconds ~work
      else untraced wl ~seed ~seconds ~work)
