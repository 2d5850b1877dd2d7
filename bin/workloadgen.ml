(* workloadgen: dump a generated multi-TU workload project to disk, so the
   project driver (pdbbuild) can be exercised against a reproducible
   on-disk tree — CI builds one with --trace and validates the resulting
   Chrome trace with tracecheck.

   The shape knobs (--templates, --methods, --types, ...) scale the
   per-TU weight and --tus the breadth, so one command can synthesize
   anything from an 8-unit smoke project to a thousands-of-TU tree whose
   merged PDB runs to hundreds of MB.

   Since PR 8 it is also the pdbd load generator (bench B11): with
   --bench-pdb (serve a PDB in-process) or --bench-socket (attack an
   already-running daemon), it runs the scripted-client mix at each
   --clients level — every client performs the handshake and --queries
   round trips while reloads swap the snapshot under them — and writes
   the p50/p90/p99 latency and queries/sec curve to --out
   (pdbd-load.json).  Any failed query fails the run: the snapshot swap
   must be invisible to clients. *)

open Cmdliner

module J = Pdt_util.Json

(* ---------------- project generation (the original mode) ------------ *)

let generate dir n_tus seed depth templates methods types fn_templates plain =
  let cfg =
    { Pdt_workloads.Generator.seed;
      chain_depth = depth;
      n_class_templates = templates;
      methods_per_class = methods;
      n_instantiation_types = types;
      n_function_templates = fn_templates;
      n_plain_classes = plain }
  in
  let sources = Pdt_workloads.Generator.write_project ~cfg ~n_tus ~dir () in
  List.iter print_endline sources;
  let bytes =
    List.fold_left
      (fun acc (_, contents) -> acc + String.length contents)
      0
      (Pdt_workloads.Generator.project_files ~cfg ~n_tus ())
  in
  Printf.eprintf
    "workloadgen: %d TUs + main, %d class templates x %d methods, %d bytes of source\n"
    n_tus templates methods bytes;
  0

(* ---------------- pdbd load generation (bench B11) ------------------ *)

(* the scripted per-client query mix: cheap lookups, an indexed find, a
   graph slice, and the stats rollup — the shapes ROADMAP item 1 names *)
let script k =
  let id = ("id", J.Num (float_of_int k)) in
  match k mod 6 with
  | 0 -> J.Obj [ id; ("verb", J.Str "info") ]
  | 1 -> J.Obj [ id; ("verb", J.Str "find"); ("kind", J.Str "routine");
                 ("name", J.Str "main") ]
  | 2 -> J.Obj [ id; ("verb", J.Str "list"); ("kind", J.Str "routine");
                 ("limit", J.Num 5.) ]
  | 3 -> J.Obj [ id; ("verb", J.Str "callgraph"); ("depth", J.Num 2.) ]
  | 4 -> J.Obj [ id; ("verb", J.Str "stats") ]
  | _ -> J.Obj [ id; ("verb", J.Str "ping") ]

let is_ok (reply : J.t option) : bool =
  match reply with
  | Some r -> J.member "ok" r = Some (J.Bool true)
  | None -> false

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* One load level: [clients] concurrent connections x [queries] round
   trips, with [reloads] snapshot swaps spread through the run.  Returns
   (level json, failed count). *)
let run_level ~socket ~clients ~queries ~reloads : J.t * int =
  let total = clients * queries in
  let done_count = Atomic.make 0 in
  let failed = Atomic.make 0 in
  let reload_failed = Atomic.make 0 in
  let latencies = Array.make_matrix clients queries 0.0 in
  let client_body c () =
    match Pdt_serve.Client.connect socket with
    | exception _ -> Atomic.fetch_and_add failed queries |> ignore
    | conn ->
        let hello = J.Obj [ ("verb", J.Str "hello"); ("protocol", J.Num 1.) ] in
        if not (is_ok (Pdt_serve.Client.request_json conn hello)) then
          Atomic.incr failed;
        for q = 0 to queries - 1 do
          let t0 = Pdt_util.Trace.now_ns () in
          let ok = is_ok (Pdt_serve.Client.request_json conn (script ((c * 7) + q))) in
          let t1 = Pdt_util.Trace.now_ns () in
          latencies.(c).(q) <- float_of_int (t1 - t0) /. 1e3;
          if not ok then Atomic.incr failed;
          Atomic.incr done_count
        done;
        Pdt_serve.Client.close conn
  in
  (* the reload driver paces swaps by progress, not wall time, so every
     level really does overlap queries with >= [reloads] swaps *)
  let reloader () =
    match Pdt_serve.Client.connect socket with
    | exception _ -> Atomic.fetch_and_add reload_failed reloads |> ignore
    | conn ->
        for k = 1 to reloads do
          let threshold = k * total / (reloads + 1) in
          while Atomic.get done_count < threshold do Thread.yield () done;
          let req = J.Obj [ ("verb", J.Str "reload") ] in
          if not (is_ok (Pdt_serve.Client.request_json conn req)) then
            Atomic.incr reload_failed
        done;
        Pdt_serve.Client.close conn
  in
  let t0 = Pdt_util.Trace.now_ns () in
  let reload_thread = if reloads > 0 then Some (Thread.create reloader ()) else None in
  let threads = List.init clients (fun c -> Thread.create (client_body c) ()) in
  List.iter Thread.join threads;
  Option.iter Thread.join reload_thread;
  let elapsed_s = float_of_int (Pdt_util.Trace.now_ns () - t0) /. 1e9 in
  let all = Array.concat (Array.to_list latencies) in
  Array.sort compare all;
  let failures = Atomic.get failed + Atomic.get reload_failed in
  ( J.Obj
      [ ("clients", J.Num (float_of_int clients));
        ("queries", J.Num (float_of_int total));
        ("reloads", J.Num (float_of_int reloads));
        ("failed", J.Num (float_of_int failures));
        ("elapsed_s", J.Num elapsed_s);
        ("qps", J.Num (float_of_int total /. Float.max 1e-9 elapsed_s));
        ("p50_us", J.Num (percentile all 0.50));
        ("p90_us", J.Num (percentile all 0.90));
        ("p99_us", J.Num (percentile all 0.99)) ],
    failures )

let parse_clients (s : string) : int list =
  List.filter_map int_of_string_opt (String.split_on_char ',' s)

let bench bench_pdb bench_socket clients_spec queries reloads bench_domains out
    bench_shutdown =
  let levels = parse_clients clients_spec in
  if levels = [] then begin
    prerr_endline "workloadgen: --clients needs a comma-separated int list";
    2
  end
  else begin
    (* either fork a daemon process over the given PDB, or attack an
       external socket.  Forked, not in-process: at the 512-client level
       one process would hold >1024 fds (both socket ends), past what
       the daemon's select can watch — and a separate process is what a
       real deployment looks like anyway *)
    let daemon_pid, socket =
      match (bench_pdb, bench_socket) with
      | Some pdb, sock_opt ->
          let socket =
            match sock_opt with
            | Some s -> s
            | None -> Filename.temp_file "pdbd-bench" ".sock"
          in
          (try Sys.remove socket with Sys_error _ -> ());
          (match Unix.fork () with
           | 0 ->
               let holder =
                 Pdt_serve.Snapshot.load (Pdt_serve.Snapshot.Pdb_file pdb)
               in
               let config =
                 { Pdt_serve.Daemon.default_config with
                   socket_path = socket; domains = bench_domains }
               in
               let d = Pdt_serve.Daemon.create ~config holder in
               Pdt_serve.Daemon.serve_foreground d;
               Stdlib.exit 0
           | pid ->
               (* wait for the child to bind and listen *)
               let deadline = Unix.gettimeofday () +. 30.0 in
               let rec poll () =
                 match Pdt_serve.Client.connect socket with
                 | conn -> Pdt_serve.Client.close conn
                 | exception _ ->
                     if Unix.gettimeofday () > deadline then
                       failwith "workloadgen: daemon did not come up in 30s"
                     else begin
                       ignore (Unix.select [] [] [] 0.05);
                       poll ()
                     end
               in
               poll ();
               (Some pid, socket))
      | None, Some socket -> (None, socket)
      | None, None -> assert false
    in
    let results =
      List.map
        (fun clients ->
          Printf.eprintf "workloadgen: level %d clients x %d queries...\n%!"
            clients queries;
          let level, failures = run_level ~socket ~clients ~queries ~reloads in
          if failures > 0 then
            Printf.eprintf "workloadgen: %d FAILED queries at %d clients\n%!"
              failures clients;
          (level, failures))
        levels
    in
    let send_shutdown () =
      match Pdt_serve.Client.connect socket with
      | exception _ -> ()
      | conn ->
          ignore
            (Pdt_serve.Client.request_json conn
               (J.Obj [ ("verb", J.Str "shutdown") ]));
          Pdt_serve.Client.close conn
    in
    (match daemon_pid with
     | Some pid ->
         send_shutdown ();
         ignore (Unix.waitpid [] pid)
     | None -> if bench_shutdown then send_shutdown ());
    let doc =
      J.Obj
        [ ("bench", J.Str "B11");
          ("pdb", J.Str (Option.value ~default:("socket:" ^ socket) bench_pdb));
          ("queries_per_client", J.Num (float_of_int queries));
          ("reloads_per_level", J.Num (float_of_int reloads));
          ("server_domains", J.Num (float_of_int bench_domains));
          ("host_cores", J.Num (float_of_int (Domain.recommended_domain_count ())));
          ("levels", J.List (List.map fst results)) ]
    in
    let oc = open_out_bin out in
    output_string oc (J.to_string doc);
    output_string oc "\n";
    close_out oc;
    let failed = List.fold_left (fun acc (_, f) -> acc + f) 0 results in
    Printf.eprintf "workloadgen: wrote %s (%d levels, %d failed queries)\n%!"
      out (List.length results) failed;
    if failed > 0 then 1 else 0
  end

(* ---------------- CLI ------------------------------------------------ *)

let run dir n_tus seed depth templates methods types fn_templates plain
    bench_pdb bench_socket clients queries reloads bench_domains out
    bench_shutdown =
  if bench_pdb <> None || bench_socket <> None then
    bench bench_pdb bench_socket clients queries reloads bench_domains out
      bench_shutdown
  else generate dir n_tus seed depth templates methods types fn_templates plain

let dir =
  Arg.(value & opt string "workload" & info [ "dir" ] ~docv:"DIR" ~doc:"Output directory")

let n_tus =
  Arg.(value & opt int 6 & info [ "tus" ] ~docv:"N" ~doc:"Number of generated translation units (plus main.cpp); thousands are fine — generation is linear")

let seed =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.seed
       & info [ "seed" ] ~docv:"N" ~doc:"Generator seed")

let depth =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.chain_depth
       & info [ "depth" ] ~docv:"N" ~doc:"Template instantiation chain depth")

let templates =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.n_class_templates
       & info [ "templates" ] ~docv:"N" ~doc:"Number of distinct class templates in the shared header")

let methods =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.methods_per_class
       & info [ "methods" ] ~docv:"N" ~doc:"Member functions per class template")

let types =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.n_instantiation_types
       & info [ "types" ] ~docv:"N" ~doc:"Distinct instantiation type arguments per TU (max 5)")

let fn_templates =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.n_function_templates
       & info [ "fn-templates" ] ~docv:"N" ~doc:"Number of function templates")

let plain =
  Arg.(value & opt int Pdt_workloads.Generator.default_config.n_plain_classes
       & info [ "plain" ] ~docv:"N" ~doc:"Number of plain (non-template) classes")

let bench_pdb =
  Arg.(value & opt (some file) None
       & info [ "bench-pdb" ] ~docv:"PDB"
           ~doc:"Load-test pdbd: serve this merged PDB from an in-process \
                 daemon and run the scripted-client benchmark (B11)")

let bench_socket =
  Arg.(value & opt (some string) None
       & info [ "bench-socket" ] ~docv:"PATH"
           ~doc:"Load-test an already-running pdbd on this Unix socket \
                 (with --bench-pdb: bind the in-process daemon here)")

let clients =
  Arg.(value & opt string "1,8,64,512"
       & info [ "clients" ] ~docv:"LIST"
           ~doc:"Concurrent-client levels for the daemon benchmark")

let queries =
  Arg.(value & opt int 50
       & info [ "queries" ] ~docv:"M" ~doc:"Queries per client per level")

let reloads =
  Arg.(value & opt int 3
       & info [ "bench-reloads" ] ~docv:"K"
           ~doc:"Snapshot reloads interleaved with each level's queries")

let bench_domains =
  Arg.(value & opt int (Pdt_build.Scheduler.default_domains ())
       & info [ "bench-domains" ] ~docv:"N"
           ~doc:"Event loops of the forked daemon (pdbd --domains)")

let out =
  Arg.(value & opt string "pdbd-load.json"
       & info [ "out" ] ~docv:"FILE" ~doc:"Benchmark result file (B11)")

let bench_shutdown =
  Arg.(value & flag
       & info [ "bench-shutdown" ]
           ~doc:"Send the shutdown verb to the external daemon when done")

let cmd =
  let doc = "write a generated workload project to a directory, or load-test a pdbd daemon" in
  Cmd.v (Cmd.info "workloadgen" ~doc)
    Term.(const run $ dir $ n_tus $ seed $ depth $ templates $ methods $ types
          $ fn_templates $ plain $ bench_pdb $ bench_socket $ clients $ queries
          $ reloads $ bench_domains $ out $ bench_shutdown)

let () = exit (Cmd.eval' cmd)
