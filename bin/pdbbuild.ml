(* pdbbuild: the parallel incremental project driver — many source files in
   (C++ / Fortran 90 / Java, mixed), one merged PDB out.

   Each translation unit compiles to its own PDB on a pool of OCaml 5
   domains; unchanged units are served from the content-hash cache under
   .pdt-cache/; the per-unit PDBs merge deterministically (the merge is
   input-order independent, so the output is byte-identical to a
   sequential pdtc + pdbmerge build).  A unit that fails to compile is
   reported and skipped — the remaining units still merge. *)

open Cmdliner

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc

(* The trace's flat-profile export rides on TAU's own pprof layout
   (lib/tau/pprof.ml) — the toolkit profiles itself in the report format
   it generates for instrumented programs.  %Time is relative to the
   longest recorded span (the outermost build phase). *)
let write_pprof path =
  let rows = Pdt_util.Trace.profile_rows () in
  let total =
    List.fold_left
      (fun a (r : Pdt_util.Trace.profile_row) -> max a r.inclusive_ns)
      0L rows
  in
  write_file path
    (Pdt_tau.Pprof.format_rows ~title:"pdbbuild self-profile" ~total
       (List.map
          (fun (r : Pdt_util.Trace.profile_row) ->
            { Pdt_tau.Pprof.r_name = r.pname; r_calls = r.calls;
              r_child_calls = r.child_calls; r_exclusive = r.exclusive_ns;
              r_inclusive = r.inclusive_ns })
          rows))

let run sources includes output jobs farm cache_dir no_cache incremental
    retries fail_fast verbose stats trace trace_pprof max_errors limit_specs
    pdb_format =
  let limits =
    match Pdt_util.Limits.of_flags ?max_errors limit_specs with
    | Ok b -> b
    | Error msg ->
        Printf.eprintf "pdbbuild: %s\n" msg;
        exit 124
  in
  let vfs = Pdt_util.Vfs.create ~include_paths:includes () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let tracing = trace <> None || trace_pprof <> None in
  if tracing then Pdt_util.Trace.start ();
  let options =
    { Pdt_build.Build.default_options with
      domains = jobs;
      cache_dir = (if no_cache then None else Some cache_dir);
      retries;
      fail_fast;
      limits }
  in
  (* --farm N: supervised worker processes instead of in-process domains.
     Incompatible with --incremental (the delta driver is
     orchestration-heavy, not compile-heavy) and unavailable without the
     pdbworker binary — both degrade to the Domain pool with a warning,
     never a refusal. *)
  let farm_config =
    match farm with
    | Some n when n > 0 ->
        if incremental then begin
          Printf.eprintf
            "pdbbuild: --farm is not supported with --incremental; using \
             in-process domains\n%!";
          None
        end
        else if Pdt_build.Farm.find_worker () = None then begin
          Printf.eprintf
            "pdbbuild: pdbworker binary not found; falling back to \
             in-process domains\n%!";
          None
        end
        else Some { Pdt_build.Farm.default_config with workers = n }
    | _ -> None
  in
  (* all drivers converge on the same epilogue: merged PDB + per-unit
     failure report + summary line(s) + counts for the exit code *)
  let merged, summary_lines, n_failed, n_degraded, n_skipped, n_ok =
    if incremental then begin
      let module I = Pdt_build.Incremental in
      let iopts = { I.default_options with build = options } in
      let r = I.build ~options:iopts ~vfs sources in
      List.iter
        (fun (u : I.unit_info) ->
          match u.disposition with
          | I.Failed m ->
              Printf.eprintf "pdbbuild: %s failed:\n%s\n" u.source m
          | I.Degraded m ->
              Printf.eprintf "pdbbuild: %s degraded:\n%s\n" u.source m
          | _ -> ())
        r.I.units;
      if verbose then
        List.iter
          (fun (u : I.unit_info) ->
            Printf.printf "  %-30s %-10s %.3fs  %s\n" u.source
              (match u.disposition with
               | I.Reused -> "reused"
               | I.Loaded -> "loaded"
               | I.Recompiled -> "compiled"
               | I.Degraded _ -> "DEGRADED"
               | I.Failed _ -> "FAILED"
               | I.Skipped -> "skipped")
              u.seconds u.reason)
          r.I.units;
      let count p = List.length (List.filter p r.I.units) in
      let failed =
        count (fun u -> match u.I.disposition with I.Failed _ -> true | _ -> false)
      and degraded =
        count (fun u -> match u.I.disposition with I.Degraded _ -> true | _ -> false)
      in
      ( r.I.merged,
        [ I.stats_line r;
          Printf.sprintf "%d reanalyzed, %d reused, %d failed%s%s | %.3fs wall"
            r.I.reanalyzed r.I.reused failed
            (if degraded > 0 then Printf.sprintf ", %d degraded" degraded else "")
            (if r.I.skipped > 0 then Printf.sprintf ", %d skipped" r.I.skipped
             else "")
            r.I.wall_seconds ],
        failed, degraded, r.I.skipped,
        List.length r.I.units - failed - r.I.skipped )
    end
    else begin
      let r =
        match farm_config with
        | Some config -> (
            try Pdt_build.Farm.build ~config ~options ~vfs sources
            with Pdt_build.Farm.Farm_unavailable msg ->
              Printf.eprintf
                "pdbbuild: %s; falling back to in-process domains\n%!" msg;
              Pdt_build.Build.build ~options ~vfs sources)
        | None -> Pdt_build.Build.build ~options ~vfs sources
      in
      List.iter
        (fun (source, msg) -> Printf.eprintf "pdbbuild: %s failed:\n%s\n" source msg)
        (Pdt_build.Build.failures r);
      List.iter
        (fun (source, msg) -> Printf.eprintf "pdbbuild: %s degraded:\n%s\n" source msg)
        (Pdt_build.Build.degraded_units r);
      if verbose then
        List.iter
          (fun (u : Pdt_build.Build.unit_result) ->
            Printf.printf "  %-30s %-8s %.3fs\n" u.source
              (match u.status with
               | Compiled -> "compiled" | Cached -> "cached"
               | Degraded _ -> "DEGRADED"
               | Failed _ -> "FAILED" | Skipped -> "skipped")
              u.seconds)
          r.units;
      ( r.merged, [ Pdt_build.Build.summary r ], r.failed, r.degraded,
        r.skipped, r.compiled + r.cached + r.degraded )
    end
  in
  (* serialize the merged PDB once in the requested container; the
     reported digest is always over the canonical ASCII serialization, so
     it is identical for both containers (and to the digests the
     incremental cache keys on) *)
  let serialized = Pdt_pdb.Pdb_io.to_string pdb_format merged in
  let digest =
    match pdb_format with
    | Pdt_pdb.Pdb_io.Ascii -> Pdt_pdb.Pdb_digest.of_string serialized
    | Pdt_pdb.Pdb_io.Binary -> Pdt_pdb.Pdb_digest.of_pdb merged
  in
  if tracing then begin
    Pdt_util.Trace.stop ();
    Option.iter Pdt_util.Trace.write_chrome trace;
    Option.iter write_pprof trace_pprof
  end;
  (* replace, never rewrite in place: pdbd re-reads this path on reload,
     and a reader must see the old PDB or the new one, not a torn file *)
  Pdt_build.Cache.write_atomic output (fun oc -> output_string oc serialized);
  List.iter print_endline summary_lines;
  Printf.printf "wrote %s (%d items, %s container, digest %s)\n" output
    (Pdt_pdb.Pdb.item_count merged)
    (Pdt_pdb.Pdb_io.format_name pdb_format)
    digest;
  if stats then begin
    let report = Pdt_util.Trace.report () in
    if report <> "" then print_string report;
    let s = Pdt_util.Intern.stats () in
    Printf.printf "intern: %d entries, %d hits, %d misses (%.1f%% hit rate)\n"
      s.Pdt_util.Intern.entries s.Pdt_util.Intern.hits s.Pdt_util.Intern.misses
      (100.0 *. Pdt_util.Intern.hit_rate ())
  end;
  (* structured exit codes — failures don't sink the build (under
     --keep-going), but they must not go unnoticed either:
       0 = clean
       1 = total failure: no unit produced a PDB
       2 = partial: some units failed or compiled degraded; the merged
           PDB of everything that produced output was written
       3 = aborted: --fail-fast stopped the build, units were skipped *)
  if n_skipped > 0 then 3
  else if n_failed = 0 && n_degraded = 0 then 0
  else if n_ok > 0 then 2
  else 1

let sources =
  Arg.(non_empty & pos_all file []
       & info [] ~docv:"SOURCE" ~doc:"Source files (C++, .f90/.f95/.f, .java)")

let includes =
  Arg.(value & opt_all dir [] & info [ "I"; "include" ] ~docv:"DIR" ~doc:"Include search directory")

let output =
  Arg.(value & opt string "merged.pdb" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output merged PDB file")

let jobs =
  Arg.(value & opt int (Pdt_build.Scheduler.default_domains ())
       & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains (1 = sequential)")

let farm =
  Arg.(value & opt (some int) None
       & info [ "farm" ] ~docv:"N"
           ~doc:"Build on N supervised $(b,pdbworker) processes instead of \
                 in-process domains.  Workers are crash-only: one killed, \
                 wedged or crashing mid-unit is reaped and respawned (with \
                 backoff) and its unit retried, so a misbehaving translation \
                 unit cannot take the build down.  Falls back to domains \
                 when the worker binary is unavailable or with \
                 $(b,--incremental).")

let cache_dir =
  Arg.(value & opt string Pdt_build.Cache.default_dir
       & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Incremental PDB cache directory")

let no_cache =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the incremental cache")

let incremental =
  Arg.(value & flag
       & info [ "incremental" ]
           ~doc:"Incremental re-analysis: reuse every unit whose dependency \
                 fingerprint (source + transitive include cone, recorded \
                 during the previous compile) is unchanged, re-analyze only \
                 the rest, and splice the delta through memoized partial \
                 merges.  Prints $(b,reanalyzed=N reused=M); byte-identical \
                 to a from-scratch build.  Requires the cache; any delta-path \
                 failure falls back to a full remerge.")

let retries =
  Arg.(value & opt int Pdt_build.Build.default_options.retries
       & info [ "retries" ] ~docv:"N"
           ~doc:"Extra attempts per unit on transient failures (I/O errors, \
                 flaky workers).  Deterministic compile errors never retry.")

let fail_fast =
  let fail = Arg.info [ "fail-fast" ]
      ~doc:"Stop scheduling new units after the first failure (exit code 3); \
            units already running finish."
  and keep = Arg.info [ "keep-going" ]
      ~doc:"Compile every unit despite failures and merge the survivors \
            (default; exit code 2 on partial failure)."
  in
  Arg.(value & vflag false [ (true, fail); (false, keep) ])

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-unit status and timing")

let stats =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print per-phase wall-time counters (parse, compile, merge, \
                 cache I/O) and string-interning statistics after the build")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the whole build (per-include, \
                 per-parse, per-instantiation, cache and scheduler spans; one \
                 track per worker domain) and write it as Chrome trace_event \
                 JSON, loadable in chrome://tracing or https://ui.perfetto.dev")

let trace_pprof =
  Arg.(value & opt (some string) None
       & info [ "trace-pprof" ] ~docv:"FILE"
           ~doc:"Write the recorded trace as a TAU pprof-style flat profile \
                 (exclusive/inclusive time per span name)")

let max_errors =
  Arg.(value & opt (some int) None
       & info [ "max-errors" ] ~docv:"N"
           ~doc:"Stop error recovery after N syntax errors per translation \
                 unit (shorthand for $(b,--limit errors=N))")

let pdb_format =
  Arg.(value
       & opt
           (enum
              [ ("ascii", Pdt_pdb.Pdb_io.Ascii);
                ("binary", Pdt_pdb.Pdb_io.Binary) ])
           Pdt_pdb.Pdb_io.Ascii
       & info [ "pdb-format" ] ~docv:"FORMAT"
           ~doc:"Container format for the output PDB: $(b,ascii) (the \
                 paper's interchange format, default) or $(b,binary) \
                 (PDB-B, mmap-loadable).  The cache always holds canonical \
                 ASCII, so switching formats reuses every entry.")

let limit_specs =
  Arg.(value & opt_all string []
       & info [ "limit" ] ~docv:"NAME=N"
           ~doc:"Override a front-end resource budget; repeatable.  Known \
                 limits: include-depth, macro-depth, tokens, parse-depth, \
                 instantiation-depth, errors.")

let cmd =
  let doc = "compile a project to one merged program database, in parallel and incrementally" in
  Cmd.v (Cmd.info "pdbbuild" ~doc)
    Term.(const run $ sources $ includes $ output $ jobs $ farm $ cache_dir
          $ no_cache $ incremental $ retries $ fail_fast $ verbose $ stats
          $ trace $ trace_pprof $ max_errors $ limit_specs $ pdb_format)

let () = exit (Cmd.eval' cmd)
