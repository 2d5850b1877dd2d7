(* pdbd: the snapshot-isolated PDB query daemon.

   Loads a merged PDB — or builds one from project sources through the
   incremental build machinery — into an immutable DUCTAPE snapshot, then
   answers line-oriented JSON queries on a Unix socket until a client
   sends {"verb":"shutdown"} or the process gets SIGINT/SIGTERM.  The
   protocol is specified in DESIGN.md §7; try it by hand with

     pdbd project.pdb --socket /tmp/pdb.sock &
     printf '{"verb":"stats"}\n' | nc -U /tmp/pdb.sock

   `--domains` sets the number of event loops.  Each loop owns the
   connections it accepts and answers their requests inline, each
   against the snapshot current when it is answered; the first loop runs
   on the main domain, the others on one domain each.  A signal writes
   the daemon's stop pipe, which wakes every loop. *)

open Cmdliner

let is_pdb_path p =
  match Filename.extension p with ".pdb" | ".pdbb" -> true | _ -> false

let run inputs socket domains max_line max_conns includes jobs cache_dir
    no_cache trace stats =
  if inputs = [] then begin
    prerr_endline "pdbd: nothing to serve (give a PDB file or source files)";
    2
  end
  else begin
    if trace <> None then Pdt_util.Trace.start ();
    let serve holder =
      let config =
        { Pdt_serve.Daemon.socket_path = socket; domains; max_line; max_conns }
      in
      let t = Pdt_serve.Daemon.create ~config holder in
      let snap = Pdt_serve.Snapshot.current holder in
      Printf.eprintf "pdbd: serving %s (%s, gen %d) on %s, %d event loop%s\n%!"
        snap.Pdt_serve.Snapshot.label snap.Pdt_serve.Snapshot.format
        snap.Pdt_serve.Snapshot.gen socket domains
        (if domains = 1 then "" else "s");
      let on_signal _ = Pdt_serve.Daemon.request_stop t in
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Pdt_serve.Daemon.serve_foreground t;
      if stats then prerr_string (Pdt_util.Trace.report ());
      Option.iter Pdt_util.Trace.write_chrome trace;
      prerr_endline "pdbd: stopped";
      0
    in
    match inputs with
    | [ one ] when is_pdb_path one ->
        (* a file that does not load is reported as the PDB tools report it *)
        Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbd"
          (fun path -> Pdt_serve.Snapshot.load (Pdt_serve.Snapshot.Pdb_file path))
          one serve
    | sources -> (
        let vfs = Pdt_util.Vfs.create ~include_paths:includes () in
        Pdt_util.Vfs.set_disk_fallback vfs true;
        let build_options =
          { Pdt_build.Build.default_options with
            domains = jobs;
            cache_dir = (if no_cache then None else Some cache_dir) }
        in
        let options =
          { Pdt_build.Incremental.default_options with build = build_options }
        in
        let source = Pdt_serve.Snapshot.Project { vfs; sources; options } in
        match Pdt_serve.Snapshot.load source with
        | exception e ->
            Printf.eprintf "pdbd: cannot load initial snapshot: %s\n"
              (match e with
               | Pdt_pdb.Pdb_parse.Parse_error (line, m) ->
                   Printf.sprintf "line %d: %s" line m
               | Pdt_pdb.Pdb_bin.Format_error m -> m
               | Sys_error m -> m
               | e -> Printexc.to_string e);
            1
        | holder -> serve holder)
  end

let inputs =
  Arg.(value & pos_all string []
       & info [] ~docv:"INPUT"
           ~doc:"A merged PDB file (.pdb or .pdbb), or project source files \
                 to build and serve")

let socket =
  Arg.(value & opt string "pdbd.sock"
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on")

let domains =
  Arg.(value & opt int (Pdt_build.Scheduler.default_domains ())
       & info [ "domains" ] ~docv:"N"
           ~doc:"Event loops answering queries, one domain each; a \
                 connection stays on the loop that accepted it")

let max_line =
  Arg.(value & opt int (1 lsl 20)
       & info [ "max-line" ] ~docv:"BYTES"
           ~doc:"Largest accepted request line; longer requests get a \
                 structured too-large error and the connection is closed")

let max_conns =
  Arg.(value & opt int Pdt_serve.Daemon.default_config.Pdt_serve.Daemon.max_conns
       & info [ "max-conns" ] ~docv:"N"
           ~doc:"Most simultaneous client connections accepted; extra \
                 connections get a structured too-many-connections error \
                 and are closed immediately, keeping the select loop under \
                 the FD_SETSIZE ceiling")

let includes =
  Arg.(value & opt_all string []
       & info [ "I"; "include" ] ~docv:"DIR"
           ~doc:"Include search path (project-source mode)")

let jobs =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Build worker domains (project-source mode)")

let cache_dir =
  Arg.(value & opt string Pdt_build.Cache.default_dir
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Unit-PDB cache directory (project-source mode)")

let no_cache =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the unit-PDB cache")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace of accept/parse/query/respond spans \
                 on exit")

let stats =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print perf counters (per-verb latency) on exit")

let cmd =
  let doc = "serve DUCTAPE queries from an immutable PDB snapshot over a Unix socket" in
  Cmd.v (Cmd.info "pdbd" ~doc)
    Term.(const run $ inputs $ socket $ domains $ max_line $ max_conns
          $ includes $ jobs $ cache_dir $ no_cache $ trace $ stats)

let () = exit (Cmd.eval' cmd)
