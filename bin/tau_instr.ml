(* tau_instr: the TAU instrumentor driver (paper §4.1).

   Compiles a source file, plans instrumentation from its PDB (Figure 6),
   rewrites the sources with TAU_PROFILE macros, and — with --run —
   recompiles and executes the instrumented program on the interpreter,
   printing the pprof-style profile (Figure 7). *)

open Cmdliner

let run source includes outdir do_run trace select mhp_only =
  let vfs = Pdt_util.Vfs.create ~include_paths:includes () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  Pdt_workloads.Ministl.mount vfs;
  let c = Pdt.compile ~vfs source in
  let diag_text = Pdt_util.Diag.to_string c.Pdt.diags in
  if diag_text <> "" then prerr_endline diag_text;
  if Pdt_util.Diag.has_errors c.Pdt.diags then 1
  else begin
    let pdb = Pdt_analyzer.Analyzer.run c.Pdt.program in
    let d = Pdt_ductape.Ductape.index pdb in
    let plan = Pdt_tau.Instrument.plan d in
    let plan =
      if mhp_only then begin
        let filtered = Pdt_tau.Instrument.mhp_only d plan in
        Printf.printf "mhp-only: %d of %d instrumentation points concurrent\n"
          (List.length filtered) (List.length plan);
        filtered
      end
      else plan
    in
    let plan =
      match select with
      | None -> plan
      | Some path ->
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Pdt_tau.Instrument.apply_selection
            (Pdt_tau.Instrument.parse_selection text) plan
    in
    Printf.printf "planned %d instrumentation points\n" (List.length plan);
    let vfs2, n = Pdt_tau.Instrument.instrument_vfs vfs plan in
    Printf.printf "instrumented %d source files\n" n;
    (match outdir with
     | Some dir ->
         if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
         let files = List.sort_uniq compare (List.map (fun ir -> ir.Pdt_tau.Instrument.ir_file) plan) in
         List.iter
           (fun f ->
             match Pdt_util.Vfs.read_raw vfs2 f with
             | Some src ->
                 let out = Filename.concat dir (Filename.basename f) in
                 let oc = open_out out in
                 output_string oc src;
                 close_out oc;
                 Printf.printf "wrote %s\n" out
             | None -> ())
           files
     | None -> ());
    if do_run then begin
      let c2 = Pdt.compile ~vfs:vfs2 source in
      if Pdt_util.Diag.has_errors c2.Pdt.diags then begin
        prerr_endline (Pdt_util.Diag.to_string c2.Pdt.diags);
        1
      end
      else begin
        (* a run that stops early prints what the program wrote, then one
           line naming the file and the reason *)
        let failed output msg =
          print_string output;
          flush stdout;
          Printf.eprintf "tau_instr: %s: %s\n" source msg;
          1
        in
        match Pdt_tau.Interp.run ~tracing:trace c2.Pdt.program with
        | exception Pdt_tau.Interp.Uncaught (msg, r) -> failed r.output msg
        | exception Pdt_tau.Interp.Runtime_error msg -> failed "" msg
        | r ->
            print_string r.output;
            Printf.printf "\n(exit code %d, %Ld virtual cycles)\n\n" r.exit_code r.cycles;
            print_string (Pdt_tau.Pprof.format r.profile);
            if trace then begin
              print_endline "\nEvent trace:";
              print_string (Pdt_tau.Pprof.format_trace r.profile)
            end;
            0
      end
    end
    else 0
  end

let source =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE" ~doc:"C++ source file")

let includes =
  Arg.(value & opt_all dir [] & info [ "I"; "include" ] ~docv:"DIR" ~doc:"Include directory")

let outdir =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Write instrumented sources here")

let do_run =
  Arg.(value & flag & info [ "run" ] ~doc:"Run the instrumented program and print the profile")

let trace =
  Arg.(value & flag & info [ "trace" ] ~doc:"Also collect and print the event trace")

let select =
  Arg.(value & opt (some file) None
       & info [ "select" ] ~docv:"FILE"
           ~doc:"Selective instrumentation file (BEGIN_EXCLUDE_LIST / BEGIN_INCLUDE_LIST)")

let mhp_only =
  Arg.(value & flag
       & info [ "mhp-only" ]
           ~doc:"Instrument only routines the may-happen-in-parallel analysis \
                 marks as possibly concurrent (spawn/join extension)")

let cmd =
  let doc = "instrument C++ source with TAU measurement macros via PDT" in
  Cmd.v (Cmd.info "tau_instr" ~doc)
    Term.(const run $ source $ includes $ outdir $ do_run $ trace $ select $ mhp_only)

let () = exit (Cmd.eval' cmd)
