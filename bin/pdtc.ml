(* pdtc: the PDT compiler driver — one C++, Fortran 90 or Java source in,
   program database out.  Plays the role of "C++ Front End + IL Analyzer"
   in Figure 2, through the same compile as every unit of a project build
   (pdbbuild). *)

open Cmdliner

module B = Pdt_build.Build

(* One unit through the build's own compile ({!B.compile_unit}): its
   diagnostics go to stderr, its PDB — a partial one marked incomplete
   when the C++ front end recovered from errors — to [output]. *)
let run_single source includes output mapping no_used fixed_spec limits =
  let vfs = Pdt_util.Vfs.create ~include_paths:includes () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let options =
    { B.default_options with
      sema =
        { Pdt_sema.Sema.instantiate_used = not no_used;
          map_specializations = fixed_spec };
      mapping =
        (if mapping = "ids" then Pdt_analyzer.Analyzer.Il_ids
         else Pdt_analyzer.Analyzer.Location_based);
      limits }
  in
  match B.compile_unit options ~vfs source with
  | exception B.Unit_error diags ->
      prerr_endline diags;
      1
  | exception Pdt_util.Diag.Error d ->
      Printf.eprintf "pdtc: %s\n"
        (Format.asprintf "%a" Pdt_util.Diag.pp_diagnostic d);
      1
  | exception Sys_error msg ->
      Printf.eprintf "pdtc: %s\n" msg;
      1
  | c ->
      if c.B.c_diags <> "" then prerr_endline c.B.c_diags;
      let out =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension (Filename.basename source) ^ ".pdb"
      in
      Pdt_pdb.Pdb_write.to_file c.B.c_pdb out;
      let degraded = c.B.c_degraded <> None in
      Printf.printf "wrote %s (%d items%s)\n" out
        (Pdt_pdb.Pdb.item_count c.B.c_pdb)
        (if degraded then ", incomplete" else "");
      if degraded then 1 else 0

let run sources includes output mapping no_used fixed_spec trace max_errors
    limit_specs =
  let limits =
    match Pdt_util.Limits.of_flags ?max_errors limit_specs with
    | Ok b -> b
    | Error msg ->
        Printf.eprintf "pdtc: %s\n" msg;
        exit 124
  in
  if trace <> None then Pdt_util.Trace.start ();
  let code =
    match sources with
    | [ source ] ->
        run_single source includes output mapping no_used fixed_spec limits
    | [] -> prerr_endline "pdtc: missing SOURCE argument"; 124
    | _ :: _ :: _ ->
        prerr_endline
          "pdtc: several sources given; use pdbbuild to build them into one \
           merged PDB";
        124
  in
  Option.iter Pdt_util.Trace.write_chrome trace;
  code

let sources =
  Arg.(non_empty & pos_all file []
       & info [] ~docv:"SOURCE"
           ~doc:"Source file; build several into one merged PDB with $(b,pdbbuild)")

let includes =
  Arg.(value & opt_all dir [] & info [ "I"; "include" ] ~docv:"DIR" ~doc:"Include search directory")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output PDB file")

let mapping =
  Arg.(value & opt string "location"
       & info [ "template-mapping" ] ~docv:"MODE"
           ~doc:"Template back-mapping: 'location' (the paper's algorithm) or 'ids' (the fixed mode)")

let no_used =
  Arg.(value & flag
       & info [ "no-used-instantiation" ]
           ~doc:"Disable used-mode instantiation (records requests only, like the automatic scheme)")

let fixed_spec =
  Arg.(value & flag
       & info [ "map-specializations" ]
           ~doc:"Carry template ids through the IL so specializations map to their primary template")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the compilation (per-include, \
                 per-parse, per-template-instantiation spans) and write it as \
                 Chrome trace_event JSON, loadable in chrome://tracing or \
                 https://ui.perfetto.dev")

let max_errors =
  Arg.(value & opt (some int) None
       & info [ "max-errors" ] ~docv:"N"
           ~doc:"Stop error recovery after N syntax errors per translation \
                 unit (shorthand for $(b,--limit errors=N))")

let limit_specs =
  Arg.(value & opt_all string []
       & info [ "limit" ] ~docv:"NAME=N"
           ~doc:"Override a front-end resource budget; repeatable.  Known \
                 limits: include-depth, macro-depth, tokens, parse-depth, \
                 instantiation-depth, errors.")

let cmd =
  let doc = "compile C++ source into a program database (PDB)" in
  Cmd.v (Cmd.info "pdtc" ~doc)
    Term.(const run $ sources $ includes $ output $ mapping $ no_used $ fixed_spec
          $ trace $ max_errors $ limit_specs)

let () = exit (Cmd.eval' cmd)
