(* pdtc: the PDT compiler driver — C++ source in, program database out.
   Plays the role of "C++ Front End + IL Analyzer" in Figure 2. *)

open Cmdliner

let language_of source =
  match String.lowercase_ascii (Filename.extension source) with
  | ".f90" | ".f95" | ".f" -> `Fortran
  | ".java" -> `Java
  | _ -> `Cpp

(* Fold --max-errors and every --limit name=value override into the
   front-end budget record; usage errors exit like other CLI mistakes. *)
let resolve_budgets ~tool max_errors limit_specs =
  let b = Pdt_util.Limits.default_budgets in
  let b =
    match max_errors with
    | Some n -> { b with Pdt_util.Limits.max_errors = n }
    | None -> b
  in
  List.fold_left
    (fun b spec ->
      match Pdt_util.Limits.set_budget b spec with
      | Ok b -> b
      | Error msg ->
          Printf.eprintf "%s: %s\n" tool msg;
          exit 124)
    b limit_specs

let run_single source includes output mapping no_used fixed_spec budgets =
  match language_of source with
  | (`Fortran | `Java) as lang -> begin
    (* the Fortran 90 / Java IL Analyzers (paper §6) feed the same PDB *)
    match
      let ic = open_in_bin source in
      let src = really_input_string ic (in_channel_length ic) in
      close_in ic;
      src
    with
    | exception Sys_error msg ->
        Printf.eprintf "pdtc: %s\n" msg;
        1
    | src ->
    let diags = Pdt_util.Diag.create () in
    let prog =
      match lang with
      | `Fortran -> Pdt_f90.F90_sema.compile_string ~file:source ~diags src
      | `Java -> Pdt_java.Java_sema.compile_string ~file:source ~diags src
    in
    let diag_text = Pdt_util.Diag.to_string diags in
    if diag_text <> "" then prerr_endline diag_text;
    if Pdt_util.Diag.has_errors diags then 1
    else begin
      let pdb = Pdt_analyzer.Analyzer.run prog in
      let out =
        match output with
        | Some o -> o
        | None -> Filename.remove_extension (Filename.basename source) ^ ".pdb"
      in
      Pdt_pdb.Pdb_write.to_file pdb out;
      Printf.printf "wrote %s (%d items)\n" out (Pdt_pdb.Pdb.item_count pdb);
      0
    end
  end
  | `Cpp -> begin
  let vfs = Pdt_util.Vfs.create ~include_paths:includes () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let opts =
    { Pdt_sema.Sema.instantiate_used = not no_used;
      map_specializations = fixed_spec }
  in
  let limits = Pdt_util.Limits.create ~budgets () in
  match Pdt.compile ~opts ~limits ~vfs source with
  | exception Pdt_util.Diag.Error d ->
      Printf.eprintf "pdtc: %s\n"
        (Format.asprintf "%a" Pdt_util.Diag.pp_diagnostic d);
      1
  | exception Sys_error msg ->
      Printf.eprintf "pdtc: %s\n" msg;
      1
  | c ->
    let diag_text = Pdt_util.Diag.to_string c.Pdt.diags in
    if diag_text <> "" then prerr_endline diag_text;
    let aopts =
      { Pdt_analyzer.Analyzer.default_options with
        mapping =
          (if mapping = "ids" then Pdt_analyzer.Analyzer.Il_ids
           else Pdt_analyzer.Analyzer.Location_based) }
    in
    let pdb = Pdt_analyzer.Analyzer.run ~opts:aopts c.Pdt.program in
    let degraded = Pdt_util.Diag.has_errors c.Pdt.diags in
    if degraded then begin
      (* degraded compilation: the partial PDB is still written, marked
         incomplete so downstream tools and merges can tell *)
      pdb.Pdt_pdb.Pdb.incomplete <- true;
      pdb.Pdt_pdb.Pdb.diag_count <- Pdt_util.Diag.error_count c.Pdt.diags
    end;
    let out =
      match output with
      | Some o -> o
      | None -> Filename.remove_extension (Filename.basename source) ^ ".pdb"
    in
    Pdt_pdb.Pdb_write.to_file pdb out;
    Printf.printf "wrote %s (%d items%s)\n" out (Pdt_pdb.Pdb.item_count pdb)
      (if degraded then ", incomplete" else "");
    if degraded then 1 else 0
  end

let run sources includes output mapping no_used fixed_spec trace max_errors
    limit_specs =
  let budgets = resolve_budgets ~tool:"pdtc" max_errors limit_specs in
  if trace <> None then Pdt_util.Trace.start ();
  let code =
    match sources with
    | [ source ] ->
        run_single source includes output mapping no_used fixed_spec budgets
    | [] -> prerr_endline "pdtc: missing SOURCE argument"; 124
    | _ :: _ :: _ ->
        prerr_endline
          "pdtc: several sources given; use pdbbuild to build them into one \
           merged PDB";
        124
  in
  Option.iter
    (fun path ->
      Pdt_util.Trace.stop ();
      let oc = open_out path in
      output_string oc (Pdt_util.Trace.chrome_json ());
      close_out oc)
    trace;
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
