(* pdbhtml: creates web-based documentation enabling navigation of the code
   via HTML links (Table 2). *)

open Cmdliner

let run pdb_file outdir =
  Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbhtml" Pdt_ductape.Ductape.of_file pdb_file
  @@ fun d ->
  match Pdt_tools.Pdbhtml.generate_to_dir d outdir with
  | n ->
      Printf.printf "wrote %d pages to %s/\n" n outdir;
      0
  | exception Sys_error msg ->
      Printf.eprintf "pdbhtml: %s\n" msg;
      1

let pdb_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PDB" ~doc:"Program database file")

let outdir =
  Arg.(value & opt string "html" & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory")

let cmd =
  let doc = "generate HTML documentation from a PDB file" in
  Cmd.v (Cmd.info "pdbhtml" ~doc) Term.(const run $ pdb_file $ outdir)

let () = exit (Cmd.eval' cmd)
