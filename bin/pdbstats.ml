(* pdbstats: static software metrics over a program database (a fifth tool
   demonstrating how cheaply DUCTAPE supports new analyses). *)

open Cmdliner

let run pdb_file =
  Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbstats" Pdt_ductape.Ductape.of_file pdb_file
  @@ fun d ->
  Option.iter prerr_endline (Pdt_tools.Duct.semantics_note d);
  print_string (Pdt_tools.Pdbstats.report d);
  0

let pdb_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PDB" ~doc:"Program database file")

let cmd =
  let doc = "static software metrics (fan-in/out, coupling, dead code) from a PDB" in
  Cmd.v (Cmd.info "pdbstats" ~doc) Term.(const run $ pdb_file)

let () = exit (Cmd.eval' cmd)
