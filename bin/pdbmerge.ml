(* pdbmerge: merges PDB files from separate compilations into one PDB file,
   eliminating duplicate template instantiations in the process (Table 2). *)

open Cmdliner

let run pdb_files output =
  (* load one at a time, stopping at the first file that cannot be read,
     so the error names it; the container format (ASCII or PDB-B) is
     sniffed per file *)
  let rec load pdbs = function
    | f :: rest ->
        Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbmerge" Pdt_pdb.Pdb_io.of_file f
          (fun pdb -> load (pdb :: pdbs) rest)
    | [] -> (
        let merged, stats = Pdt_tools.Pdbmerge.merge (List.rev pdbs) in
        match Pdt_pdb.Pdb_write.to_file merged output with
        | () ->
            print_endline (Pdt_tools.Pdbmerge.stats_to_string stats);
            Printf.printf "wrote %s\n" output;
            0
        | exception Sys_error msg ->
            Printf.eprintf "pdbmerge: %s\n" msg;
            1)
  in
  load [] pdb_files

let pdb_files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"PDB" ~doc:"Program database files")

let output =
  Arg.(value & opt string "merged.pdb" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file")

let cmd =
  let doc = "merge PDB files, eliminating duplicate template instantiations" in
  Cmd.v (Cmd.info "pdbmerge" ~doc) Term.(const run $ pdb_files $ output)

let () = exit (Cmd.eval' cmd)
