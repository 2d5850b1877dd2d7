(* pdbconv: converts the compact PDB format into a more readable form
   (Table 2), validates it with --check, or translates between the ASCII
   interchange format and the PDB-B binary container with
   --to-binary/--to-ascii.  Input format is sniffed, so every mode
   accepts both containers. *)

open Cmdliner

let write_output out data =
  match out with
  | None ->
      set_binary_mode_out stdout true;
      print_string data
  | Some path ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc

let run pdb_file check to_binary to_ascii out trace =
  if check && (to_binary || to_ascii) then begin
    Printf.eprintf "pdbconv: --check cannot be combined with a conversion mode\n";
    2
  end
  else if to_binary && to_ascii then begin
    Printf.eprintf "pdbconv: --to-binary and --to-ascii are mutually exclusive\n";
    2
  end
  else begin
    if trace <> None then Pdt_util.Trace.start ();
    let finish code =
      Option.iter Pdt_util.Trace.write_chrome trace;
      code
    in
    finish
    @@ Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbconv" Pdt_ductape.Ductape.of_file pdb_file
    @@ fun d ->
    if check then begin
      match Pdt_tools.Pdbconv.check d with
      | [] ->
          Printf.printf "PDB is consistent (%s container)\n"
            (Pdt_pdb.Pdb_io.format_name (Pdt_pdb.Pdb_io.sniff_file pdb_file));
          0
      | problems ->
          List.iter prerr_endline problems;
          1
    end
    else if to_binary then begin
      write_output out (Pdt_pdb.Pdb_bin.to_string (Pdt_ductape.Ductape.pdb d));
      0
    end
    else if to_ascii then begin
      write_output out (Pdt_pdb.Pdb_write.to_string (Pdt_ductape.Ductape.pdb d));
      0
    end
    else begin
      print_string (Pdt_tools.Pdbconv.convert d);
      0
    end
  end

let pdb_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PDB" ~doc:"Program database file (ASCII or PDB-B; format is sniffed)")

let check =
  Arg.(value & flag & info [ "c"; "check" ] ~doc:"Validate only: container integrity (magic, version, section bounds, string/aux offsets) and cross-references")

let to_binary =
  Arg.(value & flag & info [ "to-binary" ] ~doc:"Emit the PDB-B binary container instead of the readable form")

let to_ascii =
  Arg.(value & flag & info [ "to-ascii" ] ~doc:"Emit the canonical ASCII interchange format instead of the readable form")

let out =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write conversion output to $(docv) (default: stdout)")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the load/convert (container \
                 spans: $(b,pdb.parse), $(b,pdb.bin_read), $(b,pdb.bin_write), \
                 $(b,pdb.mmap_index)) and write it as Chrome trace_event JSON")

let cmd =
  let doc = "convert, translate or validate a PDB file" in
  Cmd.v (Cmd.info "pdbconv" ~doc)
    Term.(const run $ pdb_file $ check $ to_binary $ to_ascii $ out $ trace)

let () = exit (Cmd.eval' cmd)
