(* pdbtree: displays file inclusion, class hierarchy, and call graph trees
   (Table 2, Figure 5). *)

open Cmdliner

let run pdb_file which root =
  Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbtree" Pdt_ductape.Ductape.of_file pdb_file
  @@ fun d ->
  Option.iter prerr_endline (Pdt_tools.Pdbtree.incomplete_note d);
  Option.iter prerr_endline (Pdt_tools.Duct.semantics_note d);
  let root_routine =
    Option.bind root (fun name ->
        List.find_opt
          (fun (r : Pdt_pdb.Pdb.routine_item) -> r.ro_name = name)
          (Pdt_ductape.Ductape.routines d))
  in
  (match which with
   | "include" -> print_string (Pdt_tools.Pdbtree.include_tree d)
   | "class" -> print_string (Pdt_tools.Pdbtree.class_hierarchy d)
   | "call" -> print_string (Pdt_tools.Pdbtree.call_graph ?root:root_routine d)
   | _ ->
       print_endline "=== File inclusion tree ===";
       print_string (Pdt_tools.Pdbtree.include_tree d);
       print_endline "=== Class hierarchy ===";
       print_string (Pdt_tools.Pdbtree.class_hierarchy d);
       print_endline "=== Static call graph ===";
       print_string (Pdt_tools.Pdbtree.call_graph ?root:root_routine d));
  0

let pdb_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PDB" ~doc:"Program database file")

let which =
  Arg.(value & opt string "all"
       & info [ "t"; "tree" ] ~docv:"KIND" ~doc:"Tree to display: include, class, call, or all")

let root =
  Arg.(value & opt (some string) None
       & info [ "r"; "root" ] ~docv:"ROUTINE" ~doc:"Call-graph root routine (default: main)")

let cmd =
  let doc = "display file inclusion, class hierarchy, and call graph trees" in
  Cmd.v (Cmd.info "pdbtree" ~doc) Term.(const run $ pdb_file $ which $ root)

let () = exit (Cmd.eval' cmd)
