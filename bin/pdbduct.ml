(* pdbduct: navigate the semantic analyses stored in a PDB — define-use
   chains (defs-of, uses-of, chain walks) and the spawn/MHP side
   (spawn sites, may-happen-in-parallel pairs). *)

open Cmdliner
module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape
module T = Pdt_tools.Duct

let need_routine d key =
  match T.find_routine d key with
  | Some r -> Ok r
  | None ->
      Printf.eprintf "pdbduct: no routine %S\n" key;
      Error 1

let need_var r name =
  match T.var_in r name with
  | Some v -> Ok v
  | None ->
      Printf.eprintf "pdbduct: no define-use data for variable %S in %s\n" name
        r.P.ro_name;
      Error 1

let run pdb_file cmd routine var =
  Pdt_pdb.Pdb_io.with_loaded ~prog:"pdbduct" Pdt_ductape.Ductape.of_file pdb_file
  @@ fun d ->
  Option.iter prerr_endline (T.semantics_note d);
  let with_routine f =
    match routine with
    | None ->
        Printf.eprintf "pdbduct: %s needs a ROUTINE argument\n" cmd;
        1
    | Some key -> (
        match need_routine d key with
        | Error rc -> rc
        | Ok r -> f r)
  in
  let with_var f =
    with_routine (fun r ->
        match var with
        | None ->
            Printf.eprintf "pdbduct: %s needs a VAR argument\n" cmd;
            1
        | Some name -> (
            match need_var r name with
            | Error rc -> rc
            | Ok v -> f r v))
  in
  match cmd with
  | "vars" -> with_routine (fun r -> print_string (T.vars_text d r); 0)
  | "defs" -> with_var (fun r v -> print_string (T.defs_text d r v); 0)
  | "uses" -> with_var (fun r v -> print_string (T.uses_text d r v); 0)
  | "chain" -> with_var (fun r v -> print_string (T.chain_text d r v); 0)
  | "spawns" -> with_routine (fun r -> print_string (T.spawns_text d r); 0)
  | "mhp" -> print_string (T.mhp_text d); 0
  | c ->
      Printf.eprintf
        "pdbduct: unknown command %S (expected vars|defs|uses|chain|spawns|mhp)\n" c;
      1

let pdb_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PDB" ~doc:"Program database file")

let cmd_arg =
  Arg.(required & pos 1 (some string) None
       & info [] ~docv:"CMD" ~doc:"vars, defs, uses, chain, spawns, or mhp")

let routine_arg =
  Arg.(value & pos 2 (some string) None
       & info [] ~docv:"ROUTINE" ~doc:"Routine: name, qualified name, or ro#N")

let var_arg =
  Arg.(value & pos 3 (some string) None & info [] ~docv:"VAR" ~doc:"Variable name")

let cmd =
  let doc = "navigate define-use chains and spawn/MHP data in a program database" in
  Cmd.v (Cmd.info "pdbduct" ~doc)
    Term.(const run $ pdb_file $ cmd_arg $ routine_arg $ var_arg)

let () = exit (Cmd.eval' cmd)
