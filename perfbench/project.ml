(* The project cold_build, edit_rebuild and query_serve share: the
   Generator's default shape (8 class templates, 24 TUs + main.cpp) drawn
   from the run's seed.  The seed moves constants, not structure, so every
   seed costs about the same to build. *)

module G = Pdt_workloads.Generator
module B = Pdt_build.Build

let n_tus = 24

let config seed = { G.default_config with G.seed }

(* (vfs, sources): generated.h, tu0.cpp .. tu23.cpp, main.cpp and the
   mini-STL — the only files the program sees *)
let make ~seed = G.project_vfs ~cfg:(config seed) ~n_tus ()

(* pdbbuild -j 1: one domain, the CLI's defaults otherwise *)
let build_options ?cache_dir () =
  { B.default_options with B.domains = 1; cache_dir }

(* A TU-body edit: tu[k]'s driver starts from [value] instead of 0.  The
   caller passes a value never used before, so the unit's cache key is new
   and it always recompiles; the file is replaced, so the project never
   grows. *)
let edited_unit ~seed ~tu ~value : string =
  let src = G.translation_unit (config seed) ~tu_index:tu in
  let needle = "    int total = 0;\n" in
  let n = String.length needle in
  let rec find i =
    if i + n > String.length src then failwith "edited_unit: no driver body"
    else if String.sub src i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i
  ^ Printf.sprintf "    int total = %d;\n" value
  ^ String.sub src (i + n) (String.length src - i - n)

let unit_name tu = Printf.sprintf "tu%d.cpp" tu

(* A unit compiled outside the build driver — the reference path
   Pdt.compile_project takes — for checks independent of Build. *)
let reference_unit ~vfs source : Pdt_pdb.Pdb.t =
  let c = Pdt.compile ~vfs source in
  if Pdt_util.Diag.has_errors c.Pdt.diags then
    failwith (source ^ ": " ^ Pdt_util.Diag.to_string c.Pdt.diags);
  Pdt_analyzer.Analyzer.run c.Pdt.program

let ascii (pdb : Pdt_pdb.Pdb.t) = Pdt_pdb.Pdb_write.to_string pdb

let read_file path =
  match Sysinfo.read_file path with
  | Some s -> s
  | None -> failwith ("cannot read " ^ path)
