(** PDT driver: the front-end pipeline in one call.

    [compile] runs preprocess → parse → semantic analysis on one translation
    unit held in a virtual file system and returns the IL program plus the
    artifacts each stage produced.  This is the programmatic equivalent of
    invoking the paper's "C++ Front End + IL Analyzer" toolchain; the IL
    Analyzer proper ([pdt_analyzer]) then turns [program] into a PDB. *)

open Pdt_util

type compilation = {
  program : Pdt_il.Il.program;
  tu : Pdt_ast.Ast.translation_unit;
  pp : Pdt_pp.Preproc.result;
  diags : Diag.engine;
}

exception Compile_error of string
(** Raised by {!compile_exn} when the front end reports errors. *)

(** The front-end work one build shares between its units, under one
    mutex: each header's tokens ({!Pdt_lex.Lexer.memo}) and the parse of
    a unit's leading header tokens ({!Pdt_parse.Parser.memo}), each kept
    once a second unit needs it.  A build makes one and drops it when it
    returns. *)
type memo = { lexes : Pdt_lex.Lexer.memo; prefixes : Pdt_parse.Parser.memo }

let memo () =
  let lock = Mutex.create () in
  { lexes = Pdt_lex.Lexer.memo ~lock; prefixes = Pdt_parse.Parser.memo ~lock }

(** Compile [main] from [vfs].

    @param opts semantic-analysis options (instantiation mode etc.)
    @param predefined additional predefined macros
    @param limits resource budgets; defaults to {!Limits.default_budgets}.
      A shared {!Limits.t} governor is threaded through every stage, so
      pathological inputs degrade into recorded [Fatal] diagnostics and a
      partial result instead of crashing the process.
    @param memo the build's shared front-end work; the result is the one
      a compile without it gives. *)
let compile ?opts ?(predefined = []) ?limits ?memo ~vfs main : compilation =
  let limits =
    match limits with Some l -> l | None -> Limits.default ()
  in
  let diags = Diag.create () in
  let predefined = ("__PDT__", "1") :: predefined in
  let pp =
    Trace.timed ~cat:"pp" "pp.run" (fun () ->
        Pdt_pp.Preproc.run ~predefined ~limits
          ?memo:(Option.map (fun m -> m.lexes) memo)
          ~vfs ~diags main)
  in
  let tu =
    Pdt_parse.Parser.parse_translation_unit
      ?memo:(Option.map (fun m -> m.prefixes) memo)
      ~limits ~diags ~file:main pp.tokens
  in
  let program = Pdt_sema.Sema.analyze ?opts ~limits ~diags pp tu in
  { program; tu; pp; diags }

(** Like {!compile} but raises {!Compile_error} if any error was reported. *)
let compile_exn ?opts ?predefined ~vfs main : compilation =
  let c = compile ?opts ?predefined ~vfs main in
  if Diag.has_errors c.diags then
    raise (Compile_error (Diag.to_string c.diags));
  c

(** Compile a single in-memory source string (convenience for tests and
    examples).  The source is mounted as [main.cpp]; [extra_files] are added
    alongside it and the mini-STL include directory can be provided by the
    caller through [vfs]. *)
let compile_string ?opts ?predefined ?(extra_files = []) ?vfs src : compilation =
  let vfs = match vfs with Some v -> v | None -> Vfs.create () in
  List.iter (fun (p, c) -> Vfs.add_file vfs p c) extra_files;
  Vfs.add_file vfs "main.cpp" src;
  compile ?opts ?predefined ~vfs "main.cpp"

(** Compile each translation unit of a project and merge the resulting
    PDBs (the pdtc-then-pdbmerge workflow of a multi-file build).  Returns
    the merged program database; duplicate template instantiations across
    translation units are eliminated by the merge. *)
let compile_project ?opts ?predefined ~vfs (mains : string list) :
    Pdt_pdb.Pdb.t * compilation list =
  let compilations = List.map (compile ?opts ?predefined ~vfs) mains in
  let pdbs =
    List.map (fun c -> Pdt_analyzer.Analyzer.run c.program) compilations
  in
  (Pdt_ductape.Ductape.merge pdbs, compilations)
