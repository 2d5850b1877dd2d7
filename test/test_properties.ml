(* Property-based tests (qcheck) for core data structures and invariants. *)

open Pdt_util

(* ------------------------------------------------------------------ *)
(* Lexer: rendering a token stream and re-lexing is the identity       *)
(* ------------------------------------------------------------------ *)

let gen_token : string QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [ (* identifiers *)
        map
          (fun (c, rest) ->
            String.make 1 c
            ^ String.concat "" (List.map (String.make 1) rest))
          (pair (char_range 'a' 'z') (list_size (int_range 0 6) (char_range 'a' 'z')));
        (* keywords *)
        oneofl [ "class"; "template"; "int"; "double"; "const"; "virtual"; "return" ];
        (* integers *)
        map string_of_int (int_range 0 99999);
        (* punctuators that survive adjacency when space-separated *)
        oneofl [ "+"; "-"; "*"; "/"; "::"; "=="; "<="; ">="; "("; ")"; "{"; "}";
                 ";"; ","; "&&"; "||"; "->"; "." ];
        (* strings *)
        map (fun s -> Printf.sprintf "%S" s)
          (string_size ~gen:(char_range 'a' 'z') (int_range 0 8)) ])

let prop_lexer_roundtrip =
  QCheck.Test.make ~count:200 ~name:"lexer: render/relex identity"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_token))
    (fun words ->
      let src = String.concat " " words in
      let diags = Diag.create () in
      let toks1 = Pdt_lex.Lexer.tokenize ~diags ~file:"p.cpp" src in
      let text = Pdt_lex.Token.text_of_toks toks1 in
      let toks2 = Pdt_lex.Lexer.tokenize ~diags ~file:"p.cpp" text in
      List.length toks1 = List.length toks2
      && List.for_all2
           (fun (a : Pdt_lex.Token.tok) (b : Pdt_lex.Token.tok) ->
             Pdt_lex.Token.equal_kind a.tok b.tok)
           toks1 toks2)

(* ------------------------------------------------------------------ *)
(* Preprocessor: #if evaluator agrees with a reference evaluator       *)
(* ------------------------------------------------------------------ *)

type iexpr =
  | L of int
  | Add of iexpr * iexpr
  | Sub of iexpr * iexpr
  | Mul of iexpr * iexpr
  | Lt of iexpr * iexpr
  | And of iexpr * iexpr
  | Or of iexpr * iexpr
  | Not of iexpr

let rec render = function
  | L n -> string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (render a) (render b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (render a) (render b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (render a) (render b)
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (render a) (render b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (render a) (render b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (render a) (render b)
  | Not a -> Printf.sprintf "!(%s)" (render a)

let rec ieval = function
  | L n -> Int64.of_int n
  | Add (a, b) -> Int64.add (ieval a) (ieval b)
  | Sub (a, b) -> Int64.sub (ieval a) (ieval b)
  | Mul (a, b) -> Int64.mul (ieval a) (ieval b)
  | Lt (a, b) -> if ieval a < ieval b then 1L else 0L
  | And (a, b) -> if ieval a <> 0L && ieval b <> 0L then 1L else 0L
  | Or (a, b) -> if ieval a <> 0L || ieval b <> 0L then 1L else 0L
  | Not a -> if ieval a = 0L then 1L else 0L

let gen_iexpr : iexpr QCheck.Gen.t =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun v -> L v) (int_range 0 50)
        else
          oneof
            [ map (fun v -> L v) (int_range 0 50);
              map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Lt (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Not a) (self (n - 1)) ]))

let prop_preproc_if =
  QCheck.Test.make ~count:200 ~name:"preproc: #if agrees with reference"
    (QCheck.make gen_iexpr) (fun e ->
      let expected = ieval e <> 0L in
      let src = Printf.sprintf "#if %s\nyes\n#else\nno\n#endif\n" (render e) in
      let vfs = Vfs.create () in
      Vfs.add_file vfs "main.cpp" src;
      let diags = Diag.create () in
      let r = Pdt_pp.Preproc.run ~vfs ~diags "main.cpp" in
      match r.tokens with
      | [ { tok = Pdt_lex.Token.Ident got; _ } ] -> got = (if expected then "yes" else "no")
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Interpreter: integer expressions agree with a reference evaluator   *)
(* ------------------------------------------------------------------ *)

let prop_interp_arith =
  QCheck.Test.make ~count:100 ~name:"interp: int arithmetic agrees with reference"
    (QCheck.make gen_iexpr) (fun e ->
      (* C++ ints here are 64-bit in the interpreter; the reference uses
         Int64 too.  Print via cout to avoid exit-code truncation. *)
      let expected = ieval e in
      let src =
        Printf.sprintf
          "#include <iostream.h>\nint main() { cout << (%s) << endl; return 0; }"
          (* reuse C++ syntax: ! && || < + - * all match *)
          (render e)
      in
      let vfs = Vfs.create () in
      Pdt_workloads.Ministl.mount vfs;
      Vfs.add_file vfs "main.cpp" src;
      let c = Pdt.compile ~vfs "main.cpp" in
      if Diag.has_errors c.Pdt.diags then false
      else
        let r = Pdt_tau.Interp.run c.Pdt.program in
        (* booleans print as 1/0; both sides agree since the reference
           produces 1/0 for comparisons already *)
        String.trim r.output = Int64.to_string expected)

(* ------------------------------------------------------------------ *)
(* IL: type interning is idempotent and names are stable               *)
(* ------------------------------------------------------------------ *)

let gen_tykind prog : Pdt_il.Il.ty_kind QCheck.Gen.t =
  let open Pdt_il.Il in
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneofl
            [ Tbuiltin { bname = "int"; ykind = "int"; yikind = "int" };
              Tbuiltin { bname = "double"; ykind = "float"; yikind = "double" };
              Tbuiltin { bname = "bool"; ykind = "bool"; yikind = "char" } ]
        in
        if n <= 0 then base
        else
          oneof
            [ base;
              map (fun k -> Tptr (intern_type prog k)) (self (n / 2));
              map (fun k -> Tref (intern_type prog k)) (self (n / 2));
              map
                (fun k ->
                  Tqual { base = intern_type prog k; q_const = true; q_volatile = false })
                (self (n / 2));
              map (fun k -> Tarray (intern_type prog k, Some 4)) (self (n / 2)) ]))

let prop_intern_idempotent =
  let prog = Pdt_il.Il.create_program () in
  QCheck.Test.make ~count:200 ~name:"IL: intern_type is idempotent"
    (QCheck.make (gen_tykind prog)) (fun k ->
      let a = Pdt_il.Il.intern_type prog k in
      let b = Pdt_il.Il.intern_type prog k in
      a = b && Pdt_il.Il.type_name prog a = Pdt_il.Il.type_name prog b)

(* ------------------------------------------------------------------ *)
(* VFS path normalization                                              *)
(* ------------------------------------------------------------------ *)

let gen_path =
  QCheck.Gen.(
    map
      (fun segs -> String.concat "/" segs)
      (list_size (int_range 1 6) (oneofl [ "a"; "b"; "src"; ".."; "."; "include" ])))

let prop_normalize_idempotent =
  QCheck.Test.make ~count:200 ~name:"vfs: normalize is idempotent"
    (QCheck.make gen_path) (fun p ->
      let n = Vfs.normalize p in
      Vfs.normalize n = n)

let prop_normalize_no_dots =
  QCheck.Test.make ~count:200 ~name:"vfs: normalize removes interior . and non-leading .."
    (QCheck.make gen_path) (fun p ->
      let n = Vfs.normalize p in
      let segs = String.split_on_char '/' n in
      (* after a non-.. segment, no .. may follow *)
      let rec ok = function
        | ".." :: rest -> ok rest      (* leading .. may pile up *)
        | x :: rest -> x <> "." && List.for_all (fun s -> s <> "..") rest && ok' rest
        | [] -> true
      and ok' rest = List.for_all (fun s -> s <> "." ) rest in
      ok segs)

(* ------------------------------------------------------------------ *)
(* Workload generator determinism                                      *)
(* ------------------------------------------------------------------ *)

let prop_generator_deterministic =
  QCheck.Test.make ~count:25 ~name:"generator: same seed, same program"
    QCheck.(int_range 0 1000) (fun seed ->
      let cfg = { Pdt_workloads.Generator.default_config with seed } in
      Pdt_workloads.Generator.single_file_program ~cfg ()
      = Pdt_workloads.Generator.single_file_program ~cfg ())

let prop_generator_compiles =
  QCheck.Test.make ~count:15 ~name:"generator: every seed compiles cleanly"
    QCheck.(int_range 0 500) (fun seed ->
      let cfg =
        { Pdt_workloads.Generator.default_config with
          seed; n_class_templates = 4; methods_per_class = 3 }
      in
      let src = Pdt_workloads.Generator.single_file_program ~cfg () in
      let c = Pdt.compile_string src in
      not (Diag.has_errors c.Pdt.diags))

(* ------------------------------------------------------------------ *)
(* Merged multi-TU PDBs survive the on-disk format (the cache path)    *)
(* ------------------------------------------------------------------ *)

let prop_project_merge_roundtrip =
  QCheck.Test.make ~count:8
    ~name:"pdb: write/parse roundtrips the merged PDB of a generated project"
    QCheck.(int_range 0 300) (fun seed ->
      let cfg =
        { Pdt_workloads.Generator.default_config with
          seed; n_class_templates = 3; methods_per_class = 2 }
      in
      let vfs, sources = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus:3 () in
      let pdbs =
        List.map
          (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
          sources
      in
      let merged = Pdt_ductape.Ductape.merge pdbs in
      (* the incremental cache stores exactly this serialization, so the
         roundtrip must be the identity on it *)
      let s = Pdt_pdb.Pdb_write.to_string merged in
      let s' = Pdt_pdb.Pdb_write.to_string (Pdt_pdb.Pdb_parse.of_string s) in
      s = s')

(* ------------------------------------------------------------------ *)
(* Merge: any grouping of the inputs merges to the flat merge's bytes  *)
(* ------------------------------------------------------------------ *)

(* A random generator config and project size, and a random partition of
   the units into 1-6 groups in random order: merging the group partials
   must serialize exactly like one flat merge of all the units.  The
   incremental driver's cached group partials depend on this. *)
let prop_merge_grouping_independent =
  QCheck.Test.make ~count:50
    ~name:"merge: merging group partials = one flat merge"
    QCheck.(triple (int_range 0 1000) (int_range 2 6) (int_range 0 1_000_000))
    (fun (seed, n_tus, partition_seed) ->
      let r = Pdt_workloads.Generator.rng seed in
      let pick lo hi = lo + (Pdt_workloads.Generator.next r mod (hi - lo + 1)) in
      let cfg =
        { Pdt_workloads.Generator.seed;
          n_class_templates = pick 1 4; chain_depth = pick 1 3;
          methods_per_class = pick 1 3; n_function_templates = pick 0 3;
          n_plain_classes = pick 0 3; n_instantiation_types = pick 1 4 }
      in
      let vfs, sources = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus () in
      let pdbs =
        List.map
          (fun f -> Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs f).Pdt.program)
          sources
      in
      let rs = Random.State.make [| partition_seed |] in
      let shuffled =
        List.map (fun p -> (Random.State.bits rs, p)) pdbs
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let n = List.length shuffled in
      let k = 1 + Random.State.int rs (min 6 n) in
      (* k contiguous non-empty runs: cut after k-1 distinct positions *)
      let cuts =
        List.init (n - 1) (fun i -> (Random.State.bits rs, i + 1))
        |> List.sort compare
        |> List.filteri (fun j _ -> j < k - 1)
        |> List.map snd
      in
      let group_of i = List.length (List.filter (fun c -> c <= i) cuts) in
      let groups =
        List.init k (fun g -> List.filteri (fun i _ -> group_of i = g) shuffled)
      in
      let module D = Pdt_ductape.Ductape in
      let flat = Pdt_pdb.Pdb_write.to_string (D.merge pdbs) in
      let grouped = Pdt_pdb.Pdb_write.to_string (D.merge (List.map D.merge groups)) in
      if flat <> grouped then
        QCheck.Test.fail_reportf "%d units in %d groups: grouped merge differs" n
          (List.length groups);
      true)

(* ------------------------------------------------------------------ *)
(* Incremental build: a random edit's delta rebuild is exact           *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* For random workloadgen projects and random single-file edits, the
   incremental rebuild must be byte-identical to a cold cacheless build
   of the edited tree, and its stats must partition the units:
   reanalyzed + reused = total.  Edit kind 4 is a whitespace-only edit
   (trailing blank line), which must re-analyze nothing. *)
let prop_incremental_edit_exact =
  QCheck.Test.make ~count:10
    ~name:"incremental: random edit rebuild = cold build bytes, stats partition units"
    QCheck.(pair (int_range 0 300) (int_range 0 4))
    (fun (seed, edit_kind) ->
      let module B = Pdt_build.Build in
      let module I = Pdt_build.Incremental in
      let n_tus = 3 in
      let cfg =
        { Pdt_workloads.Generator.default_config with
          seed; n_class_templates = 2; methods_per_class = 2 }
      in
      let vfs, sources = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus () in
      let cache = Filename.temp_file "pdt-incr-prop" ".cache" in
      Sys.remove cache;
      Fun.protect ~finally:(fun () -> rm_rf cache) @@ fun () ->
      let options =
        { I.default_options with
          build =
            { B.default_options with domains = 1; cache_dir = Some cache } }
      in
      ignore (I.build ~options ~vfs sources);
      let target, addition =
        match edit_kind with
        | 0 -> ("generated.h", "\nint prop_edit_marker(int x);\n")
        | 4 -> ("main.cpp", "   \n")
        | k ->
            ( Printf.sprintf "tu%d.cpp" (k - 1),
              Printf.sprintf "\nint prop_edit_fn_%d() { return %d; }\n" k k )
      in
      (match Vfs.read_raw vfs target with
       | Some old -> Vfs.add_file vfs target (old ^ addition)
       | None -> QCheck.Test.fail_reportf "edit target %s missing" target);
      let r = I.build ~options ~vfs sources in
      let cold =
        B.build
          ~options:{ B.default_options with domains = 1; cache_dir = None }
          ~vfs sources
      in
      Pdt_pdb.Pdb_write.to_string r.I.merged
      = Pdt_pdb.Pdb_write.to_string cold.B.merged
      && r.I.reanalyzed + r.I.reused = List.length sources
      && (not r.I.fallback)
      && (edit_kind <> 4 || r.I.reanalyzed = 0))

(* ------------------------------------------------------------------ *)
(* Subst: the empty environment is the identity                        *)
(* ------------------------------------------------------------------ *)

let prop_subst_empty_identity =
  QCheck.Test.make ~count:50 ~name:"subst: empty env is identity on generated code"
    QCheck.(int_range 0 200) (fun seed ->
      let cfg =
        { Pdt_workloads.Generator.default_config with seed; n_class_templates = 2 }
      in
      let src = Pdt_workloads.Generator.single_file_program ~cfg () in
      let diags = Diag.create () in
      let toks = Pdt_lex.Lexer.tokenize ~diags ~file:"g.cpp" src in
      let tu = Pdt_parse.Parser.parse_translation_unit ~diags ~file:"g.cpp" toks in
      List.for_all
        (fun d -> Pdt_sema.Subst.subst_decl [] d = d)
        tu.Pdt_ast.Ast.tu_decls)

(* ------------------------------------------------------------------ *)
(* Interpreter: exit codes are stable under instrumentation            *)
(* ------------------------------------------------------------------ *)

let prop_instrumentation_preserves_semantics =
  QCheck.Test.make ~count:10 ~name:"tau: instrumentation never changes behaviour"
    QCheck.(int_range 0 300) (fun seed ->
      let cfg =
        { Pdt_workloads.Generator.default_config with
          seed; n_class_templates = 3; methods_per_class = 2 }
      in
      let src = Pdt_workloads.Generator.single_file_program ~cfg () in
      let vfs = Vfs.create () in
      Pdt_workloads.Ministl.mount vfs;
      Vfs.add_file vfs "g.cpp" src;
      let c = Pdt.compile ~vfs "g.cpp" in
      if Diag.has_errors c.Pdt.diags then false
      else begin
        let r1 = Pdt_tau.Interp.run c.Pdt.program in
        let d = Pdt_ductape.Ductape.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
        let plan = Pdt_tau.Instrument.plan d in
        let vfs2, _ = Pdt_tau.Instrument.instrument_vfs vfs plan in
        let c2 = Pdt.compile ~vfs:vfs2 "g.cpp" in
        if Diag.has_errors c2.Pdt.diags then false
        else
          let r2 = Pdt_tau.Interp.run c2.Pdt.program in
          r1.exit_code = r2.exit_code && r1.output = r2.output
      end)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lexer_roundtrip;
      prop_preproc_if;
      prop_interp_arith;
      prop_intern_idempotent;
      prop_normalize_idempotent;
      prop_normalize_no_dots;
      prop_generator_deterministic;
      prop_generator_compiles;
      prop_project_merge_roundtrip;
      prop_merge_grouping_independent;
      prop_incremental_edit_exact;
      prop_subst_empty_identity;
      prop_instrumentation_preserves_semantics ]
