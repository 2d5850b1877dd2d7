(* DUCTAPE tests: the Figure 4 hierarchy, navigation, trees, merge. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

let stack_d () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  D.index (Pdt_analyzer.Analyzer.run c.Pdt.program)

let test_hierarchy_predicates () =
  let d = stack_d () in
  let items = D.items d in
  List.iter
    (fun it ->
      (* pdbFile is a pdbSimpleItem but not a pdbItem *)
      (match it with
       | D.File _ ->
           Alcotest.(check bool) "file is not item" false (D.is_item it);
           Alcotest.(check bool) "file has no location" true (D.item_location it = None)
       | _ -> Alcotest.(check bool) "non-file is item" true (D.is_item it));
      (* pdbFatItems: templates, namespaces, classes, routines *)
      (match it with
       | D.Template _ | D.Namespace _ | D.Class _ | D.Routine _ ->
           Alcotest.(check bool) "fat item" true (D.is_fat_item it)
       | D.File _ | D.Macro _ | D.Type _ ->
           Alcotest.(check bool) "not fat" false (D.is_fat_item it));
      (* pdbTemplateItems: classes and routines only *)
      match it with
      | D.Class _ | D.Routine _ ->
          Alcotest.(check bool) "template item" true (D.is_template_item it)
      | _ -> Alcotest.(check bool) "not template item" false (D.is_template_item it))
    items;
  Alcotest.(check bool) "has items" true (List.length items > 20)

let test_template_item_list () =
  (* list<pdbTemplateItem> can hold all template instantiations *)
  let d = stack_d () in
  let insts = D.template_items d in
  let names = List.map (D.item_name d) insts in
  Alcotest.(check bool) "Stack<int> in list" true (List.mem "Stack<int>" names);
  Alcotest.(check bool) "push instantiation in list" true (List.mem "push" names);
  List.iter
    (fun it ->
      Alcotest.(check bool) "every entry has template_of" true
        (D.item_template_of it <> None))
    insts

let test_callees_callers () =
  let d = stack_d () in
  let main = List.find (fun (r : P.routine_item) -> r.ro_name = "main") (D.routines d) in
  let callees = D.callees d main in
  Alcotest.(check bool) "main has callees" true (List.length callees >= 5);
  let push =
    List.find (fun (r : P.routine_item) -> r.ro_name = "push") (D.routines d)
  in
  let callers = D.callers d push in
  Alcotest.(check (list string)) "push called by main" [ "main" ]
    (List.map (fun (r : P.routine_item) -> r.ro_name) callers)

let test_include_tree () =
  let d = stack_d () in
  match D.include_tree d with
  | [ t ] ->
      Alcotest.(check string) "root" "TestStackAr.cpp" t.D.node.P.so_name;
      let names = List.map (fun c -> c.D.node.P.so_name) t.D.children in
      Alcotest.(check bool) "StackAr.h child" true (List.mem "StackAr.h" names)
  | _ -> Alcotest.fail "no include tree"

let test_call_tree () =
  let d = stack_d () in
  match D.call_tree d with
  | Some t ->
      Alcotest.(check string) "rooted at main" "main" t.D.node.P.ro_name;
      Alcotest.(check bool) "has children" true (t.D.children <> [])
  | None -> Alcotest.fail "no call tree"

let test_class_hierarchy_forest () =
  let src =
    "class A {}; class B : public A {}; class C : public B {}; class D : public A {};"
  in
  let c = Pdt.compile_string src in
  let d = D.index (Pdt_analyzer.Analyzer.run c.Pdt.program) in
  let forest = D.class_hierarchy d in
  let a = List.find (fun t -> t.D.node.P.cl_name = "A") forest in
  let kids = List.map (fun t -> t.D.node.P.cl_name) a.D.children in
  Alcotest.(check (list string)) "A's children" [ "B"; "D" ] kids;
  let b = List.find (fun t -> t.D.node.P.cl_name = "B") a.D.children in
  Alcotest.(check (list string)) "B's children" [ "C" ]
    (List.map (fun t -> t.D.node.P.cl_name) b.D.children)

(* ---------------- merge ---------------- *)

let compile_pdb vfs file =
  let c = Pdt.compile ~vfs file in
  if Pdt_util.Diag.has_errors c.Pdt.diags then
    Alcotest.failf "compile errors in %s:\n%s" file (Pdt_util.Diag.to_string c.Pdt.diags);
  Pdt_analyzer.Analyzer.run c.Pdt.program

let test_merge_dedups_instantiations () =
  let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:3 () in
  let pdbs = List.map (compile_pdb vfs) files in
  let merged = D.merge pdbs in
  (* every class name appears exactly once *)
  let names =
    List.map (fun (c : P.class_item) -> P.class_full_name merged c) merged.P.classes
  in
  let sorted = List.sort compare names in
  let rec dups = function
    | a :: (b :: _ as rest) -> if a = b then a :: dups rest else dups rest
    | _ -> []
  in
  Alcotest.(check (list string)) "no duplicate classes" [] (dups sorted);
  (* merged is smaller than the concatenation *)
  let before = List.fold_left (fun a p -> a + P.item_count p) 0 pdbs in
  Alcotest.(check bool) "smaller than sum" true (P.item_count merged < before)

let test_merge_declaration_definition () =
  (* TU1 declares f, TU2 defines it: merged PDB has the definition *)
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.add_file vfs "f.h" "int f(int x);\n";
  Pdt_util.Vfs.add_file vfs "a.cpp" "#include \"f.h\"\nint use() { return f(1); }\n";
  Pdt_util.Vfs.add_file vfs "b.cpp" "#include \"f.h\"\nint f(int x) { return x + 1; }\n";
  let pa = compile_pdb vfs "a.cpp" and pb = compile_pdb vfs "b.cpp" in
  let merged = D.merge [ pa; pb ] in
  let fs =
    List.filter (fun (r : P.routine_item) -> r.ro_name = "f") merged.P.routines
  in
  Alcotest.(check int) "one f" 1 (List.length fs);
  Alcotest.(check bool) "defined" true (List.hd fs).P.ro_defined

let test_merge_consistency () =
  let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:4 () in
  let pdbs = List.map (compile_pdb vfs) files in
  let merged = D.merge pdbs in
  let d = D.index merged in
  Alcotest.(check (list string)) "no dangling references" []
    (Pdt_tools.Pdbconv.check d)

let test_merge_roundtrip () =
  let vfs, files = Pdt_workloads.Generator.project_vfs ~n_tus:2 () in
  let pdbs = List.map (compile_pdb vfs) files in
  let merged = D.merge pdbs in
  let s = Pdt_pdb.Pdb_write.to_string merged in
  let s' = Pdt_pdb.Pdb_write.to_string (Pdt_pdb.Pdb_parse.of_string s) in
  Alcotest.(check string) "merged pdb roundtrips" s s'

let test_merge_idempotent () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let pdb = compile_pdb vfs Pdt_workloads.Stack.main_file in
  let m1 = D.merge [ pdb ] in
  let m2 = D.merge [ m1; m1 ] in
  Alcotest.(check int) "merge with self adds nothing" (P.item_count m1)
    (P.item_count m2)

(* Ids are labels.  Rewrite every "pp#N" field of the seed-31 Generator
   project's unit PDBs by an injective map, ids up to 2^40 and beyond
   included: parsed and merged, they give the bytes of the unrelabeled
   merge. *)
let relabel f text =
  let n = String.length text in
  let b = Buffer.create (2 * n) in
  let lower i = i < n && text.[i] >= 'a' && text.[i] <= 'z' in
  let digit i = i < n && text.[i] >= '0' && text.[i] <= '9' in
  let rec go i =
    if i >= n then Buffer.contents b
    else if (i = 0 || text.[i - 1] = ' ' || text.[i - 1] = '\n')
            && lower i && lower (i + 1) && i + 2 < n && text.[i + 2] = '#' && digit (i + 3)
    then begin
      let j = ref (i + 3) in
      while digit !j do incr j done;
      Buffer.add_string b (String.sub text i 3);
      let id = int_of_string (String.sub text (i + 3) (!j - i - 3)) in
      Buffer.add_string b (string_of_int (f id));
      go !j
    end
    else (Buffer.add_char b text.[i]; go (i + 1))
  in
  go 0

let test_merge_relabeled_ids () =
  let cfg = { Pdt_workloads.Generator.default_config with seed = 31 } in
  let vfs, files = Pdt_workloads.Generator.project_vfs ~cfg ~n_tus:24 () in
  let texts = List.map (fun f -> Pdt_pdb.Pdb_write.to_string (compile_pdb vfs f)) files in
  let merged texts =
    Pdt_pdb.Pdb_write.to_string (D.merge (List.map Pdt_pdb.Pdb_parse.of_string texts))
  in
  let want = merged texts in
  List.iter
    (fun (what, f) ->
      Alcotest.(check string) what want (merged (List.map (relabel f) texts)))
    [ ("N * 1000003 + 2^40", fun n -> (n * 1_000_003) + (1 lsl 40));
      ("reversed", fun n -> 1_000_000 - n);
      ("10^9 stride", fun n -> n * 1_000_000_000) ]

let suite =
  [ Alcotest.test_case "Figure 4 hierarchy predicates" `Quick test_hierarchy_predicates;
    Alcotest.test_case "template item list" `Quick test_template_item_list;
    Alcotest.test_case "callees and callers" `Quick test_callees_callers;
    Alcotest.test_case "include tree" `Quick test_include_tree;
    Alcotest.test_case "call tree" `Quick test_call_tree;
    Alcotest.test_case "class hierarchy forest" `Quick test_class_hierarchy_forest;
    Alcotest.test_case "merge dedups instantiations" `Quick test_merge_dedups_instantiations;
    Alcotest.test_case "merge decl + def" `Quick test_merge_declaration_definition;
    Alcotest.test_case "merge reference consistency" `Quick test_merge_consistency;
    Alcotest.test_case "merge output roundtrips" `Quick test_merge_roundtrip;
    Alcotest.test_case "merge idempotent" `Quick test_merge_idempotent;
    Alcotest.test_case "merge of relabeled ids writes the same bytes" `Quick
      test_merge_relabeled_ids ]
