let () =
  Alcotest.run "pdt"
    [ ("lexer", Test_lexer.suite);
      ("preproc", Test_preproc.suite);
      ("parser", Test_parser.suite);
      ("sema", Test_sema.suite);
      ("templates", Test_templates.suite);
      ("analyzer", Test_analyzer.suite);
      ("duchains", Test_duchains.suite);
      ("mhp", Test_mhp.suite);
      ("pdb", Test_pdb.suite);
      ("ductape", Test_ductape.suite);
      ("interp", Test_interp.suite);
      ("tools", Test_tools.suite);
      ("tau", Test_tau.suite);
      ("siloon", Test_siloon.suite);
      ("prelink", Test_prelink.suite);
      ("f90", Test_f90.suite);
      ("properties", Test_properties.suite);
      ("parser-edge", Test_parser_edge.suite);
      ("extensions", Test_extensions.suite);
      ("parallel", Test_parallel.suite);
      ("il", Test_il.suite);
      ("build", Test_build.suite);
      ("faults", Test_faults.suite);
      ("farm", Test_farm.suite);
      ("diag", Test_diag.suite);
      ("fuzz", Test_fuzz.suite);
      ("integration", Test_integration.suite);
      ("java", Test_java.suite);
      ("trace", Test_trace.suite);
      ("golden", Test_golden.suite);
      ("pdb-bin", Test_pdb_bin.suite);
      ("incremental", Test_incremental.suite);
      ("json", Test_json.suite);
      ("pdbd", Test_pdbd.suite);
      ("pdtc", Test_pdtc.suite) ]
