(* Robustness tests: the deterministic fault-injection layer
   (Pdt_util.Fault) and the crash-safety invariants the build pipeline
   must uphold under it.

   The headline is the injection matrix: for a seeded sweep of >= 200
   injection schedules (site set x rate x seed x domain count), a project
   build under fire must either

     - succeed, with a merged PDB byte-identical to the fault-free build,
     - or fail with a structured per-unit diagnostic,

   and in both cases leave no escaped exception, no residual .tmp.* file
   in the cache directory, and no corrupt entry that a later build would
   trust (pinned by a fault-free rebuild over the surviving cache).

   Around the matrix: direct coverage for the self-healing cache
   (truncated / bit-flipped / wrong-key / wrong-version entries are
   quarantined and rebuilt), the retry policy (transient failures retry,
   deterministic diagnostics do not), fail-fast vs keep-going, and the
   Scheduler.parallel_map edge cases. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module S = Pdt_build.Scheduler
module F = Pdt_util.Fault
module G = Pdt_workloads.Generator
module P = Pdt_pdb.Pdb

let pdb_string = Pdt_pdb.Pdb_write.to_string

(* a unique, not-yet-created directory for a test's cache *)
let fresh_dir () =
  let f = Filename.temp_file "pdt-fault-test" ".cache" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* recursive: v4 caches shard entries under objects/<hh>/, and a flat
   copy would seed an empty warm template *)
let rec copy_dir src dst =
  C.mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      let d = Filename.concat dst f in
      if Sys.is_directory s then copy_dir s d
      else begin
        let ic = open_in_bin s in
        let c = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin d in
        output_string oc c;
        close_out oc
      end)
    (Sys.readdir src)

(* every regular file under [dir], any depth *)
let rec walk_files dir acc =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then walk_files p acc else p :: acc)
    acc (Sys.readdir dir)

(* keep the matrix project small: n_tus + 1 = 4 units per build *)
let n_tus = 3

let project () = G.project_vfs ~n_tus ()

let build ?cache_dir ?(retries = 2) ?(fail_fast = false) ~domains
    (vfs, sources) =
  B.build
    ~options:
      { B.default_options with domains; cache_dir; retries; fail_fast }
    ~vfs sources

(* fault-free sequential merged bytes: the byte-identity reference *)
let reference =
  lazy (pdb_string (build ~domains:1 (project ())).B.merged)

let perf_calls name =
  match
    List.find_opt (fun (n, _, _) -> n = name) (Pdt_util.Trace.counters ())
  with
  | Some (_, calls, _) -> calls
  | None -> 0

(* ---------------- the injection matrix ---------------- *)

(* Which cache state a site set needs to actually fire: write-path sites
   need stores (cold cache), read-path sites need entries to load (warm
   cache seeded from a fault-free template). *)
type start = Cold | Warm

let site_sets =
  [ ("vfs.read", Some [ "vfs.read" ], Warm);
    ("cache.read", Some [ "cache.read" ], Warm);
    ("cache.load.corrupt", Some [ "cache.load.corrupt" ], Warm);
    ("pdb.parse", Some [ "pdb.parse" ], Warm);
    ("scheduler.worker", Some [ "scheduler.worker" ], Warm);
    ("cache.write.torn", Some [ "cache.write.torn" ], Cold);
    ("cache.write.crash", Some [ "cache.write.crash" ], Cold);
    (* crash mid define-use pass: fires on the compile path, so a cold
       cache is required; the invariant is the usual one — retry to the
       reference bytes or a structured diagnostic, never a half-written
       attribute *)
    ("analyzer.du", Some [ "analyzer.du" ], Cold);
    ("all", None, Cold) ]

let rates = [ 0.05; 0.25 ]

let matrix_domains =
  (* CI sweeps the matrix under forced domain counts; locally both the
     sequential and a parallel schedule run *)
  match Option.bind (Sys.getenv_opt "PDT_TEST_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> [ n ]
  | _ -> [ 1; 4 ]

(* 9 site sets x 2 rates x seeds x domain counts; sized so a sweep is
   always >= 200 schedules even when CI forces a single domain count *)
let seeds =
  List.init (if List.length matrix_domains = 1 then 13 else 7) (fun i -> i + 1)

let no_residual_tmp dir =
  List.for_all
    (fun path ->
      (* a live entry is objects/<hh>/<key>.pdb; quarantine/ holds failed
         entries; locks/ holds shard locks; nothing else may survive a
         build — checked recursively since v4 shards the entry tree *)
      let f = Filename.basename path in
      let has_sub sub s =
        let ls = String.length sub and ln = String.length s in
        let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
        go 0
      in
      not (has_sub ".tmp." f))
    (walk_files dir [])

(* Run one schedule and return how many faults it injected.  [F.disarm]
   clears the injection counter, so it is captured inside the armed
   window. *)
let check_schedule ~template ~label ~sites ~start ~rate ~seed ~domains () =
  let dir = fresh_dir () in
  (match start with Warm -> copy_dir template dir | Cold -> ());
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  let injected = ref 0 in
  let under_fire =
    try
      F.with_faults ?sites ~seed ~rate (fun () ->
          let r = build ~cache_dir:dir ~domains (project ()) in
          injected := F.injected_count ();
          r)
    with e ->
      F.disarm ();
      fail "%s: escaped exception %s" label (Printexc.to_string e)
  in
  (* 1. every unit resolved to a structured status; failures carry a
     nonempty diagnostic and name their unit *)
  List.iter
    (fun (u : B.unit_result) ->
      match u.B.status with
      | B.Compiled | B.Cached -> ()
      | B.Failed msg ->
          if msg = "" then fail "%s: empty diagnostic for %s" label u.B.source
      | B.Degraded _ ->
          (* I/O faults must surface as Failed, never as a partial PDB *)
          fail "%s: degraded unit on well-formed input" label
      | B.Skipped -> fail "%s: skipped unit without fail-fast" label)
    under_fire.B.units;
  (* 2. success => byte-identical to the fault-free build *)
  if under_fire.B.failed = 0 then begin
    let got = pdb_string under_fire.B.merged in
    if got <> Lazy.force reference then
      fail "%s: clean build diverged from the fault-free PDB" label
  end;
  (* 3. no residual temp file, whatever happened *)
  if Sys.file_exists dir && not (no_residual_tmp dir) then
    fail "%s: residual .tmp.* file in cache dir" label;
  (* 4. the surviving cache serves no corrupt entry: a fault-free build
     over it must converge to the reference bytes *)
  let recovered =
    try build ~cache_dir:dir ~domains:1 (project ())
    with e -> fail "%s: recovery build raised %s" label (Printexc.to_string e)
  in
  if recovered.B.failed <> 0 then
    fail "%s: recovery build failed over the surviving cache" label;
  if pdb_string recovered.B.merged <> Lazy.force reference then
    fail "%s: recovery build diverged from the fault-free PDB" label;
  rm_rf dir;
  !injected

let test_fault_matrix () =
  (* seed a warm-cache template once per run *)
  let template = fresh_dir () in
  let seeded = build ~cache_dir:template ~domains:1 (project ()) in
  Alcotest.(check int) "template build clean" 0 seeded.B.failed;
  let schedules = ref 0 in
  let injected_total = ref 0 in
  List.iter
    (fun (name, sites, start) ->
      List.iter
        (fun rate ->
          List.iter
            (fun seed ->
              List.iter
                (fun domains ->
                  incr schedules;
                  let label =
                    Printf.sprintf "%s rate=%.2f seed=%d domains=%d" name rate
                      seed domains
                  in
                  injected_total :=
                    !injected_total
                    + check_schedule ~template ~label ~sites ~start ~rate ~seed
                        ~domains ())
                matrix_domains)
            seeds)
        rates)
    site_sets;
  rm_rf template;
  Alcotest.(check bool)
    (Printf.sprintf "matrix swept >= 200 schedules (ran %d)" !schedules)
    true (!schedules >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "the sweep was not vacuous (%d faults injected)"
       !injected_total)
    true
    (!injected_total > 0)

(* ---------------- faults mid-incremental-build ---------------- *)

module I = Pdt_build.Incremental

(* The delta-merge invariant under fire: an incremental rebuild hit by
   faults mid-build must never produce a half-spliced PDB.  Either the
   delta path completes (bytes identical to the fault-free build of the
   edited tree), or it falls back to a full remerge cleanly, or units
   report structured failures — but a *successful* result always carries
   exactly the from-scratch bytes, and the surviving cache/state serve a
   convergent fault-free rebuild afterwards. *)

let edited_project () =
  let vfs, sources = project () in
  (match Pdt_util.Vfs.read_raw vfs "tu1.cpp" with
   | Some src ->
       Pdt_util.Vfs.add_file vfs "tu1.cpp"
         (src ^ "\nint fault_matrix_edit() { return 42; }\n")
   | None -> Alcotest.fail "tu1.cpp missing from generated project");
  (vfs, sources)

let edited_reference =
  lazy (pdb_string (build ~domains:1 (edited_project ())).B.merged)

let incr_build ~cache_dir ~domains (vfs, sources) =
  I.build
    ~options:
      { I.default_options with
        build =
          { B.default_options with domains; cache_dir = Some cache_dir } }
    ~vfs sources

let check_incremental_schedule ~label ~sites ~rate ~seed ~domains () =
  let dir = fresh_dir () in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  (* warm, fault-free base build: unit cache + group partials + state *)
  let base = incr_build ~cache_dir:dir ~domains (project ()) in
  if base.I.reanalyzed = 0 then fail "%s: base build reused everything" label;
  let injected = ref 0 in
  (* build the edited tree before arming: Vfs.read_raw is itself a fault
     site, and the harness must not trip it *)
  let edited = edited_project () in
  let under_fire =
    try
      F.with_faults ?sites ~seed ~rate (fun () ->
          let r = incr_build ~cache_dir:dir ~domains edited in
          injected := F.injected_count ();
          r)
    with e ->
      F.disarm ();
      fail "%s: escaped exception %s" label (Printexc.to_string e)
  in
  let failed =
    List.length
      (List.filter
         (fun u ->
           match u.I.disposition with I.Failed _ -> true | _ -> false)
         under_fire.I.units)
  in
  (* 1. the stats always partition the units *)
  if under_fire.I.reanalyzed + under_fire.I.reused
     <> List.length under_fire.I.units
  then fail "%s: reanalyzed + reused <> total" label;
  (* 2. success => byte-identical to the fault-free edited build — a
     half-spliced merge (stale contribution left in, new one lost, group
     double-counted) can never masquerade as success *)
  if failed = 0 then begin
    let got = pdb_string under_fire.I.merged in
    if got <> Lazy.force edited_reference then
      fail "%s: clean incremental build diverged (half-spliced delta?)" label
  end;
  (* 3. no residual temp file from entries, group partials or the state *)
  if Sys.file_exists dir && not (no_residual_tmp dir) then
    fail "%s: residual .tmp.* file in cache dir" label;
  (* 4. the surviving cache + state serve a convergent fault-free rebuild *)
  let recovered =
    try incr_build ~cache_dir:dir ~domains:1 (edited_project ())
    with e -> fail "%s: recovery raised %s" label (Printexc.to_string e)
  in
  if pdb_string recovered.I.merged <> Lazy.force edited_reference then
    fail "%s: recovery diverged from the fault-free PDB" label;
  rm_rf dir;
  !injected

let test_incremental_fault_matrix () =
  let schedules = ref 0 and injected_total = ref 0 in
  List.iter
    (fun (name, sites, _start) ->
      List.iter
        (fun seed ->
          List.iter
            (fun domains ->
              incr schedules;
              let label =
                Printf.sprintf "incr %s seed=%d domains=%d" name seed domains
              in
              injected_total :=
                !injected_total
                + check_incremental_schedule ~label ~sites ~rate:0.25 ~seed
                    ~domains ())
            matrix_domains)
        [ 1; 2; 3 ])
    site_sets;
  Alcotest.(check bool)
    (Printf.sprintf "incremental sweep ran %d schedules" !schedules)
    true (!schedules >= 16);
  Alcotest.(check bool)
    (Printf.sprintf "the sweep was not vacuous (%d faults injected)"
       !injected_total)
    true (!injected_total > 0)

(* a fault that kills the whole delta path must surface as the fallback
   counter plus a full-remerge result, not as an error *)
let test_incremental_fallback_counted () =
  let dir = fresh_dir () in
  ignore (incr_build ~cache_dir:dir ~domains:1 (project ()));
  let before = perf_calls "incr.fallback" in
  (* rate 1.0 on vfs.read: the planner's very first fingerprint read
     faults, which aborts the delta path before any per-unit retry *)
  let edited = edited_project () in
  let r =
    F.with_faults ~sites:[ "vfs.read" ] ~seed:7 ~rate:1.0 ~max_faults:1
      (fun () -> incr_build ~cache_dir:dir ~domains:1 edited)
  in
  Alcotest.(check bool) "fallback taken" true r.I.fallback;
  Alcotest.(check bool) "fallback counted" true
    (perf_calls "incr.fallback" > before);
  Alcotest.(check string) "fallback result is the full-remerge bytes"
    (Lazy.force edited_reference)
    (pdb_string r.I.merged);
  rm_rf dir

(* After a fallback the state must hold every unit that built clean, the
   ones the unit cache served included: the next unchanged run then
   reuses every unit and re-merges only the group holding the edit. *)
let test_quiescent_after_fallback () =
  List.iter
    (fun domains ->
      let dir = fresh_dir () in
      let incr_build (vfs, sources) =
        I.build
          ~options:
            { I.group_size = 2;
              build = { B.default_options with domains; cache_dir = Some dir } }
          ~vfs sources
      in
      ignore (incr_build (project ()));
      let edited = edited_project () in
      let r =
        F.with_faults ~sites:[ "vfs.read" ] ~seed:7 ~rate:1.0 ~max_faults:1
          (fun () -> incr_build edited)
      in
      Alcotest.(check bool) "fallback taken" true r.I.fallback;
      let q = incr_build edited in
      Alcotest.(check (pair int int)) "reanalyzed/reused after a fallback"
        (0, n_tus + 1) (q.I.reanalyzed, q.I.reused);
      Alcotest.(check (pair int int)) "groups reused/re-merged" (1, 1)
        (q.I.groups_reused, q.I.groups_remerged);
      Alcotest.(check string) "bytes" (Lazy.force edited_reference)
        (pdb_string q.I.merged);
      rm_rf dir)
    matrix_domains

(* ---------------- retry policy ---------------- *)

let test_retry_recovers_transient () =
  let before = perf_calls "build.retry" in
  let r =
    F.with_faults ~sites:[ "vfs.read" ] ~seed:1 ~rate:1.0 ~max_faults:1
      (fun () -> build ~domains:1 (project ()))
  in
  Alcotest.(check int) "no failures after retry" 0 r.B.failed;
  Alcotest.(check string) "merged PDB identical" (Lazy.force reference)
    (pdb_string r.B.merged);
  Alcotest.(check bool) "a retry was counted" true
    (perf_calls "build.retry" > before)

let test_retries_are_bounded () =
  (* every vfs read fails: each unit exhausts 1 + retries attempts and
     reports a structured transient diagnostic — no crash, no hang *)
  let r =
    F.with_faults ~sites:[ "vfs.read" ] ~seed:1 ~rate:1.0 (fun () ->
        build ~domains:2 ~retries:1 (project ()))
  in
  Alcotest.(check int) "every unit failed" (n_tus + 1) r.B.failed;
  List.iter
    (fun (_, msg) ->
      Alcotest.(check bool) "diagnostic names the transient" true
        (String.length msg > 0))
    (B.failures r)

let test_deterministic_failure_never_retries () =
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "broken.cpp" (G.broken_unit ~tu_index:9);
  let before = perf_calls "build.retry" in
  let r = build ~domains:1 (vfs, sources @ [ "broken.cpp" ]) in
  Alcotest.(check int) "one unit degraded" 1 r.B.degraded;
  Alcotest.(check int) "no hard failures" 0 r.B.failed;
  Alcotest.(check int) "compile errors burned no retries" before
    (perf_calls "build.retry")

(* ---------------- fail-fast vs keep-going ---------------- *)

let test_fail_fast_skips_rest () =
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "broken.cpp" (G.broken_unit ~tu_index:9);
  let r = build ~domains:1 ~fail_fast:true (vfs, "broken.cpp" :: sources) in
  Alcotest.(check int) "one failure" 1 r.B.failed;
  Alcotest.(check int) "everything after it skipped" (n_tus + 1) r.B.skipped;
  Alcotest.(check int) "nothing compiled" 0 r.B.compiled;
  List.iter
    (fun (u : B.unit_result) ->
      match u.B.status with
      | B.Skipped -> Alcotest.(check bool) "skipped has no pdb" true (u.B.pdb = None)
      | _ -> ())
    r.B.units

(* --incremental --fail-fast stops like the pool: after a broken first
   unit the three good ones are skipped, not compiled.  They get no state
   entry, the result counts them as skipped, and pdbbuild exits 3. *)
let test_incremental_fail_fast_skips_rest () =
  let module I = Pdt_build.Incremental in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sources = G.write_project ~n_tus:2 ~dir () in
  let broken = Filename.concat dir "broken.cpp" in
  let oc = open_out_bin broken in
  output_string oc (G.broken_unit ~tu_index:9);
  close_out oc;
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let cache = Filename.concat dir "cache" in
  let options =
    { I.default_options with
      build =
        { B.default_options with domains = 1; cache_dir = Some cache;
          fail_fast = true } }
  in
  let r = I.build ~options ~vfs (broken :: sources) in
  Alcotest.(check bool) "delta path taken" false r.I.fallback;
  Alcotest.(check (list string)) "first failed, the rest skipped"
    [ "failed"; "skipped"; "skipped"; "skipped" ]
    (List.map
       (fun (u : I.unit_info) ->
         match u.I.disposition with
         | I.Failed _ -> "failed"
         | I.Skipped -> "skipped"
         | _ -> "built")
       r.I.units);
  Alcotest.(check (list int)) "reanalyzed, reused, skipped" [ 1; 0; 3 ]
    [ r.I.reanalyzed; r.I.reused; r.I.skipped ];
  Alcotest.(check int) "no state entries" 0
    (List.length (I.load_state (I.state_path cache)));
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "pdbbuild.exe")
  in
  let log = Filename.concat dir "pdbbuild.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ((exe :: broken :: sources)
         @ [ "--incremental"; "--fail-fast"; "-j"; "1"; "--cache-dir";
             Filename.concat dir "cli-cache"; "-o"; Filename.concat dir "m.pdb" ]))
      Unix.stdin fd fd
  in
  Unix.close fd;
  (match snd (Unix.waitpid [] pid) with
   | Unix.WEXITED c -> Alcotest.(check int) "pdbbuild exits 3" 3 c
   | _ -> Alcotest.fail "pdbbuild did not exit normally");
  let ic = open_in_bin log in
  let out = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "summary counts the skips" true
    (List.mem "1 reanalyzed, 0 reused, 1 failed, 3 skipped"
       (List.map
          (fun l ->
            match String.index_opt l '|' with
            | Some i -> String.trim (String.sub l 0 i)
            | None -> l)
          (String.split_on_char '\n' out)))

let test_keep_going_merges_survivors () =
  let vfs, sources = project () in
  Pdt_util.Vfs.add_file vfs "broken.cpp" (G.broken_unit ~tu_index:9);
  let r = build ~domains:1 (vfs, "broken.cpp" :: sources) in
  Alcotest.(check int) "the broken unit degraded" 1 r.B.degraded;
  Alcotest.(check int) "no hard failures" 0 r.B.failed;
  Alcotest.(check int) "no skips" 0 r.B.skipped;
  (* the merged PDB carries the partial unit: marked incomplete, and at
     least everything the clean reference build has *)
  Alcotest.(check bool) "merged PDB marked incomplete" true
    r.B.merged.Pdt_pdb.Pdb.incomplete;
  let ref_pdb = Pdt_pdb.Pdb_parse.of_string (Lazy.force reference) in
  Alcotest.(check bool) "merge contains at least the reference items" true
    (Pdt_pdb.Pdb.item_count r.B.merged >= Pdt_pdb.Pdb.item_count ref_pdb)

(* ---------------- the self-healing cache ---------------- *)

(* Store one entry, corrupt it with [mutate path], then check: the load is
   a miss, the live entry is gone (quarantined, not re-probed), the
   quarantine holds it, and a re-store serves cleanly again. *)
let corruption_case name mutate () =
  let dir = fresh_dir () in
  let vfs, sources = project () in
  let source = List.hd sources in
  let pdb =
    Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs source).Pdt.program
  in
  let cache = C.create ~dir () in
  let key = C.key ~vfs ~options:"opts" source in
  C.store_serialized cache key (pdb_string pdb);
  (match C.load cache key with
  | Some _ -> ()
  | None -> Alcotest.fail (name ^ ": fresh entry must load"));
  let path = C.entry_path cache key in
  mutate path;
  Alcotest.(check bool) (name ^ " is a miss") true (C.load cache key = None);
  Alcotest.(check bool) (name ^ " left no live entry") false
    (Sys.file_exists path);
  Alcotest.(check bool) (name ^ " was quarantined") true
    (Sys.file_exists
       (Filename.concat (C.quarantine_dir cache) (Filename.basename path)));
  C.store_serialized cache key (pdb_string pdb);
  (match C.load cache key with
  | Some (loaded, _, _) ->
      Alcotest.(check string) (name ^ ": rebuilt entry loads cleanly")
        (pdb_string pdb) (pdb_string loaded)
  | None -> Alcotest.fail (name ^ ": rebuilt entry must load"));
  rm_rf dir

let read_file path =
  let ic = open_in_bin path in
  let c = really_input_string ic (in_channel_length ic) in
  close_in ic;
  c

let write_file path c =
  let oc = open_out_bin path in
  output_string oc c;
  close_out oc

let test_corrupt_truncated =
  corruption_case "truncated entry" (fun path ->
      let c = read_file path in
      write_file path (String.sub c 0 (String.length c / 2)))

let test_corrupt_bitflip =
  corruption_case "bit-flipped entry" (fun path ->
      let c = Bytes.of_string (read_file path) in
      let i = Bytes.length c / 2 in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0x20));
      write_file path (Bytes.to_string c))

let magic_prefix = Printf.sprintf "PDT-CACHE v%d" C.format_version

let test_corrupt_wrong_version =
  corruption_case "wrong-version entry" (fun path ->
      let c = read_file path in
      (* a structurally perfect entry from a future format version: only
         the version number in the header changes *)
      write_file path
        (Printf.sprintf "PDT-CACHE v%d%s" (C.format_version + 1)
           (String.sub c (String.length magic_prefix)
              (String.length c - String.length magic_prefix))))

let test_corrupt_wrong_key () =
  (* a valid entry misfiled under another unit's key *)
  let dir = fresh_dir () in
  let vfs, sources = project () in
  let s1 = List.hd sources and s2 = List.nth sources 1 in
  let pdb =
    Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs s1).Pdt.program
  in
  let cache = C.create ~dir () in
  let k1 = C.key ~vfs ~options:"opts" s1 in
  let k2 = C.key ~vfs ~options:"opts" s2 in
  C.store_serialized cache k1 (pdb_string pdb);
  (* k2 may land in a shard no store has created yet *)
  C.mkdir_p (Filename.dirname (C.entry_path cache k2));
  write_file (C.entry_path cache k2) (read_file (C.entry_path cache k1));
  Alcotest.(check bool) "misfiled entry is a miss" true
    (C.load cache k2 = None);
  Alcotest.(check bool) "misfiled entry quarantined" true
    (Sys.file_exists
       (Filename.concat (C.quarantine_dir cache) (k2 ^ ".pdb")));
  (match C.load cache k1 with
  | Some _ -> ()
  | None -> Alcotest.fail "the correctly-filed entry still loads");
  rm_rf dir

(* Cache entries hold canonical ASCII only.  A PDB-B body under a valid
   header, whole or cut short, passes the digest check, so the ASCII
   parse is the defense: the entry must be a miss and be quarantined,
   with no exception escaping. *)
let test_binary_body_quarantined () =
  let dir = fresh_dir () in
  let vfs, sources = project () in
  let source = List.hd sources in
  let pdb =
    Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs source).Pdt.program
  in
  let cache = C.create ~dir () in
  let key = C.key ~vfs ~options:"opts" source in
  let path = C.entry_path cache key in
  let quarantined = Filename.concat (C.quarantine_dir cache) (Filename.basename path) in
  let body = Pdt_pdb.Pdb_bin.to_string pdb in
  C.mkdir_p (Filename.dirname path);
  List.iter
    (fun frac ->
      let what =
        if frac = 1 then "whole PDB-B body"
        else Printf.sprintf "1/%d PDB-B body" frac
      in
      let cut = String.sub body 0 (String.length body / frac) in
      (try Sys.remove quarantined with Sys_error _ -> ());
      write_file path (C.header key (Pdt_util.Hashutil.string cut) ^ "\n" ^ cut);
      (match C.load cache key with
      | None -> ()
      | Some _ -> Alcotest.failf "%s loaded from the cache" what
      | exception e ->
          Alcotest.failf "%s: %s escaped the load" what (Printexc.to_string e));
      Alcotest.(check bool) (what ^ " left no live entry") false
        (Sys.file_exists path);
      Alcotest.(check bool) (what ^ " was quarantined") true
        (Sys.file_exists quarantined))
    [ 1; 2; 4; 16 ];
  C.store_serialized cache key (pdb_string pdb);
  (match C.load cache key with
  | Some (loaded, _, digest) ->
      Alcotest.(check string) "ASCII entry stored over it loads"
        (pdb_string pdb) (pdb_string loaded);
      Alcotest.(check string) "with its PDB's digest"
        (Pdt_pdb.Pdb_digest.of_pdb pdb) digest
  | None -> Alcotest.fail "ASCII entry stored over it must load");
  rm_rf dir

let test_corrupt_counter_reported () =
  let before = perf_calls "cache.corrupt" in
  corruption_case "counted corruption" (fun path ->
      write_file path "garbage, not a cache entry")
    ();
  Alcotest.(check bool) "cache.corrupt counter advanced" true
    (perf_calls "cache.corrupt" > before)

let test_torn_write_heals () =
  let dir = fresh_dir () in
  let vfs, sources = project () in
  let source = List.hd sources in
  let pdb =
    Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs source).Pdt.program
  in
  let cache = C.create ~dir () in
  let key = C.key ~vfs ~options:"opts" source in
  F.with_faults ~sites:[ "cache.write.torn" ] ~seed:1 ~rate:1.0 ~max_faults:1
    (fun () -> C.store_serialized cache key (pdb_string pdb));
  Alcotest.(check bool) "torn entry reached the final path" true
    (Sys.file_exists (C.entry_path cache key));
  Alcotest.(check bool) "torn entry is a miss" true (C.load cache key = None);
  Alcotest.(check bool) "torn entry quarantined" false
    (Sys.file_exists (C.entry_path cache key));
  C.store_serialized cache key (pdb_string pdb);
  Alcotest.(check bool) "healed entry loads" true (C.load cache key <> None);
  rm_rf dir

let test_crashed_write_leaves_no_tmp () =
  let dir = fresh_dir () in
  let vfs, sources = project () in
  let source = List.hd sources in
  let pdb =
    Pdt_analyzer.Analyzer.run (Pdt.compile_exn ~vfs source).Pdt.program
  in
  let cache = C.create ~dir () in
  let key = C.key ~vfs ~options:"opts" source in
  (try
     F.with_faults ~sites:[ "cache.write.crash" ] ~seed:1 ~rate:1.0
       ~max_faults:1 (fun () -> C.store_serialized cache key (pdb_string pdb))
   with F.Injected _ -> ());
  Alcotest.(check bool) "no entry written" false
    (Sys.file_exists (C.entry_path cache key));
  Alcotest.(check bool) "no residual tmp file" true (no_residual_tmp dir);
  rm_rf dir

let test_mkdir_p_nested () =
  (* --cache-dir more than two missing levels deep must just work *)
  let base = fresh_dir () in
  let deep = Filename.concat (Filename.concat (Filename.concat base "a") "b") "c" in
  let vfs, sources = project () in
  let r = build ~cache_dir:deep ~domains:1 (vfs, sources) in
  Alcotest.(check int) "build into a/b/c cache is clean" 0 r.B.failed;
  Alcotest.(check bool) "entries actually stored" true
    (Sys.file_exists deep
     && List.exists
          (fun f -> Filename.check_suffix f ".pdb")
          (walk_files deep []));
  let warm = build ~cache_dir:deep ~domains:1 (project ()) in
  Alcotest.(check int) "warm build all cached" (n_tus + 1) warm.B.cached;
  rm_rf base

let test_concurrent_processes_share_cache () =
  (* two pdbbuild processes racing on one cache dir, both cold: every
     unit's entry is stored twice, concurrently.  With pid-qualified temp
     names neither process can write the other's temp file, so the final
     entries are whole, both builds exit 0, and a third (in-process) build
     over the shared cache is fully served from it. *)
  (* main.exe lives in _build/default/test; the driver in _build/default/bin
     (a declared dep of this test).  Resolve from the test binary, not the
     cwd, so dune exec and dune runtest both find it. *)
  let exe =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      (Filename.concat "bin" "pdbbuild.exe")
  in
  let dir = fresh_dir () in
  C.mkdir_p dir;
  let cache = Filename.concat dir "cache" in
  let sources = G.write_project ~n_tus ~dir () in
  let spawn out =
    let log = Unix.openfile (out ^ ".log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    let pid =
      Unix.create_process exe
        (Array.of_list
           ((exe :: sources)
           @ [ "-o"; out; "--cache-dir"; cache; "-j"; "2" ]))
        Unix.stdin log log
    in
    Unix.close log;
    pid
  in
  let out1 = Filename.concat dir "m1.pdb"
  and out2 = Filename.concat dir "m2.pdb" in
  let p1 = spawn out1 in
  let p2 = spawn out2 in
  let code pid =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s -> Alcotest.fail (Printf.sprintf "killed by signal %d" s)
    | Unix.WSTOPPED _ -> Alcotest.fail "stopped"
  in
  Alcotest.(check int) "first process exits clean" 0 (code p1);
  Alcotest.(check int) "second process exits clean" 0 (code p2);
  Alcotest.(check string) "both processes produced identical bytes"
    (read_file out1) (read_file out2);
  Alcotest.(check bool) "no residual tmp file" true (no_residual_tmp cache);
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let r = build ~cache_dir:cache ~domains:1 (vfs, sources) in
  Alcotest.(check int) "shared cache serves everything" (n_tus + 1) r.B.cached;
  Alcotest.(check string) "and the same bytes" (read_file out1)
    (pdb_string r.B.merged);
  rm_rf dir

(* ---------------- vfs disk races ---------------- *)

let test_vfs_vanished_file_is_none () =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let path = Filename.temp_file "pdt-fault-vfs" ".h" in
  Sys.remove path;
  (* exists-check passed long ago, file is gone now: must be None *)
  Alcotest.(check bool) "vanished file reads as None" true
    (Pdt_util.Vfs.read_raw vfs path = None)

let test_vfs_directory_is_none () =
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  Alcotest.(check bool) "directory reads as None" true
    (Pdt_util.Vfs.read_raw vfs "." = None)

(* ---------------- scheduler edge cases ---------------- *)

let test_scheduler_empty_input () =
  List.iter
    (fun domains ->
      Alcotest.(check int)
        (Printf.sprintf "empty input, %d domains" domains)
        0
        (Array.length (S.parallel_map ~domains (fun x -> x) [||])))
    [ 1; 4 ]

let test_scheduler_more_domains_than_items () =
  let items = [| 10; 20; 30 |] in
  let r = S.parallel_map ~domains:8 (fun x -> x + 1) items in
  Alcotest.(check int) "three slots" 3 (Array.length r);
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (items.(i) + 1) v
      | Error _ -> Alcotest.fail "unexpected error slot")
    r

let test_scheduler_order_deterministic_across_domains () =
  let items = Array.init 64 (fun i -> i) in
  let f i = (i * 37) + (i mod 5) in
  let runs =
    List.map (fun d -> S.parallel_map ~domains:d f items) [ 1; 2; 8 ]
  in
  let as_list r =
    Array.to_list r
    |> List.map (function Ok v -> v | Error _ -> Alcotest.fail "error slot")
  in
  match runs with
  | [ a; b; c ] ->
      Alcotest.(check (list int)) "1 = 2 domains" (as_list a) (as_list b);
      Alcotest.(check (list int)) "1 = 8 domains" (as_list a) (as_list c)
  | _ -> assert false

let test_scheduler_worker_fault_isolated () =
  let items = Array.init 16 (fun i -> i) in
  (* exactly two occurrences fault: with one domain those are the first
     two slots; with more domains the count still holds *)
  let r =
    F.with_faults ~sites:[ "scheduler.worker" ] ~seed:1 ~rate:1.0 ~max_faults:2
      (fun () -> S.parallel_map ~domains:1 (fun i -> i) items)
  in
  Array.iteri
    (fun i -> function
      | Error (F.Injected _) ->
          Alcotest.(check bool) "faulted slot is an early one" true (i < 2)
      | Error e -> Alcotest.fail (Printexc.to_string e)
      | Ok v -> Alcotest.(check int) "clean slot" i v)
    r;
  let par =
    F.with_faults ~sites:[ "scheduler.worker" ] ~seed:1 ~rate:1.0 ~max_faults:2
      (fun () -> S.parallel_map ~domains:4 (fun i -> i) items)
  in
  let errors =
    Array.to_list par
    |> List.filter (function Error _ -> true | Ok _ -> false)
    |> List.length
  in
  Alcotest.(check int) "exactly two faulted slots under 4 domains" 2 errors

let test_scheduler_cancellation () =
  let stop = Atomic.make false in
  let items = Array.init 10 (fun i -> i) in
  let r =
    S.parallel_map ~domains:1
      ~should_stop:(fun () -> Atomic.get stop)
      (fun i ->
        if i = 0 then Atomic.set stop true;
        i)
      items
  in
  (match r.(0) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "slot 0 ran before the stop");
  Array.iteri
    (fun i slot ->
      if i > 0 then
        match slot with
        | Error S.Cancelled -> ()
        | _ -> Alcotest.fail (Printf.sprintf "slot %d should be cancelled" i))
    r

(* ---------------- pdbd: daemon killed mid-reload ---------------- *)

(* The serve.reload fault site fires inside Snapshot.reload, after the
   request is accepted but before the new snapshot is published — the
   in-process stand-in for a daemon killed mid-reload.  The invariants:
   the client gets a structured reload-failed reply (or clean EOF if the
   stop races the reply), the old snapshot keeps answering, stopping the
   daemon unlinks the socket, and the incremental state file is intact —
   a fresh daemon over the same project reuses every unit. *)
let test_daemon_killed_mid_reload () =
  let cache_dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir; F.disarm ()) @@ fun () ->
  let vfs, sources = project () in
  let options =
    { Pdt_build.Incremental.default_options with
      build = { B.default_options with cache_dir = Some cache_dir } }
  in
  let holder =
    Pdt_serve.Snapshot.load (Pdt_serve.Snapshot.Project { vfs; sources; options })
  in
  let n_units = List.length sources in
  let socket = Filename.temp_file "pdbd-fault" ".sock" in
  Sys.remove socket;
  let config = { Pdt_serve.Daemon.default_config with socket_path = socket } in
  let t = Pdt_serve.Daemon.start ~config holder in
  let rec connect tries =
    match Pdt_serve.Client.connect socket with
    | c -> c
    | exception _ when tries > 0 ->
        ignore (Unix.select [] [] [] 0.02);
        connect (tries - 1)
  in
  let c = connect 200 in
  let reply_of = function
    | Some line -> Pdt_util.Json.parse line
    | None -> Error "connection dropped"
  in
  let is_ok = function
    | Ok j -> Pdt_util.Json.member "ok" j = Some (Pdt_util.Json.Bool true)
    | Error _ -> false
  in
  (* 1: reload dies at the fault site; the reply is structured and the
     daemon keeps serving generation 1 *)
  F.arm ~sites:[ "serve.reload" ] ~seed:7 ~rate:1.0 ();
  let r = reply_of (Pdt_serve.Client.request c {|{"id":1,"verb":"reload"}|}) in
  F.disarm ();
  (match r with
   | Ok j ->
       Alcotest.(check bool) "reload failed structurally" false
         (Pdt_util.Json.member "ok" j = Some (Pdt_util.Json.Bool true));
       (match
          Option.bind (Pdt_util.Json.member "error" j) (fun e ->
              Pdt_util.Json.member "code" e)
        with
        | Some (Pdt_util.Json.Str "reload-failed") -> ()
        | _ -> Alcotest.fail "expected code reload-failed")
   | Error e -> Alcotest.failf "no structured reply: %s" e);
  Alcotest.(check bool) "old snapshot still serves" true
    (is_ok (reply_of (Pdt_serve.Client.request c {|{"id":2,"verb":"ping"}|})));
  Alcotest.(check int) "still generation 1" 1
    (Pdt_serve.Snapshot.current holder).Pdt_serve.Snapshot.gen;
  (* 2: kill the daemon while a reload is dying at the same site *)
  F.arm ~sites:[ "serve.reload" ] ~seed:8 ~rate:1.0 ();
  Pdt_serve.Client.send_line c {|{"id":3,"verb":"reload"}|};
  Pdt_serve.Daemon.stop t;
  F.disarm ();
  (* the in-flight reply either arrived (structured) or the socket
     closed cleanly — never a hang, never a half-line *)
  (match Pdt_serve.Client.recv_line c with
   | None -> ()
   | Some line -> (
       match Pdt_util.Json.parse line with
       | Ok _ -> ()
       | Error e -> Alcotest.failf "torn reply after kill: %S (%s)" line e));
  Pdt_serve.Client.close c;
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists socket);
  (* 3: the state files survived — a fresh daemon over the same project
     reuses every unit instead of reanalyzing *)
  let holder2 =
    Pdt_serve.Snapshot.load (Pdt_serve.Snapshot.Project { vfs; sources; options })
  in
  (match Pdt_serve.Snapshot.reload holder2 with
   | Ok (_, stats) ->
       Alcotest.(check int) "no unit reanalyzed" 0 stats.Pdt_serve.Snapshot.reanalyzed;
       Alcotest.(check int) "every unit reused" n_units
         stats.Pdt_serve.Snapshot.reused
   | Error e -> Alcotest.failf "state files damaged: fresh reload failed: %s" e)

(* ---------------- fault layer determinism ---------------- *)

let test_fault_schedule_deterministic () =
  let record () =
    F.with_faults ~sites:[ "x" ] ~seed:42 ~rate:0.3 (fun () ->
        List.init 50 (fun _ -> F.should "x"))
  in
  Alcotest.(check (list bool)) "same seed, same schedule" (record ()) (record ());
  let other =
    F.with_faults ~sites:[ "x" ] ~seed:43 ~rate:0.3 (fun () ->
        List.init 50 (fun _ -> F.should "x"))
  in
  Alcotest.(check bool) "different seed, different schedule" true
    (other <> record ())

let test_fault_disarmed_is_inert () =
  Alcotest.(check bool) "should is false when disarmed" false (F.should "x");
  F.check "x";
  (* and sites not in the armed set never fire *)
  F.with_faults ~sites:[ "only.this" ] ~seed:1 ~rate:1.0 (fun () ->
      Alcotest.(check bool) "unarmed site is inert" false (F.should "other");
      Alcotest.(check bool) "armed site fires" true (F.should "only.this"))

(* ---------------- environment-carried schedules ---------------- *)

let test_fault_spec_roundtrip () =
  let spec =
    F.spec_string ~sites:[ "a"; "b" ] ~max_faults:3 ~skip:17 ~seed:42
      ~rate:0.25 ()
  in
  (match F.parse_spec spec with
  | Ok (Some (42, r, Some [ "a"; "b" ], Some 3, 17))
    when Float.abs (r -. 0.25) < 1e-9 ->
      ()
  | _ -> Alcotest.failf "spec did not round-trip: %s" spec);
  (match F.parse_spec "" with
  | Ok None -> ()
  | _ -> Alcotest.fail "empty spec must parse as no schedule");
  (match F.parse_spec "seed=1;rate=0.5" with
  | Ok (Some (1, _, None, None, 0)) -> ()
  | _ -> Alcotest.fail "minimal spec defaults skip to 0");
  List.iter
    (fun bad ->
      match F.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed spec %S accepted" bad)
    [ "rate=0.5"; "seed=1"; "seed=1;rate=2.0"; "seed=x;rate=0.5";
      "seed=1;rate=0.5;skip=-1"; "seed=1;rate=0.5;bogus=1" ];
  (* later fields win on duplicates — the farm driver relies on this to
     append a fresh skip= per worker spawn without parsing the spec *)
  match F.parse_spec "seed=1;rate=0.5;skip=3;skip=9" with
  | Ok (Some (_, _, _, _, 9)) -> ()
  | _ -> Alcotest.fail "later skip= must win"

let test_fault_skip_shifts_window () =
  (* arming with skip=k must judge occurrence n as occurrence n+k: the
     respawned-worker contract that keeps a seeded kill schedule from
     replaying its fatal prefix on every successor process *)
  let sample ~skip n =
    F.arm ~sites:[ "w" ] ~skip ~seed:5 ~rate:0.3 ();
    let l = List.init n (fun _ -> F.should "w") in
    F.disarm ();
    l
  in
  let full = sample ~skip:0 30 in
  let shifted = sample ~skip:10 20 in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  Alcotest.(check (list bool)) "skip k == occurrences k+1.." (drop 10 full)
    shifted

let suite =
  [ Alcotest.test_case "injection matrix: >=200 seeded schedules" `Slow
      test_fault_matrix;
    Alcotest.test_case "incremental matrix: no half-spliced delta" `Slow
      test_incremental_fault_matrix;
    Alcotest.test_case "incremental: delta-path fault falls back cleanly"
      `Quick test_incremental_fallback_counted;
    Alcotest.test_case "incremental: quiescent run after a fallback" `Quick
      test_quiescent_after_fallback;
    Alcotest.test_case "retry recovers a transient fault" `Quick
      test_retry_recovers_transient;
    Alcotest.test_case "retries are bounded, failure is structured" `Quick
      test_retries_are_bounded;
    Alcotest.test_case "compile errors never retry" `Quick
      test_deterministic_failure_never_retries;
    Alcotest.test_case "fail-fast skips the rest" `Quick
      test_fail_fast_skips_rest;
    Alcotest.test_case "incremental fail-fast skips the rest" `Quick
      test_incremental_fail_fast_skips_rest;
    Alcotest.test_case "keep-going merges the survivors" `Quick
      test_keep_going_merges_survivors;
    Alcotest.test_case "truncated entry quarantined and rebuilt" `Quick
      test_corrupt_truncated;
    Alcotest.test_case "bit-flipped entry quarantined and rebuilt" `Quick
      test_corrupt_bitflip;
    Alcotest.test_case "wrong-version entry quarantined and rebuilt" `Quick
      test_corrupt_wrong_version;
    Alcotest.test_case "wrong-key entry quarantined, right key intact" `Quick
      test_corrupt_wrong_key;
    Alcotest.test_case "a PDB-B body in a cache entry is quarantined" `Quick
      test_binary_body_quarantined;
    Alcotest.test_case "corruption shows in the cache.corrupt counter" `Quick
      test_corrupt_counter_reported;
    Alcotest.test_case "torn write self-heals" `Quick test_torn_write_heals;
    Alcotest.test_case "crashed write leaves no tmp file" `Quick
      test_crashed_write_leaves_no_tmp;
    Alcotest.test_case "cache dir a/b/c is created recursively" `Quick
      test_mkdir_p_nested;
    Alcotest.test_case "two processes share one cache dir safely" `Quick
      test_concurrent_processes_share_cache;
    Alcotest.test_case "vfs: vanished file is None, not a crash" `Quick
      test_vfs_vanished_file_is_none;
    Alcotest.test_case "vfs: directory path is None" `Quick
      test_vfs_directory_is_none;
    Alcotest.test_case "scheduler: empty input" `Quick
      test_scheduler_empty_input;
    Alcotest.test_case "scheduler: more domains than items" `Quick
      test_scheduler_more_domains_than_items;
    Alcotest.test_case "scheduler: slot order deterministic (1/2/8)" `Quick
      test_scheduler_order_deterministic_across_domains;
    Alcotest.test_case "scheduler: injected worker faults stay per-slot" `Quick
      test_scheduler_worker_fault_isolated;
    Alcotest.test_case "scheduler: cancellation marks remaining slots" `Quick
      test_scheduler_cancellation;
    Alcotest.test_case "daemon killed mid-reload" `Quick
      test_daemon_killed_mid_reload;
    Alcotest.test_case "fault schedules are seed-deterministic" `Quick
      test_fault_schedule_deterministic;
    Alcotest.test_case "disarmed fault layer is inert" `Quick
      test_fault_disarmed_is_inert;
    Alcotest.test_case "PDT_FAULT_SPEC round-trips and rejects garbage" `Quick
      test_fault_spec_roundtrip;
    Alcotest.test_case "skip= offsets the occurrence window" `Quick
      test_fault_skip_shifts_window ]
