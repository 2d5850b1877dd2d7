(* The build-farm battery (PR 9): wire protocol, supervisor policy, and
   the worker-process fault axis of the robustness matrix.

   The headline is the farm injection matrix: >= 200 seeded schedules
   (site set x rate x seed x farm size) where pdbworker processes are
   SIGKILLed mid-unit, wedge (stop heartbeating), or tear their Result
   frame mid-write.  Every schedule must end in a merged PDB
   byte-identical to the fault-free reference or a clean per-unit
   diagnostic — never a hang, never an escaped exception, never a
   half-written cache entry — with respawns inside the configured
   budget, and the surviving shared cache must serve a convergent
   fault-free rebuild.

   Around the matrix: Farm_proto encode/decode round-trips and frame
   assembly, directed single-crash recovery per fault site (seed chosen
   so only the first worker life faults), the respawn-budget /
   pool-exhaustion path, Farm_unavailable, the shared
   Scheduler.reconcile lost-slot policy, and cross-process cache
   integrity: two concurrent `pdbbuild --farm` drivers on one cache
   directory, plus a seeded torn-write whose entry the next driver must
   quarantine. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module S = Pdt_build.Scheduler
module F = Pdt_util.Fault
module FP = Pdt_build.Farm_proto
module Farm = Pdt_build.Farm
module G = Pdt_workloads.Generator

let pdb_string = Pdt_pdb.Pdb_write.to_string

let fresh_dir () =
  let f = Filename.temp_file "pdt-farm-test" ".cache" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec walk_files dir acc =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then walk_files p acc else p :: acc)
    acc (Sys.readdir dir)

let no_residual_tmp dir =
  (not (Sys.file_exists dir))
  || List.for_all
       (fun path ->
         let f = Filename.basename path in
         let has_sub sub s =
           let ls = String.length sub and ln = String.length s in
           let rec go i =
             i + ls <= ln && (String.sub s i ls = sub || go (i + 1))
           in
           go 0
         in
         not (has_sub ".tmp." f))
       (walk_files dir [])

let read_file path =
  let ic = open_in_bin path in
  let c = really_input_string ic (in_channel_length ic) in
  close_in ic;
  c

let perf_calls name =
  match
    List.find_opt (fun (n, _, _) -> n = name) (Pdt_util.Trace.counters ())
  with
  | Some (_, calls, _) -> calls
  | None -> 0

let n_tus = 3

let project () = G.project_vfs ~n_tus ()

let build ?cache_dir ?(retries = 2) ~domains (vfs, sources) =
  B.build
    ~options:{ B.default_options with domains; cache_dir; retries }
    ~vfs sources

(* fault-free in-process merged bytes: the byte-identity reference for
   every farm build of the same project *)
let reference = lazy (pdb_string (build ~domains:1 (project ())).B.merged)

(* tight supervisor timings so crash/wedge schedules stay fast; liveness
   still generous next to the ~ms worker startup and unit cost *)
let farm_config ?(workers = 2) ?(max_respawns = 16) () =
  { Farm.default_config with
    workers;
    max_respawns;
    heartbeat_ms = 10;
    liveness_timeout = 0.6;
    unit_deadline = 30.0;
    backoff_initial = 0.01;
    backoff_max = 0.05 }

let farm_build ?(config = farm_config ()) ?cache_dir ?(retries = 2)
    (vfs, sources) =
  Farm.build ~config
    ~options:{ B.default_options with cache_dir; retries }
    ~vfs sources

(* Fault schedules reach worker processes through the environment; the
   variable cannot be unset portably, so "off" is the empty string (which
   both the driver and Fault.arm_from_env treat as no schedule). *)
let with_fault_env ?max_faults ~sites ~seed ~rate f =
  Unix.putenv F.env_var (F.spec_string ~sites ?max_faults ~seed ~rate ());
  Fun.protect ~finally:(fun () -> Unix.putenv F.env_var "") f

(* the worker binary, resolved exactly like the test driver binary in
   test_faults: from the test executable's sibling bin/ directory *)
let worker_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pdbworker.exe")

let pdbbuild_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "pdbbuild.exe")

(* ---------------- wire protocol ---------------- *)

let sample_config () =
  let vfs, _ = project () in
  FP.config
    { B.default_options with cache_dir = Some "/tmp/x"; retries = 3 }
    ~vfs ~heartbeat_ms:40

let result ?(id = 0) ?pdb ?(seconds = 0.0) ?(deps = [])
    ?(cone_truncated = false) status =
  FP.Result { id; status; pdb; seconds; deps; cone_truncated }

let test_proto_roundtrip () =
  let check m =
    if FP.decode (FP.encode m) <> m then
      Alcotest.fail "message did not round-trip"
  in
  check (sample_config ());
  check (FP.Hello { version = FP.version; pid = 12345 });
  check (FP.Unit { id = 7; source = "tu1.cpp" });
  check
    (result ~id:7 ~pdb:"PDB 1.0\n" ~seconds:0.03125
       ~deps:[ "tu1.cpp"; "generated.h" ] B.Compiled);
  check
    (result ~id:9 ~seconds:1.5e-3 ~cone_truncated:true (B.Failed "it broke"));
  check (FP.Heartbeat { unit_id = FP.no_unit });
  check FP.Quit;
  (* hex-float seconds survive exactly, including awkward values *)
  List.iter
    (fun s ->
      match FP.decode (FP.encode (result ~seconds:s B.Cached)) with
      | FP.Result { seconds; _ } ->
          Alcotest.(check (float 0.0)) "seconds exact" s seconds
      | _ -> Alcotest.fail "wrong tag back")
    [ 0.0; 0.1; 1.0 /. 3.0; 12.345678901234567 ]

let test_proto_status_roundtrip () =
  List.iter
    (fun status ->
      match FP.decode (FP.encode (result status)) with
      | FP.Result r when r.status = status -> ()
      | _ -> Alcotest.fail "a Build.status did not round-trip")
    [ B.Compiled; B.Cached; B.Degraded "a.cpp:2:10: error: expected type";
      B.Failed "it broke"; B.Skipped ]

(* MD5s of encoded frames, computed when Config and Result still had
   their own copies of the build options and statuses: carrying Build's
   types moved no byte of protocol version 2. *)
let test_proto_bytes_pinned () =
  let md5 m = Digest.to_hex (Digest.string (FP.encode m)) in
  let config =
    FP.Config
      { options =
          { B.default_options with
            cache_dir = Some "/tmp/pdt-cache";
            retries = 3;
            fail_fast = true;
            sema =
              { Pdt_sema.Sema.instantiate_used = false;
                map_specializations = true };
            mapping = Pdt_analyzer.Analyzer.Il_ids;
            limits =
              { Pdt_util.Limits.default_budgets with
                max_errors = 7;
                max_include_depth = 9 } };
        include_paths = [ "inc"; "/usr/include/x" ];
        disk_fallback = true;
        files =
          [ ("a.cpp", "#include \"a.h\"\nint main() { return a(); }\n");
            ("inc/a.h", "int a() { return 1; }\n") ];
        heartbeat_ms = 40 }
  in
  Alcotest.(check string) "Config frame" "74fdc79dc5cbe221b5b5f7cbd49b836d"
    (md5 config);
  Alcotest.(check string) "Result frame" "509792e1fff4069b9a58030dce59f14f"
    (md5
       (result ~id:7
          ~pdb:"<PDB 1.1 incomplete 1>\n\nso#1 a.cpp\n"
          ~seconds:0.03125 ~deps:[ "a.cpp"; "inc/a.h" ] ~cone_truncated:true
          (B.Degraded "a.cpp:2:10: error: expected type but found '{'")));
  List.iter
    (fun (status, pinned) ->
      Alcotest.(check string) "Result frame per status" pinned
        (md5 (result ~id:3 ~seconds:1.5 ~deps:[ "b.cpp" ] status)))
    [ (B.Compiled, "b5e4f8e74daf0537168e047b1fe33889");
      (B.Cached, "0ea85a6b9089293f541963c317bcb89a");
      (B.Degraded "degraded", "c3c53b13afccefbd6bbdf728afcd00bb");
      (B.Failed "failed", "556d0b80e5afaeaebbd4517e36cc492c") ]

let test_proto_rejects_malformed () =
  let rejects what payload =
    match FP.decode payload with
    | exception FP.Proto_error _ -> ()
    | _ -> Alcotest.failf "%s decoded instead of failing" what
  in
  rejects "empty frame" "";
  rejects "unknown tag" "Zjunk";
  rejects "trailing bytes" (FP.encode FP.Quit ^ "x");
  let unit_frame = FP.encode (FP.Unit { id = 3; source = "a.cpp" }) in
  rejects "truncated body" (String.sub unit_frame 0 (String.length unit_frame - 2));
  (* a Config from a different protocol version is refused outright *)
  let cfg = FP.encode (sample_config ()) in
  let skewed = Bytes.of_string cfg in
  Bytes.set skewed 1 (Char.chr (FP.version + 1));
  rejects "version skew" (Bytes.to_string skewed)

let frame payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_string b payload;
  Buffer.contents b

let test_assembler_reassembles_byte_stream () =
  let payloads =
    [ FP.encode (FP.Hello { version = 1; pid = 1 });
      FP.encode (FP.Heartbeat { unit_id = 2 });
      FP.encode (result ~id:2 ~pdb:"x" ~seconds:0.5 B.Compiled) ]
  in
  let stream = String.concat "" (List.map frame payloads) in
  let asm = FP.Assembler.create () in
  let out = ref [] in
  (* worst-case chunking: one byte at a time *)
  String.iter
    (fun ch ->
      FP.Assembler.feed asm (Bytes.make 1 ch) 1;
      let rec drain () =
        match FP.Assembler.next asm with
        | Some p ->
            out := p :: !out;
            drain ()
        | None -> ()
      in
      drain ())
    stream;
  Alcotest.(check (list string)) "frames reassembled in order" payloads
    (List.rev !out);
  (* a torn trailing frame stays pending, never surfaces *)
  let torn = frame "abcdef" in
  FP.Assembler.feed asm
    (Bytes.of_string (String.sub torn 0 7))
    7;
  Alcotest.(check bool) "torn frame pending" true (FP.Assembler.next asm = None)

let test_assembler_rejects_absurd_length () =
  let asm = FP.Assembler.create () in
  let bogus = Bytes.of_string "\xff\xff\xff\x7f" in
  FP.Assembler.feed asm bogus 4;
  match FP.Assembler.next asm with
  | exception FP.Proto_error _ -> ()
  | _ -> Alcotest.fail "oversized length prefix must be a protocol error"

(* ---------------- the farm as a drop-in Build.build ---------------- *)

let test_farm_matches_inprocess_build () =
  let dir = fresh_dir () in
  let r = farm_build ~config:(farm_config ~workers:3 ()) ~cache_dir:dir (project ()) in
  Alcotest.(check int) "no failures" 0 r.B.failed;
  Alcotest.(check int) "every unit compiled" (n_tus + 1) r.B.compiled;
  Alcotest.(check string) "farm bytes == Domain-pool bytes"
    (Lazy.force reference) (pdb_string r.B.merged);
  Alcotest.(check bool) "cache populated under objects/" true
    (Sys.file_exists (Filename.concat dir "objects"));
  Alcotest.(check bool) "no residual tmp" true (no_residual_tmp dir);
  (* a second farm over the same cache is served from it *)
  let warm = farm_build ~cache_dir:dir (project ()) in
  Alcotest.(check int) "warm farm build all cached" (n_tus + 1) warm.B.cached;
  Alcotest.(check string) "warm bytes identical" (Lazy.force reference)
    (pdb_string warm.B.merged);
  rm_rf dir

let test_farm_single_worker () =
  let r = farm_build ~config:(farm_config ~workers:1 ()) (project ()) in
  Alcotest.(check int) "no failures" 0 r.B.failed;
  Alcotest.(check string) "single-worker farm identical" (Lazy.force reference)
    (pdb_string r.B.merged)

let test_farm_without_cache () =
  let r = farm_build (project ()) in
  Alcotest.(check int) "no failures" 0 r.B.failed;
  Alcotest.(check string) "cacheless farm identical" (Lazy.force reference)
    (pdb_string r.B.merged)

(* The digests a --farm 2 build hands the merge: taken from the Result
   frame's payload, and always that PDB's own. *)
let test_farm_merge_digests () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let vfs, sources = project () in
  let build () =
    Farm.build ~config:(farm_config ~workers:2 ())
      ~options:{ B.default_options with cache_dir = Some dir }
      ~vfs sources
  in
  let cold = build () in
  let warm = build () in
  Alcotest.(check int) "warm: all cached" (n_tus + 1) warm.B.cached;
  List.iter
    (fun (what, r) ->
      Alcotest.(check int) (what ^ ": no failures") 0 r.B.failed;
      Alcotest.(check string) (what ^ ": farm bytes == Domain-pool bytes")
        (Lazy.force reference) (pdb_string r.B.merged);
      Test_build.check_merge_digests what r)
    [ ("cold", cold); ("warm", warm) ]

(* A unit the cache served reaches the driver with its cache entry's
   body: the worker ships the bytes Cache.load verified. *)
let test_cached_unit_ships_entry_body () =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let vfs, sources = project () in
  let options = { B.default_options with cache_dir = Some dir } in
  let build () = Farm.build ~config:(farm_config ()) ~options ~vfs sources in
  ignore (build ());
  let warm = build () in
  Alcotest.(check int) "warm: all cached" (n_tus + 1) warm.B.cached;
  let cache = C.create ~dir () in
  List.iter
    (fun (u : B.unit_result) ->
      let key =
        C.key ~vfs ~options:(B.options_fingerprint options u.B.source)
          u.B.source
      in
      let body =
        Option.bind (C.read_file (C.entry_path cache key)) (C.verify_content key)
      in
      Alcotest.(check bool) (u.B.source ^ ": entry present") true (body <> None);
      Alcotest.(check (option string)) (u.B.source ^ ": bytes = entry body")
        body u.B.bytes;
      Alcotest.(check (option string)) (u.B.source ^ ": digest of the bytes")
        (Option.map Pdt_util.Hashutil.string body) u.B.digest)
    warm.B.units

let test_farm_unavailable () =
  let config =
    { (farm_config ()) with Farm.worker_exe = Some "/nonexistent/pdbworker" }
  in
  match farm_build ~config (project ()) with
  | exception Farm.Farm_unavailable _ -> ()
  | _ -> Alcotest.fail "missing worker binary must raise Farm_unavailable"

(* ---------------- directed crashes: one life faults, build recovers -- *)

(* Sample site [site]'s seeded decision stream through the same skip
   mechanism the driver uses per spawn. *)
let fault_window ~site ~seed ~rate ~skip n =
  F.arm ~sites:[ site ] ~skip ~seed ~rate ();
  let l = List.init n (fun _ -> F.should site) in
  F.disarm ();
  l

(* A seed where the first worker life (spawn serial 1, skip 0) faults on
   its very first site occurrence while the next few lives (skip 1009k)
   stay clean for a whole build's worth of occurrences: the build must
   observe exactly one injected crash and still converge. *)
let find_recovery_seed ~site ~rate =
  let clean ~seed ~skip =
    List.for_all not (fault_window ~site ~seed ~rate ~skip 12)
  in
  let rec go seed =
    if seed > 4000 then
      Alcotest.failf "no recovery seed found for %s at rate %g" site rate
    else if
      List.hd (fault_window ~site ~seed ~rate ~skip:0 1)
      && clean ~seed ~skip:1009
      && clean ~seed ~skip:2018
      && clean ~seed ~skip:3027
    then seed
    else go (seed + 1)
  in
  go 1

let directed_crash_recovers ~site () =
  let rate = 0.05 in
  let seed = find_recovery_seed ~site ~rate in
  let dir = fresh_dir () in
  let deaths_before = perf_calls "farm.crash" + perf_calls "farm.kill" in
  let r =
    with_fault_env ~sites:[ site ] ~seed ~rate (fun () ->
        farm_build ~cache_dir:dir ~retries:2 (project ()))
  in
  Alcotest.(check int) (site ^ ": build recovered cleanly") 0 r.B.failed;
  Alcotest.(check string) (site ^ ": bytes identical after crash")
    (Lazy.force reference) (pdb_string r.B.merged);
  Alcotest.(check bool) (site ^ ": the crash was real") true
    (perf_calls "farm.crash" + perf_calls "farm.kill" > deaths_before);
  Alcotest.(check bool) (site ^ ": no residual tmp") true (no_residual_tmp dir);
  rm_rf dir

let test_kill_mid_unit_recovers = directed_crash_recovers ~site:"farm.worker.kill"
let test_wedge_recovers = directed_crash_recovers ~site:"farm.worker.wedge"
let test_torn_frame_recovers = directed_crash_recovers ~site:"farm.worker.torn"

let test_respawn_storm_fails_cleanly () =
  (* rate 1.0: every worker life dies on its first unit, so no unit can
     ever complete.  The supervisor must burn exactly its respawn budget,
     resolve every unit with a structured diagnostic, and return — the
     crash-only promise is "retried or cleanly failed", never a hang. *)
  let respawns_before = perf_calls "farm.respawn" in
  let dir = fresh_dir () in
  let t0 = Unix.gettimeofday () in
  let r =
    with_fault_env ~sites:[ "farm.worker.kill" ] ~seed:1 ~rate:1.0 (fun () ->
        farm_build
          ~config:(farm_config ~workers:2 ~max_respawns:3 ())
          ~cache_dir:dir (project ()))
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every unit failed" (n_tus + 1) r.B.failed;
  List.iter
    (fun (u : B.unit_result) ->
      match u.B.status with
      | B.Failed msg ->
          Alcotest.(check bool) "diagnostic is structured and nonempty" true
            (String.length msg > 0)
      | _ -> Alcotest.fail "unit not failed under a total kill storm")
    r.B.units;
  Alcotest.(check int) "respawn budget burned exactly" 3
    (perf_calls "farm.respawn" - respawns_before);
  Alcotest.(check bool)
    (Printf.sprintf "pool exhaustion is prompt (%.1fs)" elapsed)
    true (elapsed < 30.0);
  (* the cache survived the storm: a fault-free build over it converges *)
  let recovered = build ~cache_dir:dir ~domains:1 (project ()) in
  Alcotest.(check int) "recovery build clean" 0 recovered.B.failed;
  Alcotest.(check string) "recovery bytes identical" (Lazy.force reference)
    (pdb_string recovered.B.merged);
  rm_rf dir

(* ---------------- the shared lost-slot policy ---------------- *)

let contains sub s =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let test_reconcile_lost_slot_is_error () =
  let results = [| Some (Ok 1); None; Some (Error Exit) |] in
  let r = S.reconcile ~pool:"testpool" results in
  (match r.(0) with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "resolved slot must pass through");
  (match r.(1) with
  | Error (S.Worker_lost msg) ->
      Alcotest.(check bool) "lost-slot error names the pool" true
        (contains "testpool" msg)
  | _ -> Alcotest.fail "lost slot must become Worker_lost");
  match r.(2) with
  | Error Exit -> ()
  | _ -> Alcotest.fail "error slot must pass through"

exception Witness of string

let test_reconcile_witness_attributed_to_lost_slot () =
  let results = [| Some (Ok 1); None |] in
  let r = S.reconcile ~witness:(Witness "worker died") ~pool:"p" results in
  match r.(1) with
  | Error (Witness "worker died") -> ()
  | _ -> Alcotest.fail "witness exception must land on the lost slot"

let test_reconcile_witness_without_lost_slot_reraises () =
  match S.reconcile ~witness:(Witness "boom") ~pool:"p" [| Some (Ok 1) |] with
  | exception Witness "boom" -> ()
  | _ -> Alcotest.fail "unattributable witness must re-raise"

(* ---------------- the worker-process fault matrix ---------------- *)

let site_sets =
  [ ("kill", [ "farm.worker.kill" ]);
    ("wedge", [ "farm.worker.wedge" ]);
    ("torn-frame", [ "farm.worker.torn" ]);
    ("kill+wedge+torn",
     [ "farm.worker.kill"; "farm.worker.wedge"; "farm.worker.torn" ]) ]

let rates = [ 0.05; 0.25 ]

let matrix_farms =
  match Option.bind (Sys.getenv_opt "PDT_TEST_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> [ max 1 (min n 4) ]
  | _ -> [ 1; 3 ]

(* 4 site sets x 2 rates x seeds x farm sizes; sized so the sweep is
   always >= 200 schedules even when CI forces one farm size *)
let matrix_seeds =
  List.init (if List.length matrix_farms = 1 then 25 else 13) (fun i -> i + 1)

let check_farm_schedule ~label ~sites ~rate ~seed ~workers () =
  let dir = fresh_dir () in
  let fail fmt = Printf.ksprintf (fun m -> Alcotest.fail m) fmt in
  let respawns_before = perf_calls "farm.respawn" in
  let under_fire =
    try
      with_fault_env ~sites ~seed ~rate (fun () ->
          farm_build ~config:(farm_config ~workers ()) ~cache_dir:dir
            (project ()))
    with e -> fail "%s: escaped exception %s" label (Printexc.to_string e)
  in
  (* 1. every unit resolved to a structured status *)
  List.iter
    (fun (u : B.unit_result) ->
      match u.B.status with
      | B.Compiled | B.Cached -> ()
      | B.Failed msg ->
          if msg = "" then fail "%s: empty diagnostic for %s" label u.B.source
      | B.Degraded _ -> fail "%s: degraded unit on well-formed input" label
      | B.Skipped -> fail "%s: skipped unit without fail-fast" label)
    under_fire.B.units;
  (* 2. success => byte-identical to the fault-free build *)
  if under_fire.B.failed = 0 then begin
    if pdb_string under_fire.B.merged <> Lazy.force reference then
      fail "%s: clean farm build diverged from the fault-free PDB" label
  end;
  (* 3. respawns stayed inside the per-build budget *)
  let respawns = perf_calls "farm.respawn" - respawns_before in
  if respawns > (farm_config ~workers ()).Farm.max_respawns then
    fail "%s: %d respawns exceed the budget" label respawns;
  (* 4. no worker crash left a temp file behind *)
  if not (no_residual_tmp dir) then
    fail "%s: residual .tmp.* file in cache dir" label;
  (* 5. the shared cache serves no corrupt entry afterwards *)
  let recovered =
    try build ~cache_dir:dir ~domains:1 (project ())
    with e -> fail "%s: recovery build raised %s" label (Printexc.to_string e)
  in
  if recovered.B.failed <> 0 then
    fail "%s: recovery build failed over the surviving cache" label;
  if pdb_string recovered.B.merged <> Lazy.force reference then
    fail "%s: recovery build diverged from the fault-free PDB" label;
  rm_rf dir;
  under_fire.B.failed

let test_farm_fault_matrix () =
  let schedules = ref 0 in
  let deaths_before = perf_calls "farm.crash" + perf_calls "farm.kill" in
  let failed_units = ref 0 in
  List.iter
    (fun (name, sites) ->
      List.iter
        (fun rate ->
          List.iter
            (fun seed ->
              List.iter
                (fun workers ->
                  incr schedules;
                  let label =
                    Printf.sprintf "%s rate=%.2f seed=%d farm=%d" name rate
                      seed workers
                  in
                  failed_units :=
                    !failed_units
                    + check_farm_schedule ~label ~sites ~rate ~seed ~workers ())
                matrix_farms)
            matrix_seeds)
        rates)
    site_sets;
  Alcotest.(check bool)
    (Printf.sprintf "matrix swept >= 200 schedules (ran %d)" !schedules)
    true (!schedules >= 200);
  (* not vacuous: the sweep actually killed workers *)
  Alcotest.(check bool)
    (Printf.sprintf "the sweep drew blood (%d worker deaths, %d failed units)"
       (perf_calls "farm.crash" + perf_calls "farm.kill" - deaths_before)
       !failed_units)
    true
    (perf_calls "farm.crash" + perf_calls "farm.kill" > deaths_before)

(* ---------------- cross-process cache integrity ---------------- *)

let wait_code name pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s ->
      Alcotest.fail (Printf.sprintf "%s killed by signal %d" name s)
  | Unix.WSTOPPED _ -> Alcotest.fail (name ^ " stopped")

let spawn_pdbbuild ~sources ~out ~cache ~farm =
  let exe = pdbbuild_exe () in
  let log =
    Unix.openfile (out ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process exe
      (Array.of_list
         ((exe :: sources)
         @ [ "-o"; out; "--cache-dir"; cache; "--farm"; string_of_int farm ]))
      Unix.stdin log log
  in
  Unix.close log;
  pid

let test_concurrent_farm_builders () =
  (* two farm drivers racing cold on one cache directory: both must exit
     clean with byte-identical merged PDBs, the shard locks and
     re-verify-under-lock discipline must produce zero quarantine false
     positives, and a third (in-process) build must be served entirely
     from the shared cache *)
  let dir = fresh_dir () in
  C.mkdir_p dir;
  let cache = Filename.concat dir "cache" in
  let sources = G.write_project ~n_tus ~dir () in
  let out1 = Filename.concat dir "m1.pdb"
  and out2 = Filename.concat dir "m2.pdb" in
  let p1 = spawn_pdbbuild ~sources ~out:out1 ~cache ~farm:2 in
  let p2 = spawn_pdbbuild ~sources ~out:out2 ~cache ~farm:2 in
  Alcotest.(check int) "first farm driver exits clean" 0 (wait_code "p1" p1);
  Alcotest.(check int) "second farm driver exits clean" 0 (wait_code "p2" p2);
  Alcotest.(check string) "both drivers produced identical bytes"
    (read_file out1) (read_file out2);
  Alcotest.(check bool) "no residual tmp file" true (no_residual_tmp cache);
  let quarantine = Filename.concat cache "quarantine" in
  Alcotest.(check bool) "zero quarantine false positives" true
    ((not (Sys.file_exists quarantine)) || Sys.readdir quarantine = [||]);
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let r = build ~cache_dir:cache ~domains:1 (vfs, sources) in
  Alcotest.(check int) "shared cache serves everything" (n_tus + 1) r.B.cached;
  Alcotest.(check string) "and the same bytes" (read_file out1)
    (pdb_string r.B.merged);
  rm_rf dir

let test_seeded_torn_write_quarantined_across_processes () =
  (* driver #1 runs with cache.write.torn armed in its workers: each
     worker's first store is torn, leaving corrupt entries behind a
     clean build (stores are write-behind).  Driver #2, fault-free, must
     quarantine those entries under the shard lock, recompile, and
     produce the same bytes. *)
  let dir = fresh_dir () in
  C.mkdir_p dir;
  let cache = Filename.concat dir "cache" in
  let sources = G.write_project ~n_tus ~dir () in
  let out1 = Filename.concat dir "m1.pdb"
  and out2 = Filename.concat dir "m2.pdb" in
  Unix.putenv F.env_var
    (F.spec_string ~sites:[ "cache.write.torn" ] ~max_faults:1 ~seed:3
       ~rate:1.0 ());
  let code1 =
    Fun.protect
      ~finally:(fun () -> Unix.putenv F.env_var "")
      (fun () ->
        wait_code "torn-writer"
          (spawn_pdbbuild ~sources ~out:out1 ~cache ~farm:2))
  in
  Alcotest.(check int) "torn-writing driver still exits clean" 0 code1;
  let code2 =
    wait_code "healer" (spawn_pdbbuild ~sources ~out:out2 ~cache ~farm:2)
  in
  Alcotest.(check int) "second driver exits clean" 0 code2;
  Alcotest.(check string) "bytes converge despite torn entries"
    (read_file out1) (read_file out2);
  let quarantine = Filename.concat cache "quarantine" in
  Alcotest.(check bool) "the torn entries were quarantined" true
    (Sys.file_exists quarantine && Sys.readdir quarantine <> [||]);
  Alcotest.(check bool) "no residual tmp file" true (no_residual_tmp cache);
  (* and the healed cache now serves a third build outright *)
  let vfs = Pdt_util.Vfs.create () in
  Pdt_util.Vfs.set_disk_fallback vfs true;
  let r = build ~cache_dir:cache ~domains:1 (vfs, sources) in
  Alcotest.(check int) "healed cache serves everything" (n_tus + 1) r.B.cached;
  rm_rf dir

(* ---------------- stale-tmp sweeping ---------------- *)

let test_sweep_reclaims_dead_pid_tmps () =
  let dir = fresh_dir () in
  let cache = C.create ~dir () in
  let shard = Filename.concat (Filename.concat dir "objects") "ab" in
  C.mkdir_p shard;
  (* a temp file from a pid that cannot exist: debris from a crashed
     worker; and one from our own live pid: an in-flight write *)
  let dead = Filename.concat shard "k.pdb.tmp.999999999.1" in
  let live =
    Filename.concat shard
      (Printf.sprintf "k2.pdb.tmp.%d.1" (Unix.getpid ()))
  in
  List.iter
    (fun p ->
      let oc = open_out_bin p in
      output_string oc "partial";
      close_out oc)
    [ dead; live ];
  let swept = C.sweep_stale_tmps cache in
  Alcotest.(check bool) "dead-pid tmp swept" false (Sys.file_exists dead);
  Alcotest.(check bool) "live-pid tmp untouched" true (Sys.file_exists live);
  Alcotest.(check bool) "sweep reports work" true (swept >= 1);
  rm_rf dir

let suite =
  let farm_gated name speed f =
    (* every farm test needs the worker binary next to pdbbuild.exe; a
       missing binary is a build-system regression, so fail loudly *)
    Alcotest.test_case name speed (fun () ->
        if not (Sys.file_exists (worker_exe ())) then
          Alcotest.failf "pdbworker.exe not built at %s" (worker_exe ());
        Unix.putenv "PDT_PDBWORKER" (worker_exe ());
        f ())
  in
  [ Alcotest.test_case "proto: messages round-trip" `Quick test_proto_roundtrip;
    Alcotest.test_case "proto: every Build.status round-trips" `Quick
      test_proto_status_roundtrip;
    Alcotest.test_case "proto: Config and Result bytes pinned" `Quick
      test_proto_bytes_pinned;
    Alcotest.test_case "proto: malformed frames are errors" `Quick
      test_proto_rejects_malformed;
    Alcotest.test_case "proto: assembler survives 1-byte chunking" `Quick
      test_assembler_reassembles_byte_stream;
    Alcotest.test_case "proto: absurd length prefix rejected" `Quick
      test_assembler_rejects_absurd_length;
    farm_gated "farm == in-process build, cold and warm" `Quick
      test_farm_matches_inprocess_build;
    farm_gated "farm of one worker" `Quick test_farm_single_worker;
    farm_gated "farm without a cache dir" `Quick test_farm_without_cache;
    farm_gated "farm merge digests are the PDBs' own" `Quick
      test_farm_merge_digests;
    farm_gated "farm: a cached unit ships its entry body" `Quick
      test_cached_unit_ships_entry_body;
    Alcotest.test_case "missing worker binary raises Farm_unavailable" `Quick
      test_farm_unavailable;
    farm_gated "SIGKILL mid-unit: retried, bytes identical" `Quick
      test_kill_mid_unit_recovers;
    farm_gated "wedged worker: liveness kill, bytes identical" `Quick
      test_wedge_recovers;
    farm_gated "torn result frame: treated as crash, bytes identical" `Quick
      test_torn_frame_recovers;
    farm_gated "kill storm: respawn budget, clean failure" `Quick
      test_respawn_storm_fails_cleanly;
    Alcotest.test_case "reconcile: lost slot becomes Worker_lost" `Quick
      test_reconcile_lost_slot_is_error;
    Alcotest.test_case "reconcile: witness lands on the lost slot" `Quick
      test_reconcile_witness_attributed_to_lost_slot;
    Alcotest.test_case "reconcile: stray witness re-raises" `Quick
      test_reconcile_witness_without_lost_slot_reraises;
    farm_gated "farm fault matrix: >=200 seeded kill/wedge/torn schedules"
      `Slow test_farm_fault_matrix;
    farm_gated "two farm drivers share one cache" `Quick
      test_concurrent_farm_builders;
    farm_gated "seeded torn write quarantined cross-process" `Quick
      test_seeded_torn_write_quarantined_across_processes;
    Alcotest.test_case "stale-tmp sweep honors pid liveness" `Quick
      test_sweep_reclaims_dead_pid_tmps ]
