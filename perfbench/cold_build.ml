(* cold_build: pdbbuild -j 1 into an empty cache — Build.build, then the
   merged ASCII PDB written to a file.  The front end does most of the
   work here; cache stores and the merge do the rest. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module Io = Pdt_pdb.Pdb_io

type state = {
  vfs : Pdt_util.Vfs.t;
  sources : string list;
  reference : string;  (* Pdt.compile_project's flat build, ASCII *)
  work : string;
  mutable n : int;
  mutable last : B.result option;
}

let out_path st = Filename.concat st.work "merged.pdb"
let cache_path st = Filename.concat st.work (Printf.sprintf "cache%d" st.n)

let create ~seed ~work =
  let vfs, sources = Project.make ~seed in
  let merged, _ = Pdt.compile_project ~vfs sources in
  { vfs; sources; reference = Project.ascii merged; work; n = 0; last = None }

let op st =
  st.n <- st.n + 1;
  let r =
    B.build ~options:(Project.build_options ~cache_dir:(cache_path st) ())
      ~vfs:st.vfs st.sources
  in
  Io.to_file Io.Ascii r.B.merged (out_path st);
  st.last <- Some r

let check st =
  let ok =
    match st.last with
    | Some r ->
        r.B.failed = 0
        && r.B.compiled = List.length st.sources
        && Project.read_file (out_path st) = st.reference
    | None -> false
  in
  Sysinfo.rm_rf (cache_path st);
  st.last <- None;
  ok

let setup ~seed ~work : Harness.session =
  let st = create ~seed ~work in
  { prepare = ignore;
    op = (fun () -> op st);
    check = (fun () -> check st);
    close = ignore;
    sizes =
      [ ("units", Pdt_util.Json.Num (float_of_int (List.length st.sources)));
        ("merged_pdb_bytes",
         Pdt_util.Json.Num (float_of_int (String.length st.reference)));
        ("build_domains", Pdt_util.Json.Num 1.0) ] }

(* One op replayed layer by layer, as Build.build runs it at one domain:
   per unit the key, the miss probe, the front end, serialization and the
   store; then the flat merge and the output write.  Returns the op id and
   the unit PDBs (the merge inputs). *)
let replay (r : Spans.t) st ~dir : int * Pdt_pdb.Pdb.t list =
  let o = Project.build_options ~cache_dir:dir () in
  let cache = C.create ~dir () in
  Spans.op r (fun () ->
      let pdbs =
        List.map
          (fun source ->
            let key =
              Spans.span r "cache.key" (fun () ->
                  C.key ~vfs:st.vfs ~options:(B.options_fingerprint o source)
                    source)
            in
            if Replay.cache_load r cache key <> None then
              failwith "cold_build replay: cache not empty";
            let pdb =
              Replay.front_end r ~o ~vfs:(Pdt_util.Vfs.copy st.vfs) source
            in
            let body = Replay.serialize r pdb in
            Spans.span r "cache.store" (fun () -> C.store_serialized cache key body);
            pdb)
          st.sources
      in
      let merged = Replay.merge r pdbs in
      Spans.span r "pdb.write" (fun () -> Io.to_file Io.Ascii merged (out_path st));
      Spans.note_here r "pdb.write_bytes"
        (float_of_int (Unix.stat (out_path st)).Unix.st_size);
      pdbs)

(* The same units through Scheduler.parallel_map ~domains:2 and the merge
   through Merge_par.merge ~domains:2: a diagnostic only, since builds run
   at one domain on this benchmark's hosts.  Returns pool efficiency (busy
   share of 2 x wall), idle domain time in ms, the tree merge's ms, and
   whether the tree-merged PDB matches the reference. *)
let two_domains st ~dir : float * float * float * bool =
  let o = Project.build_options ~cache_dir:dir () in
  let cache = Some (C.create ~dir ()) in
  let tasks = Array.of_list st.sources in
  let busy = Array.make (Array.length tasks) 0 in
  let wall, results =
    Harness.time_ns (fun () ->
        Pdt_build.Scheduler.parallel_map ~domains:2
          (fun i ->
            let ns, u =
              Harness.time_ns (fun () -> B.build_unit o cache ~vfs:st.vfs tasks.(i))
            in
            busy.(i) <- ns;
            u)
          (Array.init (Array.length tasks) Fun.id))
  in
  let pdbs =
    Array.to_list results
    |> List.filter_map (function Ok u -> u.B.pdb | Error _ -> None)
  in
  let merge_ns, merged =
    Harness.time_ns (fun () -> Pdt_build.Merge_par.merge ~domains:2 pdbs)
  in
  Sysinfo.rm_rf dir;
  let busy_ns = Array.fold_left ( + ) 0 busy in
  ( float_of_int busy_ns /. (2.0 *. float_of_int wall),
    Harness.ms_of_ns ((2 * wall) - busy_ns),
    Harness.ms_of_ns merge_ns,
    List.length pdbs = Array.length tasks && Project.ascii merged = st.reference )

let traced ~seed ~work ~seconds (tally : Harness.tally) =
  let st = create ~seed ~work in
  let r = Spans.create "cold_build" in
  let dir = Filename.concat work "replay" in
  let op_ms = ref [] and gcs = ref [] and failed_units = ref 0 in
  let eff = ref [] and idle = ref [] and tree = ref [] in
  let retries0 = Harness.counter_calls "build.retry" in
  op st;
  Harness.count tally (check st);
  Harness.loop_for ~seconds (fun () ->
      let gc, (ns, ()) =
        Harness.gc_delta (fun () -> Harness.time_ns (fun () -> op st))
      in
      Option.iter (fun (b : B.result) -> failed_units := !failed_units + b.B.failed) st.last;
      Harness.count tally (check st);
      op_ms := Harness.ms_of_ns ns :: !op_ms;
      gcs := gc :: !gcs;
      let op_id, pdbs = replay r st ~dir in
      Replay.merge_digests r ~op:op_id pdbs;
      Harness.count tally (Project.read_file (out_path st) = st.reference);
      Sysinfo.rm_rf dir;
      let e, w, m, ok = two_domains st ~dir in
      Harness.count tally ok;
      eff := e :: !eff;
      idle := w :: !idle;
      tree := m :: !tree);
  let op_ms = Harness.median_list !op_ms in
  let p = "cold_build." in
  let m = Harness.metric in
  ( r,
    [ m (p ^ "op.ms") "ms" op_ms ]
    @ Replay.layer_metrics ~prefix:p r
        [ ("preproc", "preproc.ms"); ("parser", "parser.ms"); ("sema", "sema.ms");
          ("analyzer", "analyzer.ms"); ("pdb.write", "pdb.write_ms");
          ("ductape.merge", "ductape.merge_ms"); ("cache.key", "cache.key_ms");
          ("cache.load", "cache.load_ms"); ("cache.store", "cache.store_ms") ]
    @ [ m (p ^ "preproc.tokens") "count" (Spans.noted r "preproc.tokens");
        m (p ^ "sema.il_routines") "count" (Spans.noted r "sema.il_routines");
        m (p ^ "analyzer.items") "count" (Spans.noted r "analyzer.items");
        m (p ^ "pdb.write_mb") "MB" (Spans.noted r "pdb.write_bytes" /. 1e6);
        m (p ^ "pdb.digest_ms") "ms" (Spans.noted r "pdb.digest_ms");
        m (p ^ "ductape.merge_keep_ratio") "ratio" (Replay.keep_ratio r);
        m (p ^ "build.unattributed_ms") "ms"
          (Replay.unattributed ~op_ms r Replay.build_layers);
        m (p ^ "build.failed") "count" (float_of_int !failed_units);
        m (p ^ "build.retries") "count"
          (float_of_int (Harness.counter_calls "build.retry" - retries0));
        m (p ^ "scheduler.efficiency_2dom") "ratio" (Harness.median_list !eff);
        m (p ^ "scheduler.wait_ms_2dom") "ms" (Harness.median_list !idle);
        m (p ^ "merge_par.ms_2dom") "ms" (Harness.median_list !tree) ]
    @ Harness.gc_metrics ~prefix:p !gcs )

let workload : Harness.workload =
  { name = "cold_build"; tail_per_mille = 900; warmup_ops = 2; setup; traced }
