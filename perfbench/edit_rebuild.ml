(* edit_rebuild: pdbbuild --incremental -j 1 after one TU-body edit.  Each
   op rewrites tu<k>_driver in the next TU, round-robin, with a value never
   used before, then runs Incremental.build and writes the merged PDB.
   One unit of 25 recompiles; the merge, cache-entry parsing and
   fingerprinting do the rest. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module I = Pdt_build.Incremental
module P = Pdt_pdb.Pdb
module Io = Pdt_pdb.Pdb_io

type state = {
  seed : int;
  vfs : Pdt_util.Vfs.t;
  sources : string list;
  cache_dir : string;
  out : string;
  refs : P.t array;  (* each unit compiled outside the build driver *)
  mutable next_tu : int;
  mutable next_value : int;  (* 0 is the generated value; edits count up *)
  mutable edited : int;
  mutable last : I.result option;
}

let options st =
  { I.default_options with I.build = Project.build_options ~cache_dir:st.cache_dir () }

(* The from-scratch reference: fresh compiles of every unit, merged flat. *)
let reference st = Project.ascii (Pdt_ductape.Ductape.merge (Array.to_list st.refs))

let create ~seed ~work =
  let vfs, sources = Project.make ~seed in
  let st =
    { seed; vfs; sources;
      cache_dir = Filename.concat work "cache";
      out = Filename.concat work "merged.pdb";
      refs = Array.of_list (List.map (Project.reference_unit ~vfs) sources);
      next_tu = 0; next_value = 1; edited = -1; last = None }
  in
  (* seed the cache and the incremental state with a full build *)
  let r = I.build ~options:(options st) ~vfs sources in
  if Project.ascii r.I.merged <> reference st then
    failwith "edit_rebuild: seeding build differs from the reference";
  st

let prepare st =
  let tu = st.next_tu in
  st.next_tu <- (tu + 1) mod Project.n_tus;
  st.edited <- tu;
  Pdt_util.Vfs.add_file st.vfs (Project.unit_name tu)
    (Project.edited_unit ~seed:st.seed ~tu ~value:st.next_value);
  st.next_value <- st.next_value + 1

let op st =
  let r = I.build ~options:(options st) ~vfs:st.vfs st.sources in
  Io.to_file Io.Ascii r.I.merged st.out;
  st.last <- Some r

(* sources are tu0.cpp .. tu23.cpp, main.cpp: TU k sits at index k *)
let check st =
  match st.last with
  | None -> false
  | Some r ->
      st.last <- None;
      st.refs.(st.edited) <-
        Project.reference_unit ~vfs:st.vfs (Project.unit_name st.edited);
      r.I.reanalyzed = 1 && (not r.I.fallback)
      && Project.read_file st.out = reference st

let setup ~seed ~work : Harness.session =
  let st = create ~seed ~work in
  { prepare = (fun () -> prepare st);
    op = (fun () -> op st);
    check = (fun () -> check st);
    close = ignore;
    sizes =
      [ ("units", Pdt_util.Json.Num (float_of_int (List.length st.sources)));
        ("group_size", Pdt_util.Json.Num (float_of_int I.default_options.I.group_size));
        ("build_domains", Pdt_util.Json.Num 1.0) ] }

(* The public calls one op makes, replayed on the same inputs just before
   the op itself runs.  Reads come from the live cache and state; writes
   go to [shadow], so the op that follows still finds the edited unit
   uncached.  Returns the op id and every merge input. *)
let replay (r : Spans.t) st ~shadow : int * P.t list =
  let o = Project.build_options ~cache_dir:st.cache_dir () in
  let cache = C.create ~dir:st.cache_dir () in
  let shadow_cache = C.create ~dir:shadow () in
  let key source =
    Spans.span r "cache.key" (fun () ->
        C.key ~vfs:st.vfs ~options:(B.options_fingerprint o source) source)
  in
  let inputs = ref [] in
  let merge pdbs =
    inputs := pdbs @ !inputs;
    Replay.merge r pdbs
  in
  let op, () =
    Spans.op r (fun () ->
        let prev =
          Spans.span r "incremental" (fun () ->
              I.load_state (Filename.concat st.cache_dir "incremental.state"))
        in
        let plan =
          List.map
            (fun source ->
              let k = key source in
              let reuse =
                match List.find_opt (fun e -> e.I.e_source = source) prev with
                | Some e when e.I.e_key = k ->
                    Spans.span r "incremental" (fun () ->
                        I.dep_hash ~vfs:st.vfs e.I.e_deps = e.I.e_dep_hash)
                | _ -> false
              in
              (source, k, reuse))
            st.sources
        in
        let partials =
          List.map
            (fun members ->
              let gkey = I.group_key (List.map (fun (_, k, _) -> k) members) in
              if List.for_all (fun (_, _, reuse) -> reuse) members then
                match Replay.cache_load r cache gkey with
                | Some p -> p
                | None -> failwith "edit_rebuild replay: group partial missing"
              else begin
                (* Build.build_unit per member: key again, load or compile *)
                let pdbs =
                  List.map
                    (fun (source, _, _) ->
                      let k = key source in
                      match Replay.cache_load r cache k with
                      | Some p -> p
                      | None ->
                          let pdb =
                            Replay.front_end r ~o ~vfs:(Pdt_util.Vfs.copy st.vfs)
                              source
                          in
                          let body = Replay.serialize r pdb in
                          Spans.span r "cache.store" (fun () ->
                              C.store_serialized shadow_cache k body);
                          pdb)
                    members
                in
                let partial = merge pdbs in
                let body = Replay.serialize r partial in
                Spans.span r "cache.store" (fun () ->
                    C.store_serialized shadow_cache gkey body);
                partial
              end)
            (I.chunk I.default_options.I.group_size plan)
        in
        let merged = merge partials in
        Spans.span r "incremental" (fun () ->
            I.save_state (Filename.concat shadow "incremental.state") prev);
        let out = Filename.concat shadow "merged.pdb" in
        Spans.span r "pdb.write" (fun () -> Io.to_file Io.Ascii merged out);
        Spans.note_here r "pdb.write_bytes"
          (float_of_int (Unix.stat out).Unix.st_size))
  in
  (op, !inputs)

let traced ~seed ~work ~seconds (tally : Harness.tally) =
  let st = create ~seed ~work in
  let r = Spans.create "edit_rebuild" in
  let shadow = Filename.concat work "shadow" in
  let op_ms = ref [] and gcs = ref [] and results = ref [] in
  let calls () =
    List.map Harness.counter_calls
      [ "build.retry"; "cache.hit"; "incr.group_hit"; "cache.miss"; "incr.group_miss" ]
  in
  let c0 = calls () in
  Harness.loop_for ~seconds (fun () ->
      prepare st;
      let op_id, inputs = replay r st ~shadow in
      Replay.merge_digests r ~op:op_id inputs;
      Sysinfo.rm_rf shadow;
      let gc, (ns, ()) =
        Harness.gc_delta (fun () -> Harness.time_ns (fun () -> op st))
      in
      Option.iter (fun res -> results := res :: !results) st.last;
      Harness.count tally (check st);
      op_ms := Harness.ms_of_ns ns :: !op_ms;
      gcs := gc :: !gcs);
  let d = List.map2 ( - ) (calls ()) c0 in
  let retries, hits, misses =
    match d with
    | [ re; h; gh; m; gm ] -> (re, h + gh, m + gm)
    | _ -> assert false
  in
  let op_ms = Harness.median_list !op_ms in
  let count f = Harness.median_list (List.map (fun res -> float_of_int (f res)) !results) in
  let failed_units =
    List.fold_left
      (fun a res ->
        a
        + List.length
            (List.filter
               (fun (u : I.unit_info) ->
                 match u.I.disposition with I.Failed _ | I.Degraded _ -> true | _ -> false)
               res.I.units))
      0 !results
  in
  let p = "edit_rebuild." in
  let m = Harness.metric in
  let layers = "incremental" :: Replay.build_layers in
  ( r,
    [ m (p ^ "op.ms") "ms" op_ms ]
    @ Replay.layer_metrics ~prefix:p r
        [ ("preproc", "preproc.ms"); ("parser", "parser.ms"); ("sema", "sema.ms");
          ("analyzer", "analyzer.ms"); ("pdb.write", "pdb.write_ms");
          ("pdb.read", "pdb.read_ms"); ("ductape.merge", "ductape.merge_ms");
          ("cache.key", "cache.key_ms"); ("cache.load", "cache.load_ms");
          ("cache.store", "cache.store_ms"); ("incremental", "incremental.self_ms") ]
    @ [ m (p ^ "pdb.write_mb") "MB" (Spans.noted r "pdb.write_bytes" /. 1e6);
        m (p ^ "pdb.read_mb") "MB" (Spans.noted r "pdb.read_bytes" /. 1e6);
        m (p ^ "pdb.digest_ms") "ms" (Spans.noted r "pdb.digest_ms");
        m (p ^ "ductape.merge_keep_ratio") "ratio" (Replay.keep_ratio r);
        m (p ^ "cache.hit_ratio") "ratio"
          (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        m (p ^ "incremental.reanalyzed") "count" (count (fun x -> x.I.reanalyzed));
        m (p ^ "incremental.reused") "count" (count (fun x -> x.I.reused));
        m (p ^ "incremental.groups_remerged") "count"
          (count (fun x -> x.I.groups_remerged));
        m (p ^ "incremental.fallbacks") "count"
          (float_of_int (List.length (List.filter (fun x -> x.I.fallback) !results)));
        m (p ^ "build.unattributed_ms") "ms" (Replay.unattributed ~op_ms r layers);
        m (p ^ "build.failed") "count" (float_of_int failed_units);
        m (p ^ "build.retries") "count" (float_of_int retries) ]
    @ Harness.gc_metrics ~prefix:p !gcs )

let workload : Harness.workload =
  { name = "edit_rebuild"; tail_per_mille = 900; warmup_ops = 3; setup; traced }
