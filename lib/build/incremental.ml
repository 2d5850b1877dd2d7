(** Incremental re-analysis: patch in, delta out.

    A full {!Build.build} re-merges every unit's PDB even when the unit
    cache serves most compiles.  This driver keeps enough state between
    runs to do strictly less work after an edit:

    - {e per-unit dependency fingerprints} — the unit's {!Cache.key}
      (content hash over the lexical include closure, whitespace-
      normalized) plus a hash over the dependency set the previous
      compile {e actually read} (recorded by the {!Pdt_util.Vfs} read
      recorder during preprocessing).  A unit whose fingerprint is
      unchanged is {e reused}: it is not recompiled, and usually not even
      loaded;
    - {e memoized partial merges} — the build plan is partitioned into
      fixed-size groups whose merged PDBs are stored in the same
      self-healing content-addressed {!Cache} (keyed by the member unit
      keys).  An edit dirties only the groups containing affected units;
      clean groups splice their stale-free contribution straight from the
      cache without touching member PDBs.  The top-level merge over group
      partials is byte-identical to a flat merge of all units because
      {!Pdt_ductape.Ductape.merge} is canonical under grouping (pinned by
      the grouping tests in [test_build.ml]);
    - {e a state file} ([incremental.state] in the cache dir, written
      atomically) mapping each source to its key and recorded dependency
      paths.  A missing or corrupt state file merely degrades to a full
      re-analysis — it can never produce wrong output, because reuse
      additionally requires the content-addressed cache to produce the
      bytes.

    Degraded units, units whose include cone was truncated by the depth
    budget, and failed units never enter the state file or the group
    cache: they are re-analyzed on every run until they build clean.

    Fault tolerance: any exception escaping the delta path (injected
    faults included) falls back to a plain {!Build.build} — a full
    remerge — so a mid-build fault can never leave a half-spliced PDB.
    The fallback is counted under the [incr.fallback] counter.

    Stats surface as [reanalyzed=N reused=M] from [pdbbuild
    --incremental] and as [incr.*] counters / ["incr"]-category trace
    spans. *)

open Pdt_util
module P = Pdt_pdb.Pdb

type options = {
  build : Build.options;
  group_size : int;    (** units per memoized partial merge *)
}

let default_options = { build = Build.default_options; group_size = 8 }

(* ------------------------------------------------------------------ *)
(* Persistent state                                                    *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_source : string;
  e_key : string;           (* Cache.key when the unit was last built *)
  e_dep_hash : string;      (* hash over the recorded dependency contents *)
  e_deps : string list;     (* normalized paths the compile actually read *)
}

let state_magic = "PDT-INCR v1"

(* the state file of the cache in [dir] *)
let state_path dir = Filename.concat dir "incremental.state"

(* Hash of a dependency set's current contents: each file's key digest
   ({!Cache.file}), so whitespace-only edits keep the hash; a missing file
   hashes to a marker, so deletion changes it. *)
let dep_hash ?cache ~vfs (deps : string list) : string =
  Hashutil.strings
    (List.concat_map
       (fun p ->
         match Vfs.read_raw vfs p with
         | Some c -> [ p; (Cache.file ?cache p c).Cache.digest ]
         | None -> [ p; "\x00missing" ])
       (List.sort_uniq compare deps))

(* The state entry of a unit that built clean under [key].  A compile
   records what it read.  A unit the cache served recorded nothing: it
   keeps [prev] when that was made under the same key, else takes its
   lexical include closure, which subsumes every read the compile would
   do.  Degraded, failed and cone-truncated units get no entry. *)
let state_entry ~cache ~vfs ~key ~(prev : entry option)
    (u : Build.unit_result) : entry option =
  let entry deps =
    Some
      { e_source = u.Build.source; e_key = key;
        e_dep_hash = dep_hash ~cache ~vfs deps; e_deps = deps }
  in
  match (u.Build.status, prev) with
  | Build.Compiled, _ when not u.Build.cone_truncated -> entry u.Build.deps
  | Build.Cached, Some e when e.e_key = key -> Some e
  | Build.Cached, _ ->
      entry (List.map fst (Cache.include_closure ~cache ~vfs u.Build.source))
  | _ -> None

(* One line per unit, tab-separated: source, key, dep hash, then the dep
   paths.  A digest header binds the whole body, mirroring cache
   entries: any damage fails one comparison and the state is ignored. *)
let render_state (entries : entry list) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun e ->
      let fields = e.e_source :: e.e_key :: e.e_dep_hash :: e.e_deps in
      if
        List.for_all
          (fun f -> not (String.contains f '\t' || String.contains f '\n'))
          fields
      then Buffer.add_string b (String.concat "\t" fields ^ "\n"))
    entries;
  let body = Buffer.contents b in
  Printf.sprintf "%s digest=%s\n%s" state_magic (Hashutil.string body) body

let parse_state (content : string) : entry list option =
  match String.index_opt content '\n' with
  | None -> None
  | Some i ->
      let hdr = String.sub content 0 i in
      let body = String.sub content (i + 1) (String.length content - i - 1) in
      if hdr <> Printf.sprintf "%s digest=%s" state_magic (Hashutil.string body)
      then None
      else
        Some
          (String.split_on_char '\n' body
          |> List.filter_map (fun line ->
                 match String.split_on_char '\t' line with
                 | source :: key :: dh :: deps when source <> "" ->
                     Some
                       { e_source = source; e_key = key; e_dep_hash = dh;
                         e_deps = deps }
                 | _ -> None))

let load_state path : entry list =
  match
    (try
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> Some (really_input_string ic (in_channel_length ic)))
     with Sys_error _ | End_of_file -> None)
  with
  | None -> []
  | Some content -> Option.value (parse_state content) ~default:[]

(* Atomic write, the cache entries' helper; best-effort — a lost state
   file only costs the next run a full re-analysis. *)
let save_state path (entries : entry list) : unit =
  try
    Cache.mkdir_p (Filename.dirname path);
    Cache.write_atomic path (fun oc -> output_string oc (render_state entries))
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type disposition =
  | Reused            (** fingerprint unchanged — not recompiled; spliced
                          from a memoized group or the unit cache *)
  | Loaded            (** served by the unit cache while its group was
                          re-merged *)
  | Recompiled        (** compiled this run *)
  | Degraded of string
  | Failed of string
  | Skipped           (** never started: [fail_fast] stopped the build *)

(* [reused]: the plan classified the unit as fingerprint-unchanged, so a
   unit-cache hit is reuse rather than a reload into a re-merged group *)
let disposition_of_status ~reused : Build.status -> disposition = function
  | Build.Compiled -> Recompiled
  | Build.Cached -> if reused then Reused else Loaded
  | Build.Degraded m -> Degraded m
  | Build.Failed m -> Failed m
  | Build.Skipped -> Skipped

type unit_info = {
  source : string;
  disposition : disposition;
  reason : string;    (** why the unit was (or was not) re-analyzed *)
  seconds : float;
}

type result = {
  merged : P.t;
  units : unit_info list;      (** in input order *)
  reanalyzed : int;            (** units recompiled: [Recompiled] +
                                   [Degraded] + [Failed] *)
  reused : int;                (** [Reused] + [Loaded] *)
  skipped : int;               (** [Skipped], only under [fail_fast];
                                   always [reanalyzed + reused + skipped =
                                   total units] *)
  fallback : bool;             (** the delta path was abandoned and a full
                                   {!Build.build} ran instead *)
  groups_reused : int;         (** partial merges served from the cache *)
  groups_remerged : int;
  wall_seconds : float;
}

let stats_line (r : result) : string =
  Printf.sprintf "incremental: reanalyzed=%d reused=%d%s" r.reanalyzed
    r.reused
    (if r.fallback then " (fallback: full remerge)" else "")

(* ------------------------------------------------------------------ *)
(* The delta path                                                      *)
(* ------------------------------------------------------------------ *)

let group_magic = "PDT-INCR-GROUP v1"

let group_key (member_keys : string list) : string =
  Hashutil.strings (group_magic :: member_keys)

let chunk size xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

type plan_item = {
  p_source : string;
  p_key : string;
  p_reuse : bool;
  p_reason : string;
  p_prev : entry option;
}

let classify ~cache ~vfs ~(o : Build.options)
    (prev : (string, entry) Hashtbl.t) ~had_state source : plan_item =
  let key =
    Cache.key ~cache ~vfs ~options:(Build.options_fingerprint o source) source
  in
  let reanalyze reason =
    { p_source = source; p_key = key; p_reuse = false; p_reason = reason;
      p_prev = Hashtbl.find_opt prev source }
  in
  match Hashtbl.find_opt prev source with
  | None ->
      reanalyze (if had_state then "new unit" else "no incremental state")
  | Some e when e.e_key <> key -> reanalyze "dependency cone changed"
  | Some e when dep_hash ~cache ~vfs e.e_deps <> e.e_dep_hash ->
      (* belt and braces: the key's lexical closure should subsume every
         recorded read, but the recorded set is what the compile actually
         consumed, so it gets the final word *)
      reanalyze "recorded dependency changed"
  | Some e ->
      { p_source = source; p_key = key; p_reuse = true;
        p_reason = "fingerprint unchanged"; p_prev = Some e }

(* A group either splices its cached partial merge (members untouched),
   held as a merge input, or re-merges from its members' unit results. *)
type group_state = Ready of (string * P.t) | Need

let delta_build ~(options : options) ~vfs (sources : string list) : result =
  let o = options.build in
  let dir =
    match o.Build.cache_dir with
    | Some d -> d
    | None -> invalid_arg "Incremental.build: cache_dir is required"
  in
  let t0 = Unix.gettimeofday () in
  let cache = Cache.create ~dir () in
  let state_path = state_path dir in
  let prev_entries = load_state state_path in
  let had_state = prev_entries <> [] in
  let prev = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace prev e.e_source e) prev_entries;
  let plan =
    Trace.timed ~cat:"incr" "incr.plan" @@ fun () ->
    List.map (classify ~cache ~vfs ~o prev ~had_state) sources
  in
  let groups = chunk (max 1 options.group_size) plan in
  let gkey members = group_key (List.map (fun p -> p.p_key) members) in
  (* probe the partial-merge cache for groups with no re-analyzed member;
     a transient read fault is a miss here — the delta path must degrade,
     not die *)
  let probe members =
    if not (List.for_all (fun p -> p.p_reuse) members) then Need
    else
      match
        (try Cache.load cache (gkey members)
         with e when Fault.is_transient e -> None)
      with
      | Some (pdb, _, digest) ->
          Trace.count ~cat:"incr" "incr.group_hit" 0;
          Ready (digest, pdb)
      | None ->
          Trace.count ~cat:"incr" "incr.group_miss" 0;
          Need
  in
  let groups =
    Trace.timed ~cat:"incr" "incr.probe" @@ fun () ->
    List.map (fun members -> (members, probe members)) groups
  in
  (* every member of a dirty (or unprobed) group goes through Build's unit
     runner: it serves reusable units from the unit cache and compiles the
     rest, under the standard retry and fail-fast policy *)
  let results =
    List.concat_map (function _, Ready _ -> [] | members, Need -> members) groups
    |> List.map (fun p -> p.p_source)
    |> Array.of_list
    |> Build.run_units o (Some cache) ~vfs
  in
  (* a dirty group's merge input, with its digest; a freshly merged clean
     group goes back into the content-addressed cache for the next edit,
     under the digest taken for the merge *)
  let group_partial members (us : Build.unit_result list) =
    Trace.timed ~cat:"incr" "incr.group_merge" @@ fun () ->
    match Build.merge_inputs us with
    | [] -> None
    | survivors ->
        let pdb = Pdt_ductape.Ductape.merge_digested survivors in
        let body = Pdt_pdb.Pdb_write.to_string pdb in
        let digest = Pdt_pdb.Pdb_digest.of_string body in
        if
          List.for_all
            (fun (u : Build.unit_result) ->
              (not u.Build.cone_truncated)
              &&
              match u.Build.status with
              | Build.Compiled | Build.Cached -> true
              | _ -> false)
            us
        then begin
          try Cache.store_serialized ~digest cache (gkey members) body
          with e when Fault.is_transient e ->
            Trace.count ~cat:"incr" "incr.group_store_failed" 0
        end;
        Some (digest, pdb)
  in
  (* one walk over the groups, a dirty group's results being the next
     [List.length members] of [results]: each group's merge input, and
     each member with its unit result, [None] in a spliced group *)
  let _, walked =
    List.fold_left_map
      (fun first (members, state) ->
        match state with
        | Ready input -> (first, (Some input, List.map (fun p -> (p, None)) members))
        | Need ->
            let us = List.mapi (fun i p -> (p, results.(first + i))) members in
            ( first + List.length us,
              ( group_partial members (List.map snd us),
                List.map (fun (p, u) -> (p, Some u)) us ) ))
      0 groups
  in
  let merged =
    Trace.timed ~cat:"incr" "incr.merge" @@ fun () ->
    Pdt_ductape.Ductape.merge_digested (List.filter_map fst walked)
  in
  let members = List.concat_map snd walked in
  let units =
    List.map
      (fun (p, u) ->
        match u with
        | None ->
            { source = p.p_source; disposition = Reused;
              reason = "group partial merge reused"; seconds = 0.0 }
        | Some (u : Build.unit_result) ->
            { source = p.p_source;
              disposition = disposition_of_status ~reused:p.p_reuse u.Build.status;
              reason = p.p_reason; seconds = u.Build.seconds })
      members
  in
  save_state state_path
    (List.filter_map
       (fun (p, u) ->
         match u with
         | None -> p.p_prev
         | Some u -> state_entry ~cache ~vfs ~key:p.p_key ~prev:p.p_prev u)
       members);
  let count f = List.length (List.filter f units) in
  let reanalyzed =
    count (fun u ->
        match u.disposition with
        | Recompiled | Degraded _ | Failed _ -> true
        | _ -> false)
  in
  let reused =
    count (fun u ->
        match u.disposition with Reused | Loaded -> true | _ -> false)
  in
  let groups_reused =
    List.length (List.filter (function _, Ready _ -> true | _ -> false) groups)
  in
  Trace.count ~cat:"incr" "incr.reanalyzed" reanalyzed;
  Trace.count ~cat:"incr" "incr.reused" reused;
  { merged; units; reanalyzed; reused;
    skipped = count (fun u -> u.disposition = Skipped);
    fallback = false; groups_reused;
    groups_remerged = List.length groups - groups_reused;
    wall_seconds = Unix.gettimeofday () -. t0 }

(* ------------------------------------------------------------------ *)
(* Entry point with full-remerge fallback                              *)
(* ------------------------------------------------------------------ *)

(* A plain Build.build presented as an incremental result: everything the
   unit cache served counts as reused, everything fail-fast skipped as
   skipped, everything else as reanalyzed. *)
let full_build ~(options : options) ~vfs (sources : string list)
    ~(reason : string) : result =
  let t0 = Unix.gettimeofday () in
  let r = Build.build ~options:options.build ~vfs sources in
  let units =
    List.map
      (fun (u : Build.unit_result) ->
        { source = u.Build.source;
          disposition = disposition_of_status ~reused:false u.Build.status;
          reason; seconds = u.Build.seconds })
      r.Build.units
  in
  (* repair the state file so the next run can take the delta path: every
     unit that built clean gets an entry, the cached ones included, or the
     next run would re-merge every group holding one *)
  (match options.build.Build.cache_dir with
   | None -> ()
   | Some dir ->
       let cache = Cache.create ~dir () in
       let entries =
         List.filter_map
           (fun (u : Build.unit_result) ->
             try
               let key =
                 Cache.key ~cache ~vfs
                   ~options:
                     (Build.options_fingerprint options.build u.Build.source)
                   u.Build.source
               in
               state_entry ~cache ~vfs ~key ~prev:None u
             with _ -> None)
           r.Build.units
       in
       save_state (state_path dir) entries);
  let reused = r.Build.cached and skipped = r.Build.skipped in
  let reanalyzed = List.length r.Build.units - reused - skipped in
  Trace.count ~cat:"incr" "incr.reanalyzed" reanalyzed;
  Trace.count ~cat:"incr" "incr.reused" reused;
  { merged = r.Build.merged; units; reanalyzed; reused; skipped;
    fallback = true; groups_reused = 0; groups_remerged = 0;
    wall_seconds = Unix.gettimeofday () -. t0 }

(** Incremental build: reuse everything whose dependency fingerprint is
    unchanged since the recorded state, re-analyze the rest, and splice
    the delta through memoized partial merges.  Byte-identical to
    {!Build.build} over the same sources.  Requires a cache directory;
    any failure of the delta path (including injected faults) falls back
    to a full build-and-remerge. *)
let build ?(options = default_options) ~vfs (sources : string list) : result =
  Trace.span ~cat:"incr" "incr.build" @@ fun () ->
  match options.build.Build.cache_dir with
  | None -> full_build ~options ~vfs sources ~reason:"cache disabled"
  | Some _ -> (
      try delta_build ~options ~vfs sources
      with e ->
        Trace.count ~cat:"incr" "incr.fallback" 0;
        if Trace.on () then
          Trace.instant ~cat:"incr"
            ~args:[ ("error", Trace.Str (Printexc.to_string e)) ]
            "incr.fallback";
        full_build ~options ~vfs sources
          ~reason:
            (Printf.sprintf "delta path failed (%s): full remerge"
               (Printexc.to_string e)))
