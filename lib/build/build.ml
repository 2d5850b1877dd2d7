(** The project build orchestrator behind [pdbbuild].

    The paper's workflow is inherently multi-translation-unit: every
    compilation emits its own PDB and pdbmerge eliminates the duplicate
    template instantiations across them (Table 2).  This module runs that
    workflow at project granularity:

    - each translation unit (C++, Fortran 90 or Java, dispatched on the
      file extension exactly like [pdtc]) compiles to a PDB on a fixed
      pool of {!Scheduler} domains;
    - an incremental {!Cache} short-circuits units whose preprocessed
      input closure and options are unchanged;
    - per-unit failures are isolated: a unit that fails to compile is
      reported in the summary and the remaining PDBs still merge;
    - every build ends in one flat {!Pdt_ductape.Ductape.merge} of the
      surviving PDBs ({!result_of_units}, shared with {!Farm}).  The merge
      is canonical — independent of input order {e and} grouping — so the
      output is byte-identical across domain counts, to a [--farm] or
      [--incremental] build, and to a single-TU + pdbmerge build.

    This module is the one place a translation unit is compiled
    ({!compile_unit}, which [pdtc] runs too), built through the cache
    ({!build_unit}, which each farm worker runs) and scheduled
    ({!run_units}, the pool under both [build] and
    {!Incremental.delta_build}).

    A build makes one {!Pdt.memo} and compiles every unit with it: the
    second unit to include a header keeps its lex for the units after it,
    and the second to open with the same header tokens keeps their parse.

    The pipeline phases report wall time into {!Pdt_util.Trace} counters
    ([compile], with [pp.run], [parse.tu], [sema.analyze] and
    [analyzer.run] inside it; [cache.key], [cache.load], [cache.store],
    plus [pdb.parse]/[pdb.write]/[pdb.merge] from the PDB layer); [pdbbuild
    --stats] prints them. *)

open Pdt_util

type language = Cpp | Fortran | Java

let language_of_source path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".f90" | ".f95" | ".f" -> Fortran
  | ".java" -> Java
  | _ -> Cpp

type options = {
  domains : int;             (** worker domains; 1 = sequential *)
  cache_dir : string option; (** [None] disables the incremental cache *)
  retries : int;             (** extra attempts per unit on transient
                                 failures (injected faults, [Sys_error]);
                                 deterministic diagnostics never retry *)
  fail_fast : bool;          (** stop scheduling new units after the first
                                 failure; unscheduled units are [Skipped].
                                 Also strict mode: recoverable front-end
                                 errors fail the unit instead of degrading *)
  sema : Pdt_sema.Sema.options;
  mapping : Pdt_analyzer.Analyzer.mapping;
  limits : Limits.budgets;   (** front-end resource budgets per unit *)
}

let default_options =
  { domains = 1;
    cache_dir = Some Cache.default_dir;
    retries = 2;
    fail_fast = false;
    sema = Pdt_sema.Sema.default_options;
    mapping = Pdt_analyzer.Analyzer.Location_based;
    limits = Limits.default_budgets }

(* Everything that can change a unit's PDB besides its input content; part
   of the cache key.  Bump Cache.format_version instead when the PDB format
   itself changes.  The resource budgets belong here: a unit compiled under
   a generous include-depth budget and one compiled under a tight budget
   that truncates its cone produce different (Degraded) PDBs from identical
   inputs, so budgets must separate their cache keys. *)
let options_fingerprint (o : options) (source : string) =
  let l = o.limits in
  Printf.sprintf
    "lang=%s used=%b spec=%b mapping=%s \
     limits=%d,%d,%d,%d,%d,%d"
    (match language_of_source source with
     | Cpp -> "cpp" | Fortran -> "f90" | Java -> "java")
    o.sema.Pdt_sema.Sema.instantiate_used
    o.sema.Pdt_sema.Sema.map_specializations
    (match o.mapping with
     | Pdt_analyzer.Analyzer.Location_based -> "location"
     | Pdt_analyzer.Analyzer.Il_ids -> "ids")
    l.Limits.max_include_depth l.Limits.max_macro_depth l.Limits.max_tokens
    l.Limits.max_parse_depth l.Limits.max_instantiation_depth
    l.Limits.max_errors

type status =
  | Compiled            (** compiled this run (cache miss or no cache) *)
  | Cached              (** loaded from the incremental cache *)
  | Degraded of string  (** compiled with recoverable errors: the partial
                            PDB (marked [incomplete]) still merges, but the
                            unit is reported and never cached *)
  | Failed of string    (** diagnostics / exception text; unit excluded *)
  | Skipped             (** never scheduled: fail-fast stopped the build *)

type unit_result = {
  source : string;
  status : status;
  pdb : Pdt_pdb.Pdb.t option;  (** [None] iff [Failed] or [Skipped] *)
  seconds : float;
  deps : string list;
      (** normalized VFS paths read while compiling (source + actual
          include cone), sorted; [[]] when the unit was served from the
          cache or produced no PDB — the compile never ran, so nothing
          was observed *)
  cone_truncated : bool;
      (** the preprocessor hit the include-depth budget: [deps] misses the
          skipped subtree, so the unit must never be treated as reusable
          by dependency fingerprint *)
  bytes : string option;
      (** the canonical ASCII of [pdb] ({!Pdt_pdb.Pdb_write}) as
          {!build_unit} stored or loaded it, for [pdbworker] to ship, or a
          farm Result payload.  [None] when no bytes were made — no cache,
          a degraded or cone-truncated unit, no PDB — and in process:
          {!run_units} drops them, since the merge needs only [digest] *)
  digest : string option;
      (** {!Pdt_pdb.Pdb_digest} of [pdb], the MD5 of its canonical ASCII;
          [None] when no bytes were made, and then {!merge_inputs}
          digests the PDB itself *)
}

(** The result of a unit that produced no PDB: [Failed] or [Skipped]
    before any work was timed. *)
let no_pdb source status =
  { source; status; pdb = None; seconds = 0.0; deps = [];
    cone_truncated = false; bytes = None; digest = None }

type result = {
  merged : Pdt_pdb.Pdb.t;      (** merge of every successful unit *)
  units : unit_result list;    (** in input order, not completion order *)
  compiled : int;
  cached : int;
  degraded : int;              (** partial PDBs merged despite errors *)
  failed : int;
  skipped : int;               (** only nonzero under [fail_fast] *)
  wall_seconds : float;
  cpu_seconds : float;         (** sum of per-unit times across workers *)
}

exception Unit_error of string
(** A translation unit's front end reported errors. *)

(** What one fresh compile produced: the PDB, the degradation report
    ([Some diags_text] when the C++ front end recovered from errors and
    the PDB is partial — keep-going mode only; under [fail_fast]
    recoverable errors raise [Unit_error]), the unit's whole diagnostic
    text, warnings included ([""] when there is none), the recorded
    dependency set and whether the include cone was truncated by the depth
    budget. *)
type compiled = {
  c_pdb : Pdt_pdb.Pdb.t;
  c_degraded : string option;
  c_diags : string;
  c_deps : string list;
  c_truncated : bool;
}

(** Compile one unit, C++, Fortran 90 or Java by its extension, against a
    private VFS copy (domains must not share the mutable Hashtbl inside
    Vfs.t) and run the IL Analyzer: Figure 2's front end and IL Analyzer,
    for [pdtc] and every project driver.  A read recorder on the private
    copy captures the unit's true dependency set — every file the
    preprocessor actually opened — for incremental rebuilds.  [memo] is
    the build's {!Pdt.memo}.  Raises [Unit_error] with the diagnostic
    text when the unit cannot yield a PDB, and lets the front end's
    {!Diag.Error} (a source it cannot open) through. *)
let compile_unit ?memo (o : options) ~vfs source : compiled =
  let vfs = Vfs.copy vfs in
  let seen = Hashtbl.create 16 in
  let reads = ref [] in
  Vfs.set_recorder vfs
    (Some
       (fun path ->
         if not (Hashtbl.mem seen path) then begin
           Hashtbl.replace seen path ();
           reads := path :: !reads
         end));
  let deps () = List.sort compare !reads in
  let analyze ?opts prog =
    Trace.timed ~cat:"analyzer" "analyzer.run" (fun () ->
        Pdt_analyzer.Analyzer.run ?opts prog)
  in
  match language_of_source source with
  | Fortran | Java -> (
      match Vfs.read_raw vfs source with
      | None -> raise (Unit_error (Printf.sprintf "%s: no such file" source))
      | Some src ->
          let diags = Diag.create () in
          let prog =
            match language_of_source source with
            | Fortran -> Pdt_f90.F90_sema.compile_string ~file:source ~diags src
            | _ -> Pdt_java.Java_sema.compile_string ~file:source ~diags src
          in
          let text = Diag.to_string diags in
          if Diag.has_errors diags then raise (Unit_error text);
          { c_pdb = analyze prog; c_degraded = None; c_diags = text;
            c_deps = deps (); c_truncated = false })
  | Cpp ->
      let limits = Limits.create ~budgets:o.limits () in
      let c = Pdt.compile ~opts:o.sema ~limits ?memo ~vfs source in
      let text = Diag.to_string c.Pdt.diags in
      let degraded = Diag.has_errors c.Pdt.diags in
      if o.fail_fast && degraded then raise (Unit_error text);
      let aopts =
        { Pdt_analyzer.Analyzer.default_options with mapping = o.mapping }
      in
      let pdb = analyze ~opts:aopts c.Pdt.program in
      if degraded then begin
        pdb.Pdt_pdb.Pdb.incomplete <- true;
        pdb.Pdt_pdb.Pdb.diag_count <- Diag.error_count c.Pdt.diags
      end;
      { c_pdb = pdb; c_degraded = (if degraded then Some text else None);
        c_diags = text; c_deps = deps ();
        c_truncated = c.Pdt.pp.Pdt_pp.Preproc.include_depth_exceeded }

(* One scheduler task: cache lookup, else compile and fill the cache.
   Never raises — failure is data here, not control flow.

   The retry policy lives here: a transient failure (an injected fault or
   a [Sys_error] — vanished file, flaky I/O) gets up to [o.retries] extra
   attempts, each counted under the [build.retry] counter; a
   deterministic front-end diagnostic fails fast, because re-running the
   same compile would only reproduce it. *)
let build_unit ?memo (o : options) (cache : Cache.t option) ~vfs source :
    unit_result =
  let run () =
  let t0 = Unix.gettimeofday () in
  let finish ?(deps = []) ?(cone_truncated = false) ?bytes ?digest status pdb =
    { source; status; pdb; seconds = Unix.gettimeofday () -. t0;
      deps; cone_truncated; bytes; digest }
  in
  (* a failed store never sinks the unit — the PDB is in hand and the next
     build simply misses; count the loss so --stats surfaces it *)
  let store_entry c k ~digest body =
    try
      Trace.timed ~cat:"cache" "cache.store" (fun () ->
          Cache.store_serialized ~digest c k body)
    with e when Fault.is_transient e -> Trace.count ~cat:"cache" "cache.store_failed" 0
  in
  let attempt () =
    let key =
      Option.map
        (fun c -> Cache.key ~cache:c ~vfs ~options:(options_fingerprint o source) source)
        cache
    in
    match (cache, key) with
    | Some c, Some k -> (
        match
          Trace.timed ~cat:"cache" "cache.load" (fun () -> Cache.load c k)
        with
        | Some (pdb, bytes, digest) ->
            Trace.count ~cat:"cache" "cache.hit" 0;
            finish ~bytes ~digest Cached (Some pdb)
        | None -> (
            Trace.count ~cat:"cache" "cache.miss" 0;
            match Trace.timed ~cat:"build" "compile" (fun () -> compile_unit ?memo o ~vfs source) with
            | { c_pdb = pdb; c_degraded = None; c_deps; c_truncated; _ } ->
                (* serialize and hash once; the entry, its header, the
                   merge digest and a farm Result reuse them.  A
                   truncated-cone unit is never stored: its key misses the
                   skipped include subtree, so a later edit to that
                   subtree could not invalidate the entry *)
                if c_truncated then
                  finish ~deps:c_deps ~cone_truncated:true Compiled (Some pdb)
                else begin
                  let bytes = Pdt_pdb.Pdb_write.to_string pdb in
                  let digest = Pdt_pdb.Pdb_digest.of_string bytes in
                  store_entry c k ~digest bytes;
                  finish ~deps:c_deps ~bytes ~digest Compiled (Some pdb)
                end
            | { c_pdb = pdb; c_degraded = Some msg; c_deps; c_truncated; _ } ->
                (* a partial PDB never enters the cache: fixing the source
                   must recompile, not replay the degraded artifact *)
                finish ~deps:c_deps ~cone_truncated:c_truncated
                  (Degraded msg) (Some pdb)))
    | _ -> (
        match Trace.timed ~cat:"build" "compile" (fun () -> compile_unit ?memo o ~vfs source) with
        | { c_pdb = pdb; c_degraded = None; c_deps; c_truncated; _ } ->
            finish ~deps:c_deps ~cone_truncated:c_truncated Compiled (Some pdb)
        | { c_pdb = pdb; c_degraded = Some msg; c_deps; c_truncated; _ } ->
            finish ~deps:c_deps ~cone_truncated:c_truncated (Degraded msg)
              (Some pdb))
  in
  let rec go attempts_left =
    try attempt () with
    | Unit_error msg -> finish (Failed msg) None
    | Diag.Error d -> finish (Failed (Fmt.str "%a" Diag.pp_diagnostic d)) None
    | e when Fault.is_transient e && attempts_left > 0 ->
        Trace.count ~cat:"build" "build.retry" 0;
        go (attempts_left - 1)
    | e when Fault.is_transient e ->
        finish
          (Failed
             (Printf.sprintf "transient failure persisted after %d attempts: %s"
                (max 0 o.retries + 1) (Printexc.to_string e)))
          None
    | e -> finish (Failed (Printexc.to_string e)) None
  in
  go (max 0 o.retries)
  in
  if Trace.on () then
    Trace.span ~cat:"build" ~args:[ ("unit", Trace.Str source) ] "build.unit" run
  else run ()

(** The (digest, PDB) pairs {!Pdt_ductape.Ductape.merge_digested} takes
    for the units that produced a PDB: the digest in hand, else one taken
    by serializing the PDB. *)
let merge_inputs (units : unit_result list) : (string * Pdt_pdb.Pdb.t) list =
  List.filter_map
    (fun u ->
      match (u.pdb, u.digest) with
      | Some pdb, Some d -> Some (d, pdb)
      | Some pdb, None -> Some (Pdt_pdb.Pdb_digest.of_pdb pdb, pdb)
      | None, _ -> None)
    units

(** The epilogue every project driver shares: merge the units' PDBs with
    the flat {!Pdt_ductape.Ductape.merge_digested} and count the statuses.
    [t0] is the build's start time, for [wall_seconds]. *)
let result_of_units ~t0 (units : unit_result list) : result =
  let merged = Pdt_ductape.Ductape.merge_digested (merge_inputs units) in
  let count p = List.length (List.filter p units) in
  { merged;
    units;
    compiled = count (fun u -> u.status = Compiled);
    cached = count (fun u -> u.status = Cached);
    degraded = count (fun u -> match u.status with Degraded _ -> true | _ -> false);
    failed = count (fun u -> match u.status with Failed _ -> true | _ -> false);
    skipped = count (fun u -> u.status = Skipped);
    wall_seconds = Unix.gettimeofday () -. t0;
    cpu_seconds = List.fold_left (fun a u -> a +. u.seconds) 0.0 units }

(** The unit runner under every in-process build: [build_unit] over
    [sources] on a pool of [o.domains] {!Scheduler} domains sharing one
    {!Pdt.memo}, results in input order and without [bytes].  Under
    [o.fail_fast] the first failure stops the pool, and the units it
    never started are [Skipped].
    A unit whose worker faulted before it ran (flaky-worker injection, a
    lost job) gets one sequential redo, which brings [build_unit]'s own
    retry budget with it. *)
let run_units (o : options) (cache : Cache.t option) ~vfs
    (sources : string array) : unit_result array =
  let aborted = Atomic.make false in
  let memo = Pdt.memo () in
  let task source =
    let u = { (build_unit ~memo o cache ~vfs source) with bytes = None } in
    (match u.status with
     | Failed _ when o.fail_fast -> Atomic.set aborted true
     | _ -> ());
    u
  in
  Scheduler.parallel_map ~domains:o.domains
    ~should_stop:(fun () -> Atomic.get aborted)
    task sources
  |> Array.mapi (fun i -> function
       | Ok u -> u
       | Error Scheduler.Cancelled -> no_pdb sources.(i) Skipped
       | Error e when Fault.is_transient e && o.retries > 0 ->
           Trace.count ~cat:"build" "build.retry" 0;
           task sources.(i)
       | Error e -> no_pdb sources.(i) (Failed (Printexc.to_string e)))

(** Build a project: compile every source to a PDB (in parallel, through
    the cache) and merge the survivors.  Sources are deduplicated nowhere —
    the caller's list is the build plan. *)
let build ?(options = default_options) ~vfs (sources : string list) : result =
  let t0 = Unix.gettimeofday () in
  let cache = Option.map (fun dir -> Cache.create ~dir ()) options.cache_dir in
  result_of_units ~t0
    (Array.to_list (run_units options cache ~vfs (Array.of_list sources)))

(** The one-line build report: [N compiled, M cached, K failed, wall time,
    speedup] — speedup is summed per-unit time over wall time, i.e. the
    effective parallelism (1.0x when sequential and cold).  Skipped units
    (fail-fast) are reported only when present. *)
let summary (r : result) : string =
  Printf.sprintf "%d compiled, %d cached, %d failed%s%s | %.3fs wall, %.3fs cpu, %.2fx speedup"
    r.compiled r.cached r.failed
    (if r.degraded > 0 then Printf.sprintf ", %d degraded" r.degraded else "")
    (if r.skipped > 0 then Printf.sprintf ", %d skipped" r.skipped else "")
    r.wall_seconds r.cpu_seconds
    (if r.wall_seconds > 0.0 then r.cpu_seconds /. r.wall_seconds else 1.0)

(** Failure details for the units that failed, in input order. *)
let failures (r : result) : (string * string) list =
  List.filter_map
    (fun u -> match u.status with Failed m -> Some (u.source, m) | _ -> None)
    r.units

(** Diagnostics for the units that compiled degraded, in input order. *)
let degraded_units (r : result) : (string * string) list =
  List.filter_map
    (fun u -> match u.status with Degraded m -> Some (u.source, m) | _ -> None)
    r.units
