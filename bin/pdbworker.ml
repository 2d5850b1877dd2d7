(* pdbworker — one build-farm worker process.

   Spawned by the farm driver (lib/build/farm.ml) with a socketpair on
   stdin/stdout; speaks the Farm_proto frame protocol (DESIGN.md §8).
   Lifecycle: read Config → send Hello → loop {read Unit → build → send
   Result} → Quit.  A heartbeat thread ticks every heartbeat_ms so the
   driver can tell "compiling a big unit" from "wedged".

   The worker is crash-only: any protocol confusion, I/O error or internal
   failure exits immediately — no cleanup, no handshake.  The driver
   treats the EOF as a crash, requeues the in-flight unit and respawns;
   the cache's tmp+rename discipline and the driver's stale-tmp sweep make
   that safe.  Fault schedules arrive via PDT_FAULT_SPEC (the process
   cannot be armed by function call), enabling the worker-kill axis of the
   robustness matrix:

     farm.worker.kill   SIGKILL self mid-unit (checked before and after
                        the compile, so both halves of the window fire)
     farm.worker.wedge  stop heartbeating and hang — the driver's
                        liveness timeout must kill us
     farm.worker.torn   write half a Result frame and exit — the driver
                        must treat the torn frame as a crash

   plus every in-process site (cache.write.torn, vfs.read, ...) armed by
   the same schedule, now running under real process isolation. *)

open Pdt_util
module P = Pdt_build.Farm_proto
module B = Pdt_build.Build

let in_fd = Unix.stdin
let out_fd = Unix.stdout

(* all frame writes (results + heartbeats) go through one mutex so frames
   never interleave *)
let write_mutex = Mutex.create ()

let send (m : P.msg) : unit =
  Mutex.lock write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock write_mutex)
    (fun () -> P.write_frame out_fd (P.encode m))

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "pdbworker[%d]: %s\n%!" (Unix.getpid ()) msg;
      exit 2)
    fmt

(* a wedged worker stops heartbeating; the flag is read by the heartbeat
   thread between ticks *)
let wedged = Atomic.make false

(* unit in flight, for heartbeat frames; P.no_unit when idle *)
let current_unit = Atomic.make P.no_unit

let heartbeat_loop period_s =
  while true do
    Thread.delay period_s;
    if not (Atomic.get wedged) then begin
      match send (P.Heartbeat { unit_id = Atomic.get current_unit }) with
      | () -> ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
          (* driver is gone; nothing left to live for *)
          exit 0
    end
  done

let self_kill () =
  (* SIGKILL, not exit: no OCaml at_exit, no buffers flushed — the real
     crash the farm claims to survive *)
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* unreachable; keep the type checker honest *)
  exit 2

let wedge () =
  Atomic.set wedged true;
  (* hang well past any deadline the driver could be configured with *)
  Unix.sleep 3600;
  exit 2

(* write a deliberately torn Result frame: the 4-byte length promises more
   than we deliver, then the process exits.  The driver's assembler never
   completes the frame; EOF lands first → crash path. *)
let torn_result (payload : string) =
  Mutex.lock write_mutex;
  (try P.write_all out_fd (P.frame payload) 0 (4 + (String.length payload / 2))
   with Unix.Unix_error _ -> ());
  exit 2

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  ignore (Fault.arm_from_env ());
  let options, vfs, heartbeat_ms =
    match P.read_frame in_fd with
    | Some payload -> (
        match P.decode payload with
        | P.Config
            { options; include_paths; disk_fallback; files; heartbeat_ms } ->
            ( options,
              P.vfs_of_files ~include_paths ~disk_fallback files,
              heartbeat_ms )
        | _ -> die "first frame is not Config")
    | None -> exit 0
    | exception P.Proto_error msg -> die "bad Config frame: %s" msg
  in
  let cache =
    Option.map (fun dir -> Pdt_build.Cache.create ~dir ()) options.B.cache_dir
  in
  (* one front-end memo for every unit this worker compiles *)
  let memo = Pdt.memo () in
  let period_s = float_of_int (max 1 heartbeat_ms) /. 1000.0 in
  ignore (Thread.create heartbeat_loop period_s);
  (try send (P.Hello { version = P.version; pid = Unix.getpid () })
   with Unix.Unix_error _ | Sys_error _ -> exit 0);
  let rec serve () =
    match P.read_frame in_fd with
    | None -> exit 0 (* driver closed: done *)
    | exception P.Proto_error msg -> die "bad frame from driver: %s" msg
    | Some payload -> (
        match P.decode payload with
        | exception P.Proto_error msg -> die "undecodable frame: %s" msg
        | P.Quit -> exit 0
        | P.Unit { id; source } ->
            Atomic.set current_unit id;
            (* mid-unit fault window, first half: after dispatch, before
               any work *)
            if Fault.should "farm.worker.kill" then self_kill ();
            if Fault.should "farm.worker.wedge" then wedge ();
            let u = B.build_unit ~memo options cache ~vfs source in
            (* second half: work done, result not yet delivered *)
            if Fault.should "farm.worker.kill" then self_kill ();
            (* ship the bytes the unit was stored or loaded as; only a
               unit without them (no cache, degraded, cone-truncated) is
               serialized here *)
            let pdb =
              match u.B.bytes with
              | Some _ as bytes -> bytes
              | None -> Option.map Pdt_pdb.Pdb_write.to_string u.B.pdb
            in
            let result =
              P.Result
                { id; status = u.B.status; pdb; seconds = u.B.seconds;
                  deps = u.B.deps; cone_truncated = u.B.cone_truncated }
            in
            if Fault.should "farm.worker.torn" then
              torn_result (P.encode result);
            (try send result
             with Unix.Unix_error _ | Sys_error _ -> exit 0);
            Atomic.set current_unit P.no_unit;
            serve ()
        | P.Config _ | P.Hello _ | P.Result _ | P.Heartbeat _ ->
            die "unexpected frame tag from driver")
  in
  serve ()
