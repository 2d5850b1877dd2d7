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
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr (n land 0xff));
  Bytes.set hdr 1 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set hdr 2 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set hdr 3 (Char.chr ((n lsr 24) land 0xff));
  let half = Bytes.cat hdr (Bytes.of_string (String.sub payload 0 (n / 2))) in
  Mutex.lock write_mutex;
  (try
     let rec w off len =
       if len > 0 then
         let k = Unix.write out_fd half off len in
         w (off + k) (len - k)
     in
     w 0 (Bytes.length half)
   with Unix.Unix_error _ -> ());
  exit 2

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  ignore (Fault.arm_from_env ());
  let config =
    match P.read_frame in_fd with
    | Some payload -> (
        match P.decode payload with
        | P.Config c -> c
        | _ -> die "first frame is not Config")
    | None -> exit 0
    | exception P.Proto_error msg -> die "bad Config frame: %s" msg
  in
  let options = P.options_of_config config in
  let vfs = P.vfs_of_config config in
  let cache =
    Option.map (fun dir -> Pdt_build.Cache.create ~dir ()) options.B.cache_dir
  in
  (* one front-end memo for every unit this worker compiles *)
  let memo = Pdt.memo () in
  let period_s = float_of_int (max 1 config.P.c_heartbeat_ms) /. 1000.0 in
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
            let status, message =
              match u.B.status with
              | B.Compiled -> (P.S_compiled, "")
              | B.Cached -> (P.S_cached, "")
              | B.Degraded m -> (P.S_degraded, m)
              | B.Failed m -> (P.S_failed, m)
              | B.Skipped -> (P.S_failed, "worker: unit skipped unexpectedly")
            in
            let pdb = Option.map Pdt_pdb.Pdb_write.to_string u.B.pdb in
            let result =
              P.Result
                { id; status; message; pdb; seconds = u.B.seconds;
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
