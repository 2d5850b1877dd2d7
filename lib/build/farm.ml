(** The process-supervised build farm behind [pdbbuild --farm N].

    {!Scheduler} runs workers as OCaml 5 Domains: cheap, but one unit that
    segfaults the runtime, wedges, or exhausts memory takes the whole
    build down.  The farm trades startup cost for {e crash isolation}: N
    [pdbworker] processes, each fork/exec'd with a {!Farm_proto} socketpair
    on stdin/stdout, each compiling one translation unit at a time against
    the shared {!Cache} directory.  The driver is a single-threaded
    [select] loop that owns all policy:

    - {e dispatch}: pending units go to idle workers in submission order;
      results land in per-index slots, so output order (and hence the
      merge) is deterministic regardless of completion order;
    - {e liveness}: a worker that sends no frame (result or heartbeat)
      within [liveness_timeout] is wedged → SIGKILL; a unit in flight
      longer than [unit_deadline] → SIGKILL.  Kills are indistinguishable
      from crashes downstream, which is the point: one recovery path;
    - {e crash-only recovery}: any worker death — exit, signal, torn or
      malformed frame — reaps the process, requeues its in-flight unit
      (up to the build's retry budget, then a clean [Failed]), and
      respawns the slot under exponential backoff with a global respawn
      budget.  A crash therefore yields a retried or cleanly-failed unit,
      never a hung build; half-written cache entries cannot happen by the
      cache's tmp+rename discipline, and debris temp files are swept by
      pid liveness before and after the run;
    - {e pool exhaustion}: when every slot is dead and the respawn budget
      is spent, remaining units fail with a diagnostic — degraded output
      over no output.

    The final slot sweep goes through {!Scheduler.reconcile}, the same
    lost-slot-becomes-Error policy the Domain pool uses: even a
    supervisor bug that loses track of a unit surfaces as that unit's
    [Error], never a silent drop.

    Counters: [farm.spawn], [farm.respawn], [farm.crash] (worker
    died on its own), [farm.kill] (driver killed it), [farm.dispatch],
    [farm.result], [farm.requeue], [cache.tmp_swept]. *)

open Pdt_util

type config = {
  workers : int;
  heartbeat_ms : int;        (** worker-side heartbeat period *)
  liveness_timeout : float;  (** s without any frame → wedged, SIGKILL *)
  unit_deadline : float;     (** s per unit in flight → SIGKILL *)
  max_respawns : int;        (** global respawn budget across the build *)
  backoff_initial : float;   (** first respawn delay, doubled per respawn
                                 of the same slot, capped at [backoff_max] *)
  backoff_max : float;
  worker_exe : string option;  (** override the [pdbworker] binary path *)
}

let default_config =
  { workers = 2;
    heartbeat_ms = 25;
    liveness_timeout = 2.0;
    unit_deadline = 120.0;
    max_respawns = 16;
    backoff_initial = 0.05;
    backoff_max = 1.0;
    worker_exe = None }

(** Locate the worker binary: [PDT_PDBWORKER] override, then next to the
    running executable, then the sibling [bin/] directory (the dune
    layout, where tests run from [_build/default/test]). *)
let find_worker () : string option =
  let candidates =
    (match Sys.getenv_opt "PDT_PDBWORKER" with Some p -> [ p ] | None -> [])
    @ (let d = Filename.dirname Sys.executable_name in
       [ Filename.concat d "pdbworker.exe";
         Filename.concat
           (Filename.concat (Filename.dirname d) "bin")
           "pdbworker.exe" ])
  in
  List.find_opt (fun p -> Sys.file_exists p && not (Sys.is_directory p)) candidates

(* ------------------------------------------------------------------ *)
(* Worker slots                                                        *)
(* ------------------------------------------------------------------ *)

type slot = {
  index : int;
  mutable pid : int;                    (* -1 = no process *)
  mutable fd : Unix.file_descr option;  (* driver end of the socketpair *)
  mutable asm : Farm_proto.Assembler.t;
  mutable ready : bool;                 (* Hello received *)
  mutable unit_id : int option;         (* in-flight unit index *)
  mutable dispatched_at : float;
  mutable last_seen : float;
  mutable respawns : int;               (* per-slot, drives backoff *)
  mutable respawn_at : float;           (* earliest next spawn; infinity =
                                           permanently retired *)
}

let close_slot_fd (w : slot) =
  (match w.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  w.fd <- None

(* Reap, blocking briefly: a SIGKILLed child is reapable almost
   immediately; don't let a pathological case hang the driver. *)
let reap_pid pid =
  if pid > 0 then begin
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> if Unix.gettimeofday () < deadline then (Unix.sleepf 0.002; go ())
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  end

let kill_slot (w : slot) =
  if w.pid > 0 then begin
    Trace.count ~cat:"farm" "farm.kill" 0;
    (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap_pid w.pid
  end;
  close_slot_fd w;
  w.pid <- -1;
  w.ready <- false

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

exception Farm_unavailable of string
(** No usable worker binary; the caller (pdbbuild) falls back to the
    in-process Domain pool. *)

let unit_result_of_result ~source (r : Farm_proto.msg) : Build.unit_result =
  match r with
  | Farm_proto.Result
      { status; pdb = wire_pdb; seconds; deps; cone_truncated; _ } ->
      (* the payload is the canonical ASCII of the PDB the worker built,
         so the unit keeps those bytes and the merge digest comes from
         them.  A parse failure means the Result frame body was corrupted
         in transit — treat as a failed unit, not a crash *)
      let unit ?pdb ?bytes ?digest status =
        { Build.source; status; pdb; seconds; deps; cone_truncated; bytes; digest }
      in
      (match wire_pdb with
       | None -> unit status
       | Some s -> (
           match Pdt_pdb.Pdb_parse.of_string s with
           | pdb -> unit ~pdb ~bytes:s ~digest:(Pdt_pdb.Pdb_digest.of_string s) status
           | exception _ -> unit (Build.Failed "farm: undecodable PDB in result frame")))
  | _ -> invalid_arg "unit_result_of_result"

let backoff_delay (c : config) (respawns : int) : float =
  min c.backoff_max (c.backoff_initial *. (2.0 ** float_of_int (respawns - 1)))

(** Build [sources] on a farm of [config.workers] processes.  Drop-in for
    {!Build.build}: same status semantics, and the result comes from the
    same {!Build.result_of_units} epilogue (one flat merge), so pdbbuild's
    summary and exit codes need no farm-specific paths.  Raises
    {!Farm_unavailable} if no worker binary can be found. *)
let build ?(config = default_config) ?(options = Build.default_options) ~vfs
    (sources : string list) : Build.result =
  let exe =
    match (config.worker_exe, find_worker ()) with
    | Some e, _ when Sys.file_exists e -> e
    | Some e, _ -> raise (Farm_unavailable ("no worker binary at " ^ e))
    | None, Some e -> e
    | None, None -> raise (Farm_unavailable "pdbworker.exe not found")
  in
  let t0 = Unix.gettimeofday () in
  (* a worker dying mid-write must not SIGPIPE the driver *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore_sigpipe () =
    match prev_sigpipe with
    | Some b -> ( try Sys.set_signal Sys.sigpipe b with _ -> ())
    | None -> ()
  in
  Fun.protect ~finally:restore_sigpipe @@ fun () ->
  let cache = Option.map (fun dir -> Cache.create ~dir ()) options.Build.cache_dir in
  Option.iter (fun c -> ignore (Cache.sweep_stale_tmps c)) cache;
  let n_units = List.length sources in
  let n_workers = max 1 (min config.workers (max 1 n_units)) in
  let tasks = Array.of_list sources in
  let n = Array.length tasks in
  let results : (Build.unit_result, exn) result option array = Array.make n None in
  let attempts = Array.make n 0 in
  let pending : int Queue.t = Queue.create () in
  Array.iteri (fun i _ -> Queue.push i pending) tasks;
  let outstanding = ref n in
  let aborted = ref false in          (* fail_fast tripped *)
  let respawn_budget = ref config.max_respawns in
  let config_frame =
    Farm_proto.encode
      (Farm_proto.config options ~vfs ~heartbeat_ms:config.heartbeat_ms)
  in
  let slots =
    Array.init n_workers (fun index ->
        { index; pid = -1; fd = None; asm = Farm_proto.Assembler.create ();
          ready = false; unit_id = None; dispatched_at = 0.0;
          last_seen = 0.0; respawns = 0; respawn_at = 0.0 })
  in
  (* Fault schedules ride the environment into workers (Fault.arm_from_env).
     A respawned process restarts its occurrence counters at zero, so
     without correction every worker life replays the same schedule prefix
     — a mid-schedule kill would kill every successor at the same spot and
     no injected-kill run could ever recover.  Appending a distinct
     [skip=] offset per spawn makes each worker life sample a fresh window
     of the same seeded stream: deterministic per (seed, spawn serial),
     but respawns move past the fatal occurrence at any rate < 1. *)
  let spawn_serial = ref 0 in
  let env_for_spawn () : string array option =
    incr spawn_serial;
    match Sys.getenv_opt Fault.env_var with
    | None -> None
    | Some spec when String.trim spec = "" -> None
    | Some spec ->
        let augmented =
          Printf.sprintf "%s;skip=%d" spec ((!spawn_serial - 1) * 1009)
        in
        let prefix = Fault.env_var ^ "=" in
        let plen = String.length prefix in
        let replaced = ref false in
        let env =
          Array.map
            (fun kv ->
              if String.length kv >= plen && String.sub kv 0 plen = prefix
              then begin
                replaced := true;
                prefix ^ augmented
              end
              else kv)
            (Unix.environment ())
        in
        Some
          (if !replaced then env
           else Array.append env [| prefix ^ augmented |])
  in
  let record i (r : (Build.unit_result, exn) result) =
    if results.(i) = None then begin
      results.(i) <- Some r;
      decr outstanding
    end
  in
  (* send, treating a write failure as the worker having died: the crash
     handler picks the pieces up on the next loop turn via EOF *)
  let send (w : slot) (m : Farm_proto.msg) : bool =
    match w.fd with
    | None -> false
    | Some fd -> (
        try
          Farm_proto.write_frame fd (Farm_proto.encode m);
          true
        with Unix.Unix_error _ | Sys_error _ -> false)
  in
  let spawn (w : slot) =
    let parent_fd, child_fd =
      Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    in
    Unix.clear_close_on_exec child_fd;
    let pid =
      try
        match env_for_spawn () with
        | Some env ->
            Unix.create_process_env exe [| exe |] env child_fd child_fd
              Unix.stderr
        | None -> Unix.create_process exe [| exe |] child_fd child_fd Unix.stderr
      with e ->
        (try Unix.close parent_fd with Unix.Unix_error _ -> ());
        (try Unix.close child_fd with Unix.Unix_error _ -> ());
        raise e
    in
    (try Unix.close child_fd with Unix.Unix_error _ -> ());
    w.pid <- pid;
    w.fd <- Some parent_fd;
    w.asm <- Farm_proto.Assembler.create ();
    w.ready <- false;
    w.unit_id <- None;
    w.last_seen <- Unix.gettimeofday ();
    Trace.count ~cat:"farm"
      ~args:
        (if Trace.on () then
           [ ("slot", Trace.Int w.index); ("pid", Trace.Int pid) ]
         else [])
      "farm.spawn" 0;
    (* ship the Config; the worker's first act is to drain it, so the
       blocking write completes even when the table exceeds the socket
       buffer.  A write failure means the child is already dead — the
       EOF surfaces on the next select turn. *)
    match w.fd with
    | Some fd -> (
        try Farm_proto.write_frame fd config_frame
        with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ()
  in
  (* worker [w] is gone (crash, kill, torn frame): requeue or fail its
     in-flight unit, then schedule the slot's respawn under backoff *)
  let handle_death (w : slot) ~(why : string) =
    (match w.unit_id with
    | Some i when results.(i) = None ->
        if attempts.(i) <= options.Build.retries && not !aborted then begin
          Trace.count ~cat:"farm" "farm.requeue" 0;
          Queue.push i pending
        end
        else
          record i
            (Ok
               (Build.no_pdb tasks.(i)
                  (Build.Failed
                    (Printf.sprintf
                       "farm: worker %s with unit in flight (attempt %d/%d)"
                       why attempts.(i) (options.Build.retries + 1)))))
    | _ -> ());
    w.unit_id <- None;
    close_slot_fd w;
    if w.pid > 0 then begin
      (* harmless on an already-exited child; necessary after a read
         error from a still-live one *)
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap_pid w.pid
    end;
    w.pid <- -1;
    w.ready <- false;
    if !respawn_budget > 0 && not !aborted then begin
      decr respawn_budget;
      w.respawns <- w.respawns + 1;
      w.respawn_at <- Unix.gettimeofday () +. backoff_delay config w.respawns;
      Trace.count ~cat:"farm"
        ~args:
          (if Trace.on () then
             [ ("slot", Trace.Int w.index); ("why", Trace.Str why) ]
           else [])
        "farm.respawn" 0
    end
    else w.respawn_at <- infinity
  in
  let dispatch () =
    Array.iter
      (fun w ->
        if
          w.ready && w.unit_id = None && w.fd <> None && not !aborted
          && not (Queue.is_empty pending)
        then begin
          let i = Queue.pop pending in
          if results.(i) <> None then ()
          else begin
            attempts.(i) <- attempts.(i) + 1;
            w.unit_id <- Some i;
            w.dispatched_at <- Unix.gettimeofday ();
            Trace.count ~cat:"farm" "farm.dispatch" 0;
            if not (send w (Farm_proto.Unit { id = i; source = tasks.(i) }))
            then begin
              Trace.count ~cat:"farm" "farm.crash" 0;
              handle_death w ~why:"died at dispatch"
            end
          end
        end)
      slots
  in
  let handle_msg (w : slot) (m : Farm_proto.msg) =
    w.last_seen <- Unix.gettimeofday ();
    match m with
    | Farm_proto.Hello { version; _ } ->
        if version <> Farm_proto.version then begin
          kill_slot w;
          w.respawn_at <- infinity (* a version skew never heals by respawn *)
        end
        else w.ready <- true
    | Farm_proto.Heartbeat _ -> ()
    | Farm_proto.Result { id = rid; _ } ->
        (match w.unit_id with
        | Some i when i = rid ->
            Trace.count ~cat:"farm" "farm.result" 0;
            record i (Ok (unit_result_of_result ~source:tasks.(i) m));
            (match results.(i) with
            | Some (Ok { Build.status = Build.Failed _; _ })
              when options.Build.fail_fast ->
                aborted := true
            | _ -> ());
            w.unit_id <- None
        | _ ->
            (* a result for a unit this worker doesn't hold: protocol
               confusion — crash-only, kill and recover *)
            kill_slot w;
            handle_death w ~why:"sent stray result")
    | Farm_proto.Config _ | Farm_proto.Unit _ | Farm_proto.Quit ->
        kill_slot w;
        handle_death w ~why:"sent driver-only frame"
  in
  let chunk = Bytes.create 65536 in
  let drain (w : slot) =
    match w.fd with
    | None -> ()
    | Some fd -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          -> ()
        | exception Unix.Unix_error _ ->
            Trace.count ~cat:"farm" "farm.crash" 0;
            handle_death w ~why:"read error"
        | 0 ->
            Trace.count ~cat:"farm" "farm.crash" 0;
            handle_death w ~why:"crashed"
        | nread -> (
            Farm_proto.Assembler.feed w.asm chunk nread;
            try
              let rec drain_frames () =
                match Farm_proto.Assembler.next w.asm with
                | None -> ()
                | Some payload ->
                    handle_msg w (Farm_proto.decode payload);
                    if w.fd <> None then drain_frames ()
              in
              drain_frames ()
            with Farm_proto.Proto_error _ ->
              Trace.count ~cat:"farm" "farm.crash" 0;
              kill_slot w;
              handle_death w ~why:"sent malformed frame"))
  in
  (* terminal sweep: resolve every unresolved slot with [status] *)
  let resolve_rest status =
    Queue.clear pending;
    Array.iteri
      (fun i r ->
        if r = None then record i (Ok (Build.no_pdb tasks.(i) status)))
      results
  in
  Trace.span ~cat:"farm" ~args:[ ("workers", Trace.Int n_workers) ] "farm.build"
    (fun () ->
      while !outstanding > 0 do
        let in_flight = Array.exists (fun w -> w.unit_id <> None) slots in
        let live = Array.exists (fun w -> w.fd <> None) slots in
        let respawnable = Array.exists (fun w -> w.fd = None && w.respawn_at < infinity) slots in
        if !aborted && not in_flight then
          (* fail-fast tripped and the pipeline has drained: everything
             still unresolved was never scheduled *)
          resolve_rest Build.Skipped
        else if (not live) && not respawnable then
          (* pool exhausted: every slot dead, respawn budget spent *)
          resolve_rest
            (Build.Failed "farm: worker pool exhausted (respawn budget spent)")
        else begin
        let now = Unix.gettimeofday () in
        (* respawn due slots while there is queued work to give them *)
        Array.iter
          (fun w ->
            if
              w.fd = None && w.respawn_at <= now && not !aborted
              && not (Queue.is_empty pending)
            then spawn w)
          slots;
        dispatch ();
        (* deadline / liveness enforcement *)
        Array.iter
          (fun w ->
            if w.fd <> None then begin
              let wedged =
                now -. w.last_seen > config.liveness_timeout
              and overdue =
                match w.unit_id with
                | Some _ -> now -. w.dispatched_at > config.unit_deadline
                | None -> false
              in
              if wedged || overdue then begin
                if Trace.on () then
                  Trace.instant ~cat:"farm"
                    ~args:
                      [ ("slot", Trace.Int w.index);
                        ("why", Trace.Str (if overdue then "deadline" else "wedged")) ]
                    "farm.deadline_kill";
                kill_slot w;
                handle_death w
                  ~why:(if overdue then "exceeded unit deadline" else "wedged (no heartbeat)")
              end
            end)
          slots;
        let fds =
          Array.to_list slots
          |> List.filter_map (fun w -> w.fd)
        in
        if fds = [] then begin
          (* nothing live yet: wait out the shortest pending backoff *)
          let next_spawn =
            Array.fold_left
              (fun acc w -> if w.respawn_at < acc then w.respawn_at else acc)
              infinity slots
          in
          if next_spawn < infinity then
            Unix.sleepf (min 0.05 (max 0.001 (next_spawn -. now)))
        end
        else begin
          let timeout = min 0.05 (config.liveness_timeout /. 4.0) in
          match Unix.select fds [] [] timeout with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, _, _ ->
              Array.iter
                (fun w ->
                  match w.fd with
                  | Some fd when List.memq fd readable -> drain w
                  | _ -> ())
                slots
        end
        end
      done;
      (* shutdown: polite Quit, then the hammer *)
      Array.iter
        (fun w ->
          if w.fd <> None then begin
            ignore (send w Farm_proto.Quit);
            close_slot_fd w
          end;
          if w.pid > 0 then begin
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
            reap_pid w.pid;
            w.pid <- -1
          end)
        slots);
  Option.iter (fun c -> ignore (Cache.sweep_stale_tmps c)) cache;
  (* the shared lost-slot policy: any slot the supervisor failed to
     resolve becomes a per-unit Error here, never a silent drop *)
  let reconciled = Scheduler.reconcile ~pool:"farm" results in
  let units =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Ok u -> u
           | Error e -> Build.no_pdb tasks.(i) (Build.Failed (Printexc.to_string e)))
         reconciled)
  in
  Build.result_of_units ~t0 units
