(** pdbd's socket server: one reader domain multiplexing connections with
    [select], a fixed pool of worker domains draining a shared work queue
    (the {!Pdt_build.Scheduler} queue, reused verbatim — same
    mutex/condition idiom, same drain-on-close semantics).

    Per-connection ordering: a connection's decoded lines go into its own
    pending queue, and the connection itself is the unit of work on the
    shared queue.  While a worker holds a connection it is marked busy
    and is never handed to a second worker, so pipelined requests are
    answered strictly in arrival order; when replies drain the worker
    either re-enqueues the connection (more lines waiting) or parks it
    until the reader sees new bytes.  Across connections, requests run
    in parallel on the pool, each against the one snapshot it grabbed at
    dispatch ({!Snapshot.current}).

    Robustness at the socket boundary: a line longer than [max_line]
    gets a structured [too-large] error and the connection is closed
    after the reply; a half-line that never completes is dropped with
    the connection on EOF; write failures (client went away) just close.
    Nothing a client sends can raise past {!Query.handle_line}, and the
    reader's [select] loop owns every file descriptor's lifecycle, so
    fds are closed exactly once.

    [select] bounds the daemon to file descriptors below [FD_SETSIZE]
    (1024 on Linux).  That bound is a {e handled condition}, not a latent
    crash: the reader admits at most [max_conns] concurrent connections
    (default 900 — headroom under FD_SETSIZE for the listen/wake fds and
    anything else the process holds); a connection beyond that is
    accepted, answered with a structured [too-many-connections] error,
    and closed immediately (counted under [serve.rejected]), so a client
    storm degrades to clean refusals instead of a failed [select].  A
    dedicated pdbd process comfortably serves the 512-client load point
    of bench B11; harnesses that need hundreds of concurrent connections
    should still fork the daemon (workloadgen does) since an in-process
    daemon shares its fd space with the clients. *)

module S = Pdt_build.Scheduler

type config = {
  socket_path : string;
  domains : int;       (** worker pool size; the reader is one more *)
  max_line : int;      (** request size bound, bytes *)
  max_conns : int;     (** concurrent-connection bound; connections past
                           it get a [too-many-connections] error + close
                           instead of risking the [select] fd limit *)
}

let default_config =
  { socket_path = "pdbd.sock"; domains = S.default_domains ();
    max_line = 1 lsl 20; max_conns = 900 }

type item =
  | Line of string
  | Oversized of int  (** observed length; the reply is an error + close *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable leftover : string;  (** reader-only: bytes after the last LF *)
  pending : item Queue.t;     (** guarded by [mu] *)
  mutable busy : bool;        (** guarded by [mu]: a worker owns it *)
  mutable eof : bool;         (** reader saw EOF *)
  mutable drop_input : bool;  (** reader-only: oversized, stop decoding *)
  mutable closed : bool;      (** guarded by [mu]: finish + close *)
  mu : Mutex.t;
}

type t = {
  cfg : config;
  holder : Snapshot.t;
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  workq : conn S.queue;
  mutable reader : unit Domain.t option;
  mutable workers : unit Domain.t list;
  mutable stopped : bool;  (** join-once guard *)
}

let wake (t : t) =
  try ignore (Unix.write_substring t.wake_w "!" 0 1) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

let write_all fd (s : string) : bool =
  let n = String.length s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((EPIPE | EBADF | ECONNRESET), _, _) -> false
  in
  go 0

let handle_item (t : t) (conn : conn) (item : item) : unit =
  let reply, disp =
    match item with
    | Line line -> Query.handle_line t.holder line
    | Oversized n ->
        let gen = (Snapshot.current t.holder).Snapshot.gen in
        ( Pdt_util.Json.to_string
            (Query.error_reply ~id:Pdt_util.Json.Null ~gen "too-large"
               (Printf.sprintf "request line exceeds %d bytes (got %d)"
                  t.cfg.max_line n)),
          Query.Continue )
  in
  let sent =
    Pdt_util.Trace.timed ~cat:"serve" "serve.respond" @@ fun () ->
    write_all conn.fd (reply ^ "\n")
  in
  let close_now =
    (not sent) || (match item with Oversized _ -> true | Line _ -> false)
  in
  if close_now then begin
    Mutex.lock conn.mu;
    conn.closed <- true;
    Mutex.unlock conn.mu
  end;
  match disp with
  | Query.Shutdown ->
      Atomic.set t.stop_flag true;
      wake t
  | Query.Continue -> ()

let worker_loop (t : t) () =
  let rec loop () =
    match S.queue_pop t.workq with
    | None -> ()
    | Some conn ->
        Mutex.lock conn.mu;
        let item = Queue.take_opt conn.pending in
        Mutex.unlock conn.mu;
        (match item with
         | Some item -> handle_item t conn item
         | None -> ());
        Mutex.lock conn.mu;
        let more = (not (Queue.is_empty conn.pending)) && not conn.closed in
        if more then begin
          Mutex.unlock conn.mu;
          S.queue_push t.workq conn
        end
        else begin
          conn.busy <- false;
          Mutex.unlock conn.mu;
          (* the reader may be waiting to close this fd *)
          wake t
        end;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Reader side                                                         *)
(* ------------------------------------------------------------------ *)

(* Split freshly read bytes into protocol lines; returns decoded items
   and the new leftover.  A lone CR before the LF is stripped so `nc -C`
   and printf both work. *)
let decode_lines (data : string) : string list * string =
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        let stop = if i > !start && data.[i - 1] = '\r' then i - 1 else i in
        lines := String.sub data !start (stop - !start) :: !lines;
        start := i + 1
      end)
    data;
  (List.rev !lines, String.sub data !start (String.length data - !start))

let enqueue (t : t) (conn : conn) (item : item) : unit =
  Mutex.lock conn.mu;
  Queue.push item conn.pending;
  let grab = not conn.busy in
  if grab then conn.busy <- true;
  Mutex.unlock conn.mu;
  if grab then S.queue_push t.workq conn

let reader_loop (t : t) () =
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
  let next_cid = ref 0 in
  let rbuf = Bytes.create 65536 in
  let accept_one () =
    match Unix.accept t.listen_fd with
    | fd, _ when Hashtbl.length conns >= t.cfg.max_conns ->
        (* over the admission bound: a clean structured refusal, never a
           blown FD_SETSIZE.  The reply is best-effort — the client may
           already be gone — and the fd closes either way. *)
        Pdt_util.Trace.count ~cat:"serve" "serve.rejected" 0;
        let gen = (Snapshot.current t.holder).Snapshot.gen in
        let reply =
          Pdt_util.Json.to_string
            (Query.error_reply ~id:Pdt_util.Json.Null ~gen
               "too-many-connections"
               (Printf.sprintf "daemon at its %d-connection limit"
                  t.cfg.max_conns))
        in
        ignore (write_all fd (reply ^ "\n"));
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | fd, _ ->
        Pdt_util.Trace.count ~cat:"serve" "serve.accept" 0;
        incr next_cid;
        Hashtbl.replace conns !next_cid
          { fd; cid = !next_cid; leftover = ""; pending = Queue.create ();
            busy = false; eof = false; drop_input = false; closed = false;
            mu = Mutex.create () }
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  in
  let read_conn (conn : conn) =
    match Unix.read conn.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> conn.eof <- true
    | n ->
        if conn.drop_input then ()
        else begin
          let data = conn.leftover ^ Bytes.sub_string rbuf 0 n in
          let lines, leftover = decode_lines data in
          List.iter
            (fun l ->
              if String.length l > t.cfg.max_line then begin
                conn.drop_input <- true;
                enqueue t conn (Oversized (String.length l))
              end
              else enqueue t conn (Line l))
            lines;
          if String.length leftover > t.cfg.max_line then begin
            conn.drop_input <- true;
            conn.leftover <- "";
            enqueue t conn (Oversized (String.length leftover))
          end
          else conn.leftover <- leftover
        end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> conn.eof <- true
  in
  (* close fds whose work is fully drained; only the reader closes *)
  let sweep () =
    let dead = ref [] in
    Hashtbl.iter
      (fun cid conn ->
        Mutex.lock conn.mu;
        let disposable =
          (not conn.busy) && Queue.is_empty conn.pending
          && (conn.closed || conn.eof)
        in
        Mutex.unlock conn.mu;
        if disposable then dead := (cid, conn) :: !dead)
      conns;
    List.iter
      (fun (cid, conn) ->
        (try Unix.close conn.fd with Unix.Unix_error _ -> ());
        Hashtbl.remove conns cid)
      !dead
  in
  let drain_wake () =
    match Unix.read t.wake_r rbuf 0 (Bytes.length rbuf) with
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  let rec loop accepting =
    sweep ();
    if Atomic.get t.stop_flag && accepting then begin
      (* stop: no new connections, let in-flight requests finish *)
      (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
      loop false
    end
    else if (not accepting) && Hashtbl.length conns = 0 then ()
    else begin
      let fds =
        t.wake_r
        :: (if accepting then [ t.listen_fd ] else [])
        @ Hashtbl.fold
            (fun _ c acc ->
              Mutex.lock c.mu;
              let want = not (c.eof || c.closed) in
              Mutex.unlock c.mu;
              if want then c.fd :: acc else acc)
            conns []
      in
      match Unix.select fds [] [] 0.25 with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd = t.wake_r then drain_wake ()
              else if accepting && fd = t.listen_fd then accept_one ()
              else
                Hashtbl.iter
                  (fun _ c -> if c.fd = fd then read_conn c)
                  conns)
            readable;
          if Atomic.get t.stop_flag && not accepting then begin
            (* second stop pass: the drain above is bounded by workers
               finishing their current items, which they always do *)
            sweep ();
            let idle = ref true in
            Hashtbl.iter
              (fun _ c ->
                Mutex.lock c.mu;
                if c.busy || not (Queue.is_empty c.pending) then idle := false;
                Mutex.unlock c.mu)
              conns;
            if !idle then begin
              Hashtbl.iter
                (fun _ c ->
                  try Unix.close c.fd with Unix.Unix_error _ -> ())
                conns;
              Hashtbl.reset conns
            end;
            loop false
          end
          else loop accepting
      | exception Unix.Unix_error (EINTR, _, _) -> loop accepting
      | exception Unix.Unix_error (EBADF, _, _) ->
          (* a connection died between sweep and select; next sweep
             collects it *)
          loop accepting
    end
  in
  (try loop true with e ->
     (* a reader crash must still let [wait] return — and must close
        every connection, so blocked clients see EOF instead of hanging
        on a reply that will never come *)
     prerr_endline ("pdbd: reader failed: " ^ Printexc.to_string e);
     (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
     Hashtbl.iter
       (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
       conns);
  S.queue_close t.workq

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(** Bind the socket and spawn the worker pool.  The reader is not yet
    running: follow with {!serve_background} (tests, load generators) or
    {!serve_foreground} (the pdbd binary, so signals land in the reader's
    [select] as EINTR). *)
let create ?(config = default_config) (holder : Snapshot.t) : t =
  (* a torn-down daemon's socket file must not block the next one *)
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (* writes race client disconnects by design; EPIPE comes back as a
     Unix_error, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 256;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    { cfg = config; holder; listen_fd; wake_r; wake_w;
      stop_flag = Atomic.make false; workq = S.queue_create ();
      reader = None; workers = []; stopped = false }
  in
  t.workers <-
    List.init (max 1 config.domains) (fun _ -> Domain.spawn (worker_loop t));
  t

(* joins whatever is joinable and releases the fds; idempotent *)
let teardown (t : t) : unit =
  Option.iter Domain.join t.reader;
  t.reader <- None;
  List.iter Domain.join t.workers;
  t.workers <- [];
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  end

(** Run the reader loop on the calling domain until shutdown (verb or
    {!request_stop}, including from a signal handler), then reclaim
    everything. *)
let serve_foreground (t : t) : unit =
  reader_loop t ();
  teardown t

(** Run the reader on its own domain and return immediately. *)
let serve_background (t : t) : unit =
  t.reader <- Some (Domain.spawn (reader_loop t))

(** {!create} + {!serve_background}: the one-call form the harnesses use. *)
let start ?config (holder : Snapshot.t) : t =
  let t = create ?config holder in
  serve_background t;
  t

(** Async-signal-safe stop request: flips the flag and wakes the reader;
    no joins, no allocation-heavy work. *)
let request_stop (t : t) : unit =
  Atomic.set t.stop_flag true;
  wake t

(** Block until the daemon stops (shutdown verb or {!stop}). *)
let wait (t : t) : unit = teardown t

(** Ask the daemon to stop and reclaim everything: in-flight requests
    finish and get their replies, then sockets close, domains join, and
    the socket file is unlinked. *)
let stop (t : t) : unit =
  request_stop t;
  wait t
