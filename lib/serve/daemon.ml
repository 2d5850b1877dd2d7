(** pdbd's socket server: [domains] independent event loops, one domain
    each, every loop a [select] over the connections it accepted.

    The loops share three things only: the listening socket (non-blocking,
    so a loop that loses an accept race gets [EAGAIN]), a stop pipe that
    is written on stop and never drained (it stays readable, so it wakes
    every loop), and an atomic count of admitted connections.  A
    connection belongs for life to the loop that accepted it.  That loop
    decodes its lines, answers each inline with {!Query.handle_line}
    against the snapshot current at that moment ({!Snapshot.current}),
    and writes the replies without blocking from the connection's own
    output queue.  Pipelined requests are therefore answered strictly in
    arrival order with no lock anywhere; connections on different loops
    are answered in parallel, connections on one loop take turns (so a
    project-mode [reload] holds up the other connections of its loop).

    Back-pressure: once more than [max_unread] bytes of a client's
    replies are queued unwritten, its loop stops answering and reading
    that client until the queue drains.  A client that pipelines and
    never reads costs one bounded buffer; it never blocks its loop, and
    never holds up another client.

    Robustness at the socket boundary: a line longer than [max_line]
    gets a structured [too-large] error and the connection is closed
    after the reply; a half-line that never completes is dropped with
    the connection on EOF; a failed write (client went away) closes at
    once, whatever replies were still owed.  Nothing a client sends can
    raise past {!Query.handle_line}, and only the owning loop ever
    touches a connection's fd, so fds are closed exactly once.

    Stop ({!request_stop}, the [shutdown] verb, SIGINT/SIGTERM in pdbd):
    each loop stops accepting and reading, answers every request it has
    already read, flushes replies for at most [drain_deadline] seconds,
    then closes its connections.

    [select] bounds the daemon to file descriptors below [FD_SETSIZE]
    (1024 on Linux).  That bound is a {e handled condition}, not a latent
    crash: the loops admit at most [max_conns] concurrent connections
    between them (default 900 — headroom under FD_SETSIZE for the listen
    and stop fds and anything else the process holds); a connection
    beyond that is accepted, answered with a structured
    [too-many-connections] error, and closed immediately (counted under
    [serve.rejected]), so a client storm degrades to clean refusals
    instead of a failed [select].  A dedicated pdbd process comfortably
    serves the 512-client load point of bench B11; harnesses that need
    hundreds of concurrent connections should still fork the daemon
    (workloadgen does) since an in-process daemon shares its fd space
    with the clients. *)

type config = {
  socket_path : string;
  domains : int;       (** event loops, one domain each *)
  max_line : int;      (** request size bound, bytes *)
  max_conns : int;     (** concurrent-connection bound; connections past
                           it get a [too-many-connections] error + close
                           instead of risking the [select] fd limit *)
}

let default_config =
  { socket_path = "pdbd.sock"; domains = Pdt_build.Scheduler.default_domains ();
    max_line = 1 lsl 20; max_conns = 900 }

(* reply bytes a client may leave unwritten before its loop stops
   answering it *)
let max_unread = 1 lsl 20

(* seconds a stopping loop keeps flushing replies before it closes *)
let drain_deadline = 2.0

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;    (** bytes read; [inpos] on are unanswered *)
  mutable inpos : int;
  out : string Queue.t;      (** replies not yet written, LF included *)
  mutable outpos : int;      (** bytes of the head reply already written *)
  mutable unread : int;      (** bytes in [out] past [outpos] *)
  mutable eof : bool;        (** no more input: client closed, read failed *)
  mutable closing : bool;    (** answered [too-large]: close once flushed *)
  mutable dead : bool;       (** a write failed: close now *)
}

type t = {
  cfg : config;
  holder : Snapshot.t;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  admitted : int Atomic.t;
  mutable loops : unit Domain.t list;
  mutable stopped : bool;  (** teardown-once guard *)
}

(** Async-signal-safe stop request: one byte into the stop pipe, which
    wakes every loop; no joins, no allocation-heavy work. *)
let request_stop (t : t) : unit =
  if not t.stopped then
    try ignore (Unix.write_substring t.stop_w "!" 0 1) with Unix.Unix_error _ -> ()

let error_line (t : t) code msg =
  let gen = (Snapshot.current t.holder).Snapshot.gen in
  Pdt_util.Json.to_string (Query.error_reply ~id:Pdt_util.Json.Null ~gen code msg)

let push (c : conn) (reply : string) : unit =
  Queue.push (reply ^ "\n") c.out;
  c.unread <- c.unread + String.length reply + 1

let too_large (t : t) (c : conn) (n : int) : unit =
  push c
    (error_line t "too-large"
       (Printf.sprintf "request line exceeds %d bytes (got %d)" t.cfg.max_line n));
  c.closing <- true

(* Answer complete lines until the input runs out or the output bound is
   reached; [true] means the bound stopped it with input possibly left.
   A lone CR before the LF is stripped so `nc -C` and printf both work. *)
let answer (t : t) (c : conn) : bool =
  let rec go () =
    if c.closing then false
    else if c.unread > max_unread then true
    else
      match String.index_from_opt c.inbuf c.inpos '\n' with
      | Some i ->
          let stop = if i > c.inpos && c.inbuf.[i - 1] = '\r' then i - 1 else i in
          let len = stop - c.inpos in
          let start = c.inpos in
          c.inpos <- i + 1;
          if len > t.cfg.max_line then too_large t c len
          else begin
            let reply, disp = Query.handle_line t.holder (String.sub c.inbuf start len) in
            push c reply;
            if disp = Query.Shutdown then request_stop t
          end;
          go ()
      | None ->
          let rest = String.length c.inbuf - c.inpos in
          if rest > t.cfg.max_line then too_large t c rest;
          false
  in
  go ()

(* Write queued replies until the socket is full or the queue is empty. *)
let respond (c : conn) : unit =
  Pdt_util.Trace.timed ~cat:"serve" "serve.respond" @@ fun () ->
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.outpos in
        match Unix.single_write_substring c.fd s c.outpos len with
        | n ->
            c.unread <- c.unread - n;
            if n = len then begin
              ignore (Queue.pop c.out);
              c.outpos <- 0
            end
            else c.outpos <- c.outpos + n;
            go ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> c.dead <- true)
  in
  go ()

(* One event loop: runs until stop, then drains and returns. *)
let serve_loop (t : t) () =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let rbuf = Bytes.create 65536 in
  let draining = ref false in
  let close_conn c =
    Hashtbl.remove conns c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Atomic.decr t.admitted
  in
  let each f = List.iter f (Hashtbl.fold (fun _ c acc -> c :: acc) conns []) in
  let rec service c =
    let blocked = answer t c in
    if not (Queue.is_empty c.out) then respond c;
    (* a write that made room lets the bound-stopped lines through *)
    if blocked && c.unread <= max_unread && not c.dead then service c
    else if c.dead || (Queue.is_empty c.out && (c.eof || c.closing || !draining))
    then close_conn c
  in
  let read c =
    match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
    | 0 -> c.eof <- true
    | n ->
        c.inbuf <-
          String.sub c.inbuf c.inpos (String.length c.inbuf - c.inpos)
          ^ Bytes.sub_string rbuf 0 n;
        c.inpos <- 0
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.eof <- true
  in
  let wants_read c =
    not (!draining || c.eof || c.closing || c.unread > max_unread)
  in
  let accept () =
    match Unix.accept t.listen_fd with
    | exception
        Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _) ->
        (* another loop won the race, or the client already left *)
        ()
    | fd, _ ->
        if Atomic.fetch_and_add t.admitted 1 < t.cfg.max_conns then begin
          Pdt_util.Trace.count ~cat:"serve" "serve.accept" 0;
          Unix.set_nonblock fd;
          Hashtbl.replace conns fd
            { fd; inbuf = ""; inpos = 0; out = Queue.create (); outpos = 0;
              unread = 0; eof = false; closing = false; dead = false }
        end
        else begin
          (* over the admission bound: a clean structured refusal, never a
             blown FD_SETSIZE.  The reply is best-effort — the client may
             already be gone — and the fd closes either way. *)
          Atomic.decr t.admitted;
          Pdt_util.Trace.count ~cat:"serve" "serve.rejected" 0;
          let reply =
            error_line t "too-many-connections"
              (Printf.sprintf "daemon at its %d-connection limit" t.cfg.max_conns)
            ^ "\n"
          in
          (try ignore (Unix.single_write_substring fd reply 0 (String.length reply))
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
        end
  in
  let rec run deadline =
    if !draining && (Hashtbl.length conns = 0 || Unix.gettimeofday () >= deadline)
    then each close_conn
    else begin
      let rd, wr =
        Hashtbl.fold
          (fun fd c (rd, wr) ->
            ( (if wants_read c then fd :: rd else rd),
              if Queue.is_empty c.out then wr else fd :: wr ))
          conns
          ((if !draining then [] else [ t.stop_r; t.listen_fd ]), [])
      in
      let timeout =
        if !draining then Float.max 0.0 (deadline -. Unix.gettimeofday ()) else -1.0
      in
      match Unix.select rd wr [] timeout with
      | exception Unix.Unix_error (EINTR, _, _) -> run deadline
      | r, w, _ ->
          let on fd f = Option.iter f (Hashtbl.find_opt conns fd) in
          List.iter (fun fd -> on fd (fun c -> read c; service c)) r;
          List.iter (fun fd -> on fd service) w;
          if !draining then run deadline
          else if List.mem t.stop_r r then begin
            draining := true;
            each service;
            run (Unix.gettimeofday () +. drain_deadline)
          end
          else begin
            if List.mem t.listen_fd r then accept ();
            run deadline
          end
    end
  in
  try run infinity
  with e ->
    (* a loop crash must still let [wait] return — and must close its
       connections, so blocked clients see EOF instead of hanging on a
       reply that will never come *)
    prerr_endline ("pdbd: event loop failed: " ^ Printexc.to_string e);
    each close_conn;
    request_stop t

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(** Bind the socket.  No loop is running yet: follow with
    {!serve_background} (tests, load generators) or {!serve_foreground}
    (the pdbd binary). *)
let create ?(config = default_config) (holder : Snapshot.t) : t =
  (* a torn-down daemon's socket file must not block the next one *)
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  (* writes race client disconnects by design; EPIPE comes back as a
     Unix_error, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind listen_fd (ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 256;
  Unix.set_nonblock listen_fd;
  let stop_r, stop_w = Unix.pipe () in
  Unix.set_nonblock stop_w;
  { cfg = config; holder; listen_fd; stop_r; stop_w; admitted = Atomic.make 0;
    loops = []; stopped = false }

let spawn_loops (t : t) n = List.init n (fun _ -> Domain.spawn (serve_loop t))

(* joins the loops and releases the fds; idempotent *)
let teardown (t : t) : unit =
  List.iter Domain.join t.loops;
  t.loops <- [];
  if not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.stop_r; t.stop_w ];
    (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ -> ())
  end

(** Run one loop on the calling domain and the rest on their own, until
    shutdown (verb or {!request_stop}, including from a signal handler),
    then reclaim everything. *)
let serve_foreground (t : t) : unit =
  t.loops <- spawn_loops t (max 1 t.cfg.domains - 1);
  serve_loop t ();
  teardown t

(** Run every loop on its own domain and return immediately. *)
let serve_background (t : t) : unit = t.loops <- spawn_loops t (max 1 t.cfg.domains)

(** {!create} + {!serve_background}: the one-call form the harnesses use. *)
let start ?config (holder : Snapshot.t) : t =
  let t = create ?config holder in
  serve_background t;
  t

(** Block until the daemon stops (shutdown verb or {!stop}). *)
let wait (t : t) : unit = teardown t

(** Ask the daemon to stop and reclaim everything: requests already read
    get their replies (flushed for at most [drain_deadline] seconds), then
    sockets close, domains join, and the socket file is unlinked. *)
let stop (t : t) : unit =
  request_stop t;
  wait t
