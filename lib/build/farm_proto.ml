(** Wire protocol between the farm driver and [pdbworker] processes.

    The protocol (DESIGN.md §8) is deliberately minimal: length-prefixed
    binary frames over a [socketpair], one tag byte plus a type-specific
    body per frame.  Each frame is a little-endian [u32] byte length
    followed by that many payload bytes; strings inside a payload are
    [u32] length + bytes, lists are [u32] count + items.  There is no
    framing resynchronization on purpose — a worker is {e crash-only}, so
    a malformed or torn frame is treated exactly like a dead worker
    (kill, reap, respawn, retry the unit) rather than parsed around.

    Messages:

    - ['C'] {e Config} (driver → worker, once): everything a fresh worker
      process needs to run {!Build.build_unit} — the {!Build.options} and
      the full VFS file table (workers share no memory with the driver;
      the VFS of a project workload is a few hundred KB and ships once per
      worker lifetime).
    - ['H'] {e Hello} (worker → driver, once): protocol version + pid,
      sent after the Config is applied; the driver treats a version
      mismatch as a permanently-failed worker, not a retry.
    - ['U'] {e Unit} (driver → worker): one translation unit to build.
    - ['R'] {e Result} (worker → driver): the unit's outcome — its
      {!Build.status}, the canonical ASCII of its PDB, timing and deps.
    - ['B'] {e Heartbeat} (worker → driver): sent every [heartbeat_ms]
      by a worker-side thread, carrying the id of the unit in flight (or
      {!no_unit} when idle).  Silence past the driver's liveness window
      means the worker is wedged and gets SIGKILLed.
    - ['Q'] {e Quit} (driver → worker): drain and exit 0.

    Decode errors raise {!Proto_error}; the driver maps it to the same
    path as a worker crash. *)

exception Proto_error of string

(* 2: Config carries no PDB format; every Result payload is canonical
   ASCII *)
let version = 2

(** Heartbeat unit id meaning "idle, no unit in flight". *)
let no_unit = 0xFFFF_FFFF

(* An over-generous sanity bound: no frame in this protocol legitimately
   approaches it, so anything larger is a corrupt length prefix — fail
   the frame (and thus the worker) instead of allocating garbage. *)
let frame_max = 256 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Payload encoding                                                    *)
(* ------------------------------------------------------------------ *)

let put_u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b put l =
  put_u32 b (List.length l);
  List.iter (put b) l

type cursor = { s : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.s then raise (Proto_error "truncated frame")

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) land 0xFFFF_FFFF in
  c.pos <- c.pos + 4;
  v

let get_bool c =
  need c 1;
  let v = c.s.[c.pos] <> '\000' in
  c.pos <- c.pos + 1;
  v

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_list c get =
  let n = get_u32 c in
  if n > String.length c.s then raise (Proto_error "bad list count");
  List.init n (fun _ -> get c)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

type msg =
  | Config of {
      options : Build.options;
          (** [domains] does not travel: a worker is one process running
              one unit at a time, so it decodes as 1 *)
      include_paths : string list;
      disk_fallback : bool;
      files : (string * string) list;  (** the full VFS table, path → bytes *)
      heartbeat_ms : int;
    }
  | Hello of { version : int; pid : int }
  | Unit of { id : int; source : string }
  | Result of {
      id : int;
      status : Build.status;
      pdb : string option;      (** the PDB's canonical ASCII *)
      seconds : float;
      deps : string list;
      cone_truncated : bool;
    }
  | Heartbeat of { unit_id : int }
  | Quit

(** The Config that lets a worker build like an in-process domain:
    [options] and [vfs]'s search path and whole file table. *)
let config (options : Build.options) ~(vfs : Pdt_util.Vfs.t)
    ~(heartbeat_ms : int) : msg =
  Config
    { options;
      include_paths = vfs.Pdt_util.Vfs.include_paths;
      disk_fallback = vfs.Pdt_util.Vfs.disk_fallback;
      files =
        List.map
          (fun p -> (p, Option.value (Pdt_util.Vfs.read_raw vfs p) ~default:""))
          (Pdt_util.Vfs.files vfs);
      heartbeat_ms }

(** The worker's copy of the driver's VFS. *)
let vfs_of_files ~include_paths ~disk_fallback files : Pdt_util.Vfs.t =
  let vfs = Pdt_util.Vfs.create ~include_paths () in
  Pdt_util.Vfs.set_disk_fallback vfs disk_fallback;
  List.iter (fun (p, s) -> Pdt_util.Vfs.add_file vfs p s) files;
  vfs

(* ------------------------------------------------------------------ *)
(* Encode / decode                                                     *)
(* ------------------------------------------------------------------ *)

let mapping_code = function
  | Pdt_analyzer.Analyzer.Location_based -> 0
  | Pdt_analyzer.Analyzer.Il_ids -> 1

let mapping_of_code = function
  | 0 -> Pdt_analyzer.Analyzer.Location_based
  | 1 -> Pdt_analyzer.Analyzer.Il_ids
  | n -> raise (Proto_error (Printf.sprintf "bad mapping code %d" n))

(* A status travels as a code and a message, "" unless the status
   carries one.  No worker sends 4: {!Build.build_unit} never skips. *)
let put_status b (s : Build.status) =
  let code, message =
    match s with
    | Build.Compiled -> (0, "")
    | Build.Cached -> (1, "")
    | Build.Degraded m -> (2, m)
    | Build.Failed m -> (3, m)
    | Build.Skipped -> (4, "")
  in
  put_u32 b code;
  put_str b message

let get_status c : Build.status =
  let code = get_u32 c in
  let message = get_str c in
  match code with
  | 0 -> Build.Compiled
  | 1 -> Build.Cached
  | 2 -> Build.Degraded message
  | 3 -> Build.Failed message
  | 4 -> Build.Skipped
  | n -> raise (Proto_error (Printf.sprintf "bad status code %d" n))

let encode (m : msg) : string =
  let b = Buffer.create 256 in
  (match m with
  | Config { options = o; include_paths; disk_fallback; files; heartbeat_ms } ->
      Buffer.add_char b 'C';
      put_u32 b version;
      put_str b (Option.value o.Build.cache_dir ~default:"");
      put_bool b (o.Build.cache_dir <> None);
      put_u32 b o.Build.retries;
      put_bool b o.Build.fail_fast;
      put_bool b o.Build.sema.Pdt_sema.Sema.instantiate_used;
      put_bool b o.Build.sema.Pdt_sema.Sema.map_specializations;
      put_u32 b (mapping_code o.Build.mapping);
      let l = o.Build.limits in
      put_u32 b l.Pdt_util.Limits.max_include_depth;
      put_u32 b l.Pdt_util.Limits.max_macro_depth;
      put_u32 b l.Pdt_util.Limits.max_tokens;
      put_u32 b l.Pdt_util.Limits.max_parse_depth;
      put_u32 b l.Pdt_util.Limits.max_instantiation_depth;
      put_u32 b l.Pdt_util.Limits.max_errors;
      put_list b put_str include_paths;
      put_bool b disk_fallback;
      put_list b
        (fun b (p, s) ->
          put_str b p;
          put_str b s)
        files;
      put_u32 b heartbeat_ms
  | Hello { version; pid } ->
      Buffer.add_char b 'H';
      put_u32 b version;
      put_u32 b pid
  | Unit { id; source } ->
      Buffer.add_char b 'U';
      put_u32 b id;
      put_str b source
  | Result r ->
      Buffer.add_char b 'R';
      put_u32 b r.id;
      put_status b r.status;
      put_bool b (r.pdb <> None);
      put_str b (Option.value r.pdb ~default:"");
      (* %h hex floats round-trip exactly *)
      put_str b (Printf.sprintf "%h" r.seconds);
      put_list b put_str r.deps;
      put_bool b r.cone_truncated
  | Heartbeat { unit_id } ->
      Buffer.add_char b 'B';
      put_u32 b unit_id
  | Quit -> Buffer.add_char b 'Q');
  Buffer.contents b

let decode (payload : string) : msg =
  if payload = "" then raise (Proto_error "empty frame");
  let c = { s = payload; pos = 1 } in
  let m =
    match payload.[0] with
    | 'C' ->
        let v = get_u32 c in
        if v <> version then
          raise (Proto_error (Printf.sprintf "protocol version %d, want %d" v version));
        let cache_dir_s = get_str c in
        let cache_dir_some = get_bool c in
        let retries = get_u32 c in
        let fail_fast = get_bool c in
        let instantiate_used = get_bool c in
        let map_specializations = get_bool c in
        let mapping = mapping_of_code (get_u32 c) in
        let max_include_depth = get_u32 c in
        let max_macro_depth = get_u32 c in
        let max_tokens = get_u32 c in
        let max_parse_depth = get_u32 c in
        let max_instantiation_depth = get_u32 c in
        let max_errors = get_u32 c in
        let options =
          { Build.domains = 1;
            cache_dir = (if cache_dir_some then Some cache_dir_s else None);
            retries;
            fail_fast;
            sema = { Pdt_sema.Sema.instantiate_used; map_specializations };
            mapping;
            limits =
              { Pdt_util.Limits.max_include_depth;
                max_macro_depth;
                max_tokens;
                max_parse_depth;
                max_instantiation_depth;
                max_errors } }
        in
        let include_paths = get_list c get_str in
        let disk_fallback = get_bool c in
        let files =
          get_list c (fun c ->
              let p = get_str c in
              let s = get_str c in
              (p, s))
        in
        let heartbeat_ms = get_u32 c in
        Config { options; include_paths; disk_fallback; files; heartbeat_ms }
    | 'H' ->
        let version = get_u32 c in
        let pid = get_u32 c in
        Hello { version; pid }
    | 'U' ->
        let id = get_u32 c in
        let source = get_str c in
        Unit { id; source }
    | 'R' ->
        let id = get_u32 c in
        let status = get_status c in
        let has_pdb = get_bool c in
        let pdb_s = get_str c in
        let seconds =
          let s = get_str c in
          match float_of_string_opt s with
          | Some f -> f
          | None -> raise (Proto_error ("bad seconds field " ^ s))
        in
        let deps = get_list c get_str in
        let cone_truncated = get_bool c in
        Result
          { id; status;
            pdb = (if has_pdb then Some pdb_s else None);
            seconds; deps; cone_truncated }
    | 'B' -> Heartbeat { unit_id = get_u32 c }
    | 'Q' -> Quit
    | t -> raise (Proto_error (Printf.sprintf "unknown tag %C" t))
  in
  if c.pos <> String.length payload then
    raise (Proto_error "trailing bytes in frame");
  m

(* ------------------------------------------------------------------ *)
(* Blocking frame I/O (worker side)                                    *)
(* ------------------------------------------------------------------ *)

let rec write_all fd buf off len =
  if len > 0 then
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf off len

(** One frame's bytes: the 4-byte LE length, then [payload]. *)
let frame (payload : string) : Bytes.t =
  let n = String.length payload in
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_le buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  buf

(** Write one frame as a single buffer so a scheduler preemption can't
    interleave two writers' headers.  (The worker still serializes Result
    and Heartbeat writes with a mutex; this just keeps the syscall count
    down.) *)
let write_frame fd (payload : string) : unit =
  let buf = frame payload in
  write_all fd buf 0 (Bytes.length buf)

(* The payload length the frame header at the start of [b] announces. *)
let frame_length (b : Bytes.t) : int =
  let n = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFF_FFFF in
  if n > frame_max then
    raise (Proto_error (Printf.sprintf "frame length %d exceeds bound" n));
  n

(* [false] = EOF before any byte; EOF mid-buffer is a torn frame. *)
let really_read fd buf off len : bool =
  let rec go off len got_any =
    if len = 0 then true
    else
      match Unix.read fd buf off len with
      | 0 -> if got_any then raise (Proto_error "eof inside frame") else false
      | n -> go (off + n) (len - n) true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len got_any
  in
  go off len false

(** Read one frame, blocking.  [None] on clean EOF (peer closed between
    frames); {!Proto_error} on a torn or oversized frame. *)
let read_frame fd : string option =
  let hdr = Bytes.create 4 in
  if not (really_read fd hdr 0 4) then None
  else begin
    let n = frame_length hdr in
    let buf = Bytes.create n in
    if n > 0 && not (really_read fd buf 0 n) then
      raise (Proto_error "eof inside frame");
    Some (Bytes.to_string buf)
  end

(* ------------------------------------------------------------------ *)
(* Incremental frame assembly (driver side)                            *)
(* ------------------------------------------------------------------ *)

(** Reassembles frames from the byte chunks a non-blocking read loop
    produces.  The driver owns one per worker: [feed] whatever arrived,
    then drain [next] until it returns [None]. *)
module Assembler = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t (src : Bytes.t) (n : int) =
    let cap = Bytes.length t.buf in
    if t.len + n > cap then begin
      let cap' = max (t.len + n) (2 * cap) in
      let buf' = Bytes.create cap' in
      Bytes.blit t.buf 0 buf' 0 t.len;
      t.buf <- buf'
    end;
    Bytes.blit src 0 t.buf t.len n;
    t.len <- t.len + n

  let next t : string option =
    if t.len < 4 then None
    else begin
      let n = frame_length t.buf in
      if t.len < 4 + n then None
      else begin
        let payload = Bytes.sub_string t.buf 4 n in
        Bytes.blit t.buf (4 + n) t.buf 0 (t.len - 4 - n);
        t.len <- t.len - 4 - n;
        Some payload
      end
    end
end
