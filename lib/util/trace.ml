(** Structured tracing for the whole pipeline: nestable spans with
    categories and key/value args, recorded per domain and exported as a
    Chrome [trace_event] JSON (one track per worker domain, loadable in
    chrome://tracing or Perfetto) or as a TAU-style flat profile.

    Design constraints, in order:

    - {b Disabled tracing is free.}  [span] starts with a single load of
      an [Atomic.t bool]; when the flag is off it tail-calls the thunk —
      no clock read, no allocation.  Call sites that build an args list
      must guard with {!on} so the list is never allocated off-trace.
    - {b No lock on the hot path.}  Each domain appends to its own
      buffer, reached through [Domain.DLS]; the registry mutex is taken
      only when a domain joins a trace (once per domain per trace) and at
      export.  Domain ids are never reused within a process, so one
      buffer maps to one track.
    - {b Counters and spans cannot disagree.}  {!timed}/{!count} update
      the counter table and emit the B/E events from the same two clock
      reads, so [--stats] totals ({!report}) are by construction the sums
      of the spans in the trace.

    The clock is monotonic.  This OCaml's [Unix] module predates
    [Unix.clock_gettime], so we use bechamel's [Monotonic_clock] stub
    (CLOCK_MONOTONIC, [@@noalloc], int64 nanoseconds) — already a test
    dependency of this project, no new package. *)

type arg = Str of string | Int of int | Bool of bool

type ph = B | E | I

type event = {
  ph : ph;
  name : string;
  cat : string;
  ts : int;  (** monotonic ns, absolute; exported relative to trace start *)
  args : (string * arg) list;
}

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

(* --- per-domain buffers -------------------------------------------- *)

(* Bound on events recorded per domain per trace: a runaway traced loop
   must not eat the heap.  ~56 bytes/event puts the cap near 100 MB. *)
let max_events_per_domain = 2_000_000

type dbuf = {
  tid : int;
  gen : int;
  mutable evs : event list;  (* newest first *)
  mutable n : int;
}

let enabled : bool Atomic.t = Atomic.make false
let generation : int Atomic.t = Atomic.make 0
let t0 : int Atomic.t = Atomic.make 0
let registry : dbuf list ref = ref []
let reg_mutex = Mutex.create ()

let dls_key : dbuf option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(** The calling domain's buffer for the current trace, registering a
    fresh one if the domain has not emitted since {!start}. *)
let buffer () : dbuf =
  let cell = Domain.DLS.get dls_key in
  let g = Atomic.get generation in
  match !cell with
  | Some b when b.gen = g -> b
  | _ ->
      let b = { tid = (Domain.self () :> int); gen = g; evs = []; n = 0 } in
      Mutex.lock reg_mutex;
      registry := b :: !registry;
      Mutex.unlock reg_mutex;
      cell := Some b;
      b

let emit (ev : event) : unit =
  let b = buffer () in
  if b.n < max_events_per_domain then begin
    b.evs <- ev :: b.evs;
    b.n <- b.n + 1
  end

(* --- counters (what --stats reports) -------------------------------- *)

type counter = { mutable calls : int; mutable ns : int }

let ctable : (string, counter) Hashtbl.t = Hashtbl.create 16
let cmutex = Mutex.create ()

let counter_add (name : string) (ns : int) : unit =
  Mutex.lock cmutex;
  (match Hashtbl.find_opt ctable name with
   | Some c ->
       c.calls <- c.calls + 1;
       c.ns <- c.ns + ns
   | None -> Hashtbl.replace ctable name { calls = 1; ns });
  Mutex.unlock cmutex

(** All counters as [(name, calls, total_ns)], sorted by name. *)
let counters () : (string * int * int) list =
  Mutex.lock cmutex;
  let rows = Hashtbl.fold (fun k c acc -> (k, c.calls, c.ns) :: acc) ctable [] in
  Mutex.unlock cmutex;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows

let reset_counters () =
  Mutex.lock cmutex;
  Hashtbl.reset ctable;
  Mutex.unlock cmutex

(** The [--stats] table of [pdbbuild] and [pdbd]: one line per counter
    with calls, total and mean milliseconds.  Empty string when nothing
    was recorded. *)
let report () : string =
  match counters () with
  | [] -> ""
  | rows ->
      let b = Buffer.create 256 in
      Buffer.add_string b
        (Printf.sprintf "%-16s %8s %12s %12s\n" "phase" "calls" "total ms" "mean ms");
      List.iter
        (fun (name, calls, ns) ->
          let ms = float_of_int ns /. 1e6 in
          Buffer.add_string b
            (Printf.sprintf "%-16s %8d %12.3f %12.3f\n" name calls ms
               (ms /. float_of_int (max 1 calls))))
        rows;
      Buffer.contents b

(* --- recording API ------------------------------------------------- *)

let on () = Atomic.get enabled

(** Run [f] inside a span.  Off-trace this is one atomic load and a tail
    call; on-trace it brackets [f] with B/E events and charges the
    duration to the [name] counter from the same timestamps. *)
let span ?(args = []) ~cat (name : string) (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled) then f ()
  else begin
    let ts = now_ns () in
    emit { ph = B; name; cat; ts; args };
    Fun.protect
      ~finally:(fun () ->
        let te = now_ns () in
        counter_add name (te - ts);
        if Atomic.get enabled then emit { ph = E; name; cat; ts = te; args = [] })
      f
  end

(** Like {!span} but the counter is updated even when tracing is off, so
    [--stats] works untraced and agrees with the trace when both are on. *)
let timed ?(args = []) ~cat (name : string) (f : unit -> 'a) : 'a =
  let ts = now_ns () in
  let emitted = Atomic.get enabled in
  if emitted then emit { ph = B; name; cat; ts; args };
  Fun.protect
    ~finally:(fun () ->
      let te = now_ns () in
      counter_add name (te - ts);
      if emitted && Atomic.get enabled then
        emit { ph = E; name; cat; ts = te; args = [] })
    f

(** Point event on the calling domain's track (cache hit, quarantine…). *)
let instant ?(args = []) ~cat (name : string) : unit =
  if Atomic.get enabled then
    emit { ph = I; name; cat; ts = now_ns (); args }

(** Bump counter [name] by [ns] and mark the occurrence on the track. *)
let count ?(args = []) ~cat (name : string) (ns : int) : unit =
  counter_add name ns;
  if Atomic.get enabled then
    emit { ph = I; name; cat; ts = now_ns (); args }

(* --- trace lifecycle ----------------------------------------------- *)

(** Begin a new trace: previous buffers are detached (their domains
    re-register lazily via the generation check) and recording starts. *)
let start () : unit =
  Mutex.lock reg_mutex;
  registry := [];
  Mutex.unlock reg_mutex;
  Atomic.incr generation;
  Atomic.set t0 (now_ns ());
  Atomic.set enabled true

let stop () : unit = Atomic.set enabled false

(** Per-track event streams, oldest event first, tracks sorted by tid.
    Call after {!stop} (worker domains must have quiesced). *)
let tracks () : (int * event list) list =
  Mutex.lock reg_mutex;
  let bufs = !registry in
  Mutex.unlock reg_mutex;
  bufs
  |> List.map (fun b -> (b.tid, List.rev b.evs))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* --- Chrome trace_event export ------------------------------------- *)

let add_args_json (b : Buffer.t) (args : (string * arg) list) : unit =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.escape_to b k;
      Buffer.add_char b ':';
      match v with
      | Str s -> Json.escape_to b s
      | Int n -> Buffer.add_string b (string_of_int n)
      | Bool v -> Buffer.add_string b (if v then "true" else "false"))
    args;
  Buffer.add_char b '}'

(** The recorded trace as Chrome trace_event JSON.  Timestamps are
    microseconds relative to {!start}; pid is constant 1; tid is the
    domain id, with a [thread_name] metadata record per track so
    Perfetto labels the rows [domain-N]. *)
let chrome_json () : string =
  let base = Atomic.get t0 in
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  let tracks = tracks () in
  List.iter
    (fun (tid, _) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\
            \"args\":{\"name\":\"domain-%d\"}}"
           tid tid))
    tracks;
  List.iter
    (fun (tid, evs) ->
      List.iter
        (fun ev ->
          sep ();
          let ph = match ev.ph with B -> "B" | E -> "E" | I -> "i" in
          Buffer.add_string b
            (Printf.sprintf "{\"ph\":%S,\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
               ph tid (float_of_int (ev.ts - base) /. 1e3));
          Buffer.add_string b "\"name\":";
          Json.escape_to b ev.name;
          Buffer.add_string b ",\"cat\":";
          Json.escape_to b ev.cat;
          (match ev.ph with
           | E -> ()
           | B | I ->
               Buffer.add_string b ",\"args\":";
               add_args_json b ev.args);
          (match ev.ph with
           | I -> Buffer.add_string b ",\"s\":\"t\""
           | B | E -> ());
          Buffer.add_char b '}')
        evs)
    tracks;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

(** Stop the trace and write {!chrome_json} to [path], in binary mode so
    the file holds the same bytes on every platform. *)
let write_chrome (path : string) : unit =
  stop ();
  Out_channel.with_open_bin path (fun oc -> output_string oc (chrome_json ()))

(* --- flat profile (TAU pprof dogfood) ------------------------------ *)

type profile_row = {
  pname : string;
  calls : int;
  child_calls : int;
  exclusive_ns : int64;
  inclusive_ns : int64;
}

type frame = {
  fname : string;
  fstart : int;
  mutable child_ns : int;
  mutable fchild_calls : int;
}

(** Flat profile aggregated over all tracks: per span name, call count,
    direct-child call count, exclusive and inclusive nanoseconds.
    Recursive spans double-count inclusive time, as flat profiles do.
    Sorted by exclusive time, largest first. *)
let profile_rows () : profile_row list =
  let agg : (string, profile_row ref) Hashtbl.t = Hashtbl.create 16 in
  let add name ~incl ~excl ~child_calls =
    let r =
      match Hashtbl.find_opt agg name with
      | Some r -> r
      | None ->
          let r =
            ref { pname = name; calls = 0; child_calls = 0;
                  exclusive_ns = 0L; inclusive_ns = 0L }
          in
          Hashtbl.replace agg name r;
          r
    in
    r :=
      { !r with
        calls = !r.calls + 1;
        child_calls = !r.child_calls + child_calls;
        exclusive_ns = Int64.add !r.exclusive_ns (Int64.of_int excl);
        inclusive_ns = Int64.add !r.inclusive_ns (Int64.of_int incl) }
  in
  List.iter
    (fun (_tid, evs) ->
      let stack = ref [] in
      List.iter
        (fun ev ->
          match ev.ph with
          | I -> ()
          | B ->
              stack :=
                { fname = ev.name; fstart = ev.ts; child_ns = 0;
                  fchild_calls = 0 }
                :: !stack
          | E -> (
              match !stack with
              | [] -> ()  (* unbalanced E: trace toggled mid-span *)
              | f :: rest ->
                  stack := rest;
                  let incl = ev.ts - f.fstart in
                  let excl = max 0 (incl - f.child_ns) in
                  add f.fname ~incl ~excl ~child_calls:f.fchild_calls;
                  (match rest with
                   | p :: _ ->
                       p.child_ns <- p.child_ns + incl;
                       p.fchild_calls <- p.fchild_calls + 1
                   | [] -> ())))
        evs)
    (tracks ());
  Hashtbl.fold (fun _ r acc -> !r :: acc) agg []
  |> List.sort (fun a b -> compare b.exclusive_ns a.exclusive_ns)

(* --- span tree (for shape-determinism tests) ----------------------- *)

type node = {
  nname : string;
  ncat : string;
  nargs : (string * arg) list;
  children : node list;
}

(** The recorded spans of each track as a forest, ignoring timestamps —
    this is what "tree shape" means in the determinism tests. *)
let forest () : (int * node list) list =
  let build evs =
    (* fold the B/E stream with an explicit stack of (node info, reversed
       children so far) *)
    let rec go evs stack roots =
      match evs with
      | [] -> List.rev roots
      | ev :: evs -> (
          match ev.ph with
          | I -> go evs stack roots
          | B -> go evs ((ev, ref []) :: stack) roots
          | E -> (
              match stack with
              | [] -> go evs [] roots
              | (bev, kids) :: rest ->
                  let n =
                    { nname = bev.name; ncat = bev.cat; nargs = bev.args;
                      children = List.rev !kids }
                  in
                  (match rest with
                   | (_, pkids) :: _ ->
                       pkids := n :: !pkids;
                       go evs rest roots
                   | [] -> go evs [] (n :: roots))))
    in
    go evs [] []
  in
  List.map (fun (tid, evs) -> (tid, build evs)) (tracks ())
