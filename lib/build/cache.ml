(** The incremental PDB cache.

    A cache entry maps a content hash of one translation unit's inputs to
    its PDB under [.pdt-cache/], serialized as canonical ASCII (the
    {!Pdt_pdb.Pdb_write} bytes): the build holds one PDB form, whatever
    container [pdbbuild --pdb-format] writes its output in, and an entry's
    body digest is the merge digest of the PDB it holds.  The key covers
    everything that can change the PDB:

    - the source path and its contents,
    - the contents of every file in the (lexically scanned) include closure,
    - the compile-option fingerprint the driver passes in,
    - the cache format version.

    As a formula (format v6), with [p1 .. pn] the closure in DFS
    first-visit order, the source first:

    {v key = MD5 (magic, options, p1, d(p1), ..., pn, d(pn))
    d(p) = MD5 (normalize_for_key (bytes of p)) v}

    where the parts are length-prefixed ({!Pdt_util.Hashutil.strings}).
    [Incremental.dep_hash] hashes the same per-file digest [d], so only
    this module knows how a file is normalized.

    The closure scan over-approximates: it follows every [#include] it can
    resolve, including ones inside inactive [#if] regions, so an edit to a
    conditionally included header conservatively invalidates the entry.

    {b One scan per file per build.}  A {!t} lives for one build:
    [Build.build], [Incremental.build], the farm and each [pdbworker]
    create one per build and pass it to every key they compute.  It
    carries a table from a normalized path to the bytes last read there,
    their include scan and their digest [d], so a header every unit
    includes is scanned, normalized and hashed once, not once per unit and
    again for its dependency hash.  Every key still reads each file
    through the VFS, and the table answers only when the bytes read now
    are the bytes it holds, so an edit between two keys is never served a
    stale digest.

    Entries are self-describing — the first line is a magic header carrying
    the format version, the key, and an MD5 digest of the body — so [load]
    verifies every byte it is about to trust: a stale version, a misfiled
    key, a truncated or bit-flipped body all fail the single header/digest
    comparison.  The cache is {e self-healing}: an entry that fails
    verification is quarantined (moved to [quarantine/] inside the cache
    dir, counted under the [cache.corrupt] counter) rather than
    silently ignored, so corrupt files cannot be re-probed on every build
    and an operator can inspect what went bad; the unit then recompiles
    and the fresh store replaces the entry.  Writes go through a
    per-process, per-domain temp file and [Sys.rename] so concurrent
    workers and concurrent [pdbbuild] processes never expose a
    half-written entry, and the temp file is removed if the write dies.

    {b Cross-process sharing} (format v4).  One cache directory is shared
    by concurrent builder processes — farm workers, parallel [pdbbuild]
    invocations, a live [pdbd] serving project sources — so the layout
    and the destructive operations are built for contention:

    - entries live in 256 {e shards}, [objects/<hh>/<key>.pdb] with [hh]
      the first two hex digits of the key, so no single directory grows
      unboundedly and directory-level contention spreads out;
    - {e quarantine is advisory-locked and re-verified}: before moving an
      entry aside the mover takes the shard's [fcntl] lock
      ([locks/<hh>.lock]) and re-checks that the bytes at the live path
      are still bad.  A concurrent writer replacing the entry between a
      reader's failed verification and its quarantine attempt therefore
      never loses a fresh entry to a stale verdict — zero quarantine
      false-positives by construction;
    - {e stale temp files are swept, not trusted}: a worker process
      SIGKILLed mid-store leaves its [*.tmp.<pid>.<domain>] file behind
      (crash-only workers run no cleanup handlers).  {!sweep_stale_tmps}
      removes temp files whose writing process is dead; the farm driver
      runs it before and after every build.

    Fault-injection sites ({!Pdt_util.Fault}): ["cache.read"] (transient
    load I/O error), ["cache.load.corrupt"] (entry treated as bit-rotten),
    ["cache.write.crash"] (writer dies mid-write; temp file must not
    leak), ["cache.write.torn"] (a truncated entry reaches the final
    path; [load] must quarantine it). *)

open Pdt_util

(* v6: every body is canonical ASCII; v5 entries may be PDB-B.  v5 keyed
   each file's digest, not its normalized text, and v4 brought the sharded
   objects/<hh>/ layout.  Entries of an older version are never probed
   under a v6 key; the first build over an old directory recompiles and
   repopulates, which is the ordinary cold-cache path. *)
let format_version = 6

let magic = Printf.sprintf "PDT-CACHE v%d" format_version

(* What keys need of one file's bytes *)
type file = {
  bytes : string;
  includes : (bool * string) list;  (* [scan_includes bytes] *)
  digest : string;  (* MD5 of [normalize_for_key bytes] *)
}

type t = {
  dir : string;
  files : (string, file) Hashtbl.t;  (* normalized path -> last bytes read *)
  files_lock : Mutex.t;  (* units are keyed from several domains at once *)
}

let default_dir = ".pdt-cache"

let create ?(dir = default_dir) () =
  { dir; files = Hashtbl.create 64; files_lock = Mutex.create () }

let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* Lexical include scan: the files  #include "x"  and  #include <x>  name,
   the only forms the preprocessor accepts (macro-computed includes don't
   exist in this front end).  The preprocessor reads lexer tokens, so one
   byte pass finds directives by the lexer's rules without tokenizing the
   file: blanks, comments and line splices may sit between any two tokens;
   a [#] starts a directive when no token precedes it on its line, where a
   line break inside a block comment or a literal's escape ends a line and
   a splice does not; and string and character literals are skipped whole,
   to their quote or an unescaped line break, so that neither hides nor
   fakes a comment.  The lexer and the preprocessor read each include
   directive the pass finds. *)
let scan_includes (src : string) : (bool * string) list =
  let n = String.length src in
  let at i c = i < n && src.[i] = c in
  let acc = ref [] in
  let bol = ref true in
  (* past the trivia at [i], noting in [bol] a line break it crosses *)
  let rec trivia i =
    if i >= n then i
    else
      match src.[i] with
      | ' ' | '\t' | '\r' -> trivia (i + 1)
      | '\n' ->
          bol := true;
          trivia (i + 1)
      | '\\' when at (i + 1) '\n' -> trivia (i + 2)
      | '\\' when at (i + 1) '\r' && at (i + 2) '\n' -> trivia (i + 3)
      | '/' when at (i + 1) '/' -> (
          match String.index_from_opt src i '\n' with Some j -> trivia j | None -> n)
      | '/' when at (i + 1) '*' ->
          let rec close j =
            if j + 1 >= n then n
            else if src.[j] = '*' && src.[j + 1] = '/' then trivia (j + 2)
            else begin
              if src.[j] = '\n' then bol := true;
              close (j + 1)
            end
          in
          close (i + 2)
      | _ -> i
  in
  (* past the literal whose opening quote [q] is at [i - 1] *)
  let rec literal q i =
    if i >= n then n
    else if src.[i] = '\n' then i
    else if src.[i] = q then i + 1
    else if src.[i] = '\\' then begin
      if at (i + 1) '\n' then bol := true;
      literal q (i + 2)
    end
    else literal q (i + 1)
  in
  (* past the directive whose [#] ends at [i]: an include's tokens, up to
     the next line, come from the lexer, and the preprocessor's own
     [include_target] reads the file they name *)
  let directive i =
    let i = trivia i in
    if !bol || i + 7 > n || String.sub src i 7 <> "include" then i
    else begin
      let toks, stop = Pdt_lex.Lexer.rest_of_line ~diags:(Diag.create ()) src i in
      (match toks with
       | { tok = Pdt_lex.Token.Ident "include"; _ } :: rest ->
           Option.iter
             (fun (name, system) -> acc := (system, name) :: !acc)
             (Pdt_pp.Preproc.include_target rest)
       | _ -> ());
      bol := true;
      stop
    end
  in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
        bol := true;
        incr i
    | '#' when !bol ->
        bol := false;
        i := directive (!i + 1)
    | ('"' | '\'') as q ->
        bol := false;
        i := literal q (!i + 1)
    | '/' | '\\' when trivia !i > !i -> i := trivia !i
    | _ ->
        bol := false;
        incr i
  done;
  List.rev !acc

(* Whitespace that provably cannot change a PDB: trailing spaces/tabs on a
   line (tokens and their columns are untouched — nothing follows them) and
   blank lines at end of file (no tokens follow).  Normalizing them out of
   the key lets a pure-whitespace edit keep its cache entry and lets the
   incremental driver report the unit as reused.  The one subtlety is line
   splicing: if stripping would leave the line ending in a backslash, the
   original line is kept — a splice must never appear (or disappear) under
   normalization.  Interior blank lines and leading whitespace stay: they
   shift line/column numbers, which PDB locations record. *)
let normalize_for_key (src : string) : string =
  let strip line =
    let n = String.length line in
    let i = ref n in
    while !i > 0 && (line.[!i - 1] = ' ' || line.[!i - 1] = '\t') do decr i done;
    if !i = n then line
    else
      let stripped = String.sub line 0 !i in
      if !i > 0 && line.[!i - 1] = '\\' then line else stripped
  in
  let lines = List.map strip (String.split_on_char '\n' src) in
  let rec drop_trailing_blanks = function
    | "" :: rest -> drop_trailing_blanks rest
    | kept -> kept
  in
  String.concat "\n" (List.rev (drop_trailing_blanks (List.rev lines)))

(** The include scan and key digest of [bytes], just read at the
    normalized [path].  [cache]'s table answers when the bytes it holds
    for [path] are these bytes; otherwise they are scanned, normalized and
    hashed, and the table keeps the result for the rest of the build. *)
let file ?cache path bytes : file =
  let fresh () =
    { bytes; includes = scan_includes bytes;
      digest = Hashutil.string (normalize_for_key bytes) }
  in
  match cache with
  | None -> fresh ()
  | Some t -> (
      match Mutex.protect t.files_lock (fun () -> Hashtbl.find_opt t.files path) with
      | Some f when f.bytes == bytes || String.equal f.bytes bytes -> f
      | _ ->
          let f = fresh () in
          Mutex.protect t.files_lock (fun () -> Hashtbl.replace t.files path f);
          f)

(** The include closure of [source]: [(path, file)] in DFS first-visit
    order, the source itself first.  Unresolvable includes are skipped (the
    compile proper will diagnose them; for the key they simply contribute
    nothing, and creating the missing header later changes the closure and
    hence the key). *)
let include_closure ?cache ~vfs (source : string) : (string * file) list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit path =
    let path = Vfs.normalize path in
    if not (Hashtbl.mem seen path) then begin
      Hashtbl.replace seen path ();
      match Vfs.read_raw vfs path with
      | None -> ()
      | Some contents ->
          let f = file ?cache path contents in
          out := (path, f) :: !out;
          List.iter
            (fun (system, name) ->
              match Vfs.resolve_include vfs ~from:path ~system name with
              | Some p -> visit p
              | None -> ())
            f.includes
    end
  in
  visit source;
  List.rev !out

(** Cache key for one translation unit.  [options] is the driver's
    compile-option fingerprint (instantiation mode, mapping, language,
    resource budgets).  File contents enter the hash through
    {!normalize_for_key}, so edits the PDB cannot observe (trailing
    whitespace, trailing blank lines) keep the key stable.  [cache] is the
    build's cache, whose table saves rescanning files other units' keys
    have already read. *)
let key ?cache ~vfs ~(options : string) (source : string) : string =
  Trace.timed ~cat:"cache" "cache.key" @@ fun () ->
  Hashutil.strings
    (magic :: options
     :: List.concat_map (fun (p, f) -> [ p; f.digest ])
          (include_closure ?cache ~vfs source))

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

let rec mkdir_p dirname =
  if dirname <> "" && not (Sys.file_exists dirname) then begin
    let parent = Filename.dirname dirname in
    if parent <> dirname then mkdir_p parent;
    try Sys.mkdir dirname 0o755 with Sys_error _ -> ()
  end

(** Replace [path] atomically: [write] fills a temp file beside it, which
    [Sys.rename] then moves over [path].  A reader sees the old file or
    the new one, never a torn mix, and a reader holding the old file open
    keeps reading the old bytes.  The temp name
    ["<path>.tmp.<pid>.<domain>"] cannot collide between concurrent
    domains or processes, and is the shape {!sweep_stale_tmps} recognizes;
    the temp file is removed if the write fails. *)
let write_atomic path (write : out_channel -> unit) : unit =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    let oc = open_out_bin tmp in
    (try write oc with e -> close_out_noerr oc; raise e);
    close_out oc;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* Sharded layout: objects/<hh>/<key>.pdb, hh = first two hex digits of
   the (MD5-hex) key.  256 shards bound directory size and give the
   advisory locks below a natural granularity. *)
let objects_dir t = Filename.concat t.dir "objects"

let shard_of_key key = if String.length key >= 2 then String.sub key 0 2 else "00"

let entry_path t key =
  Filename.concat
    (Filename.concat (objects_dir t) (shard_of_key key))
    (key ^ ".pdb")

let locks_dir t = Filename.concat t.dir "locks"

(* Run [f] holding the shard's advisory fcntl lock.  The lock guards the
   destructive move in {!quarantine_if} against concurrent processes; it
   is strictly advisory and best-effort — a filesystem without lock
   support degrades to unlocked operation, which only widens a window the
   tmp+rename write discipline already keeps harmless.  Plain reads and
   writes never take it (lock-free fast path). *)
let with_shard_lock t key (f : unit -> 'a) : 'a =
  mkdir_p (locks_dir t);
  match
    Unix.openfile
      (Filename.concat (locks_dir t) (shard_of_key key ^ ".lock"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
          f ())

(* The header binds version, key and body together: one string comparison
   on load rejects stale versions, misfiled entries and corrupt bodies
   alike (any body damage changes the digest). *)
let header key digest = Printf.sprintf "%s key=%s digest=%s" magic key digest

(* Structural verification of a whole entry file: header line matches the
   key and the body digest.  No fault sites here — this is also the
   re-judgement that runs under the shard lock, where an injected verdict
   would fabricate exactly the false positive the lock exists to prevent. *)
let verify_digested key content : (string * string) option =
  match String.index_opt content '\n' with
  | None -> None
  | Some i ->
      let body = String.sub content (i + 1) (String.length content - i - 1) in
      let digest = Hashutil.string body in
      if String.sub content 0 i = header key digest then Some (body, digest)
      else None

let verify_content key content : string option =
  Option.map fst (verify_digested key content)

let read_file path =
  Fault.check "cache.read";
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try Some (really_input_string ic (in_channel_length ic))
          with End_of_file | Sys_error _ -> None)

let quarantine_dir t = Filename.concat t.dir "quarantine"

(* Move a bad entry aside — but only if the bytes now at the live path are
   still bad.  The shard lock makes the re-read and the rename atomic with
   respect to other movers, and the re-check ([still_bad], structural
   only) means a concurrent writer that replaced the entry between the
   caller's failed verification and this call wins: the fresh entry stays,
   and no healthy bytes ever land in quarantine/. *)
let quarantine_if t key (still_bad : string -> bool) : unit =
  with_shard_lock t key (fun () ->
      let path = entry_path t key in
      let current =
        match open_in_bin path with
        | exception Sys_error _ -> None
        | ic ->
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                try Some (really_input_string ic (in_channel_length ic))
                with End_of_file | Sys_error _ -> None)
      in
      match current with
      | None -> () (* already quarantined or removed by someone else *)
      | Some content when not (still_bad content) -> () (* replaced: healed *)
      | Some _ ->
          if Trace.on () then
            Trace.instant ~cat:"cache"
              ~args:[ ("key", Trace.Str key) ]
              "cache.quarantine";
          Trace.count ~cat:"cache" "cache.corrupt" 0;
          mkdir_p (quarantine_dir t);
          let dest = Filename.concat (quarantine_dir t) (key ^ ".pdb") in
          (try Sys.rename path dest with Sys_error _ -> ()))

(** Look a key up.  [None] on: no entry, or an entry that fails
    verification — version mismatch, key mismatch (misfiled), digest
    mismatch (truncated / bit-flipped), a body that does not parse as
    ASCII (a PDB-B body included).  Every verification failure quarantines
    the entry so the next build stores a fresh one instead of re-probing
    the same corrupt file.

    With the PDB come the body it parsed from and the body's
    {!Pdt_pdb.Pdb_digest}: verification has just taken the body's MD5, and
    the body is the canonical serialization of the PDB it parses to, so
    neither the merge nor a farm worker's Result frame need serialize the
    PDB again. *)
let load t key : (Pdt_pdb.Pdb.t * string * string) option =
  match read_file (entry_path t key) with
  | None -> None
  | Some content -> (
      let verified =
        match verify_digested key content with
        | Some v when not (Fault.should "cache.load.corrupt") -> Some v
        | _ -> None
      in
      match verified with
      | None ->
          quarantine_if t key (fun c -> verify_content key c = None);
          None
      | Some (body, body_digest) -> (
          (* digest-verified bytes should always parse; if they somehow
             don't, that's corruption too — quarantine, never crash.
             Transient injections from the parser's own site propagate
             so the driver's retry policy sees them. *)
          try Some (Pdt_pdb.Pdb_parse.of_string body, body, body_digest) with
          | Fault.Injected _ as e -> raise e
          | _ ->
              (* still_bad = verifies but still won't parse.  A transient
                 injection inside the re-parse reads as "can't tell" and
                 leaves the entry alone — the next deterministic look
                 settles it. *)
              quarantine_if t key (fun c ->
                  match verify_content key c with
                  | None -> true
                  | Some b -> (
                      match Pdt_pdb.Pdb_parse.of_string b with
                      | _ -> false
                      | exception Fault.Injected _ -> false
                      | exception _ -> true));
              None))

(** Store a PDB body, its {!Pdt_pdb.Pdb_write} bytes: callers serialize
    once and reuse the string for the entry and its merge digest.
    [digest] is that merge digest, the body's MD5 ({!Hashutil.string}, as
    {!Pdt_pdb.Pdb_digest.of_string} takes it), when the caller holds it:
    the header reuses it instead of hashing the body again.  The write
    goes through {!write_atomic}, so concurrent domains {e and} concurrent
    pdbbuild processes sharing a cache dir never expose a half-written
    entry. *)
let store_serialized ?digest t key (body : string) : unit =
  let hdr =
    header key (match digest with Some d -> d | None -> Hashutil.string body)
  in
  let final = entry_path t key in
  mkdir_p (Filename.dirname final);
  write_atomic final (fun oc ->
      if Fault.should "cache.write.torn" then begin
        (* a torn write that still reached the final path: half the
           entry, then rename.  load must catch it by digest. *)
        let half = hdr ^ "\n" ^ body in
        output_string oc (String.sub half 0 (String.length half / 2))
      end
      else begin
        output_string oc hdr;
        output_char oc '\n';
        Fault.check "cache.write.crash";
        output_string oc body
      end)

(* ------------------------------------------------------------------ *)
(* Stale temp sweeping                                                 *)
(* ------------------------------------------------------------------ *)

(* Temp names are "<key>.pdb.tmp.<pid>.<domain>".  Extract the pid so the
   sweeper can distinguish a live writer's temp (untouchable) from the
   debris of a crashed one. *)
let tmp_pid (name : string) : int option =
  let marker = ".tmp." in
  let mlen = String.length marker in
  let n = String.length name in
  let rec find i =
    if i + mlen > n then None
    else if String.sub name i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j -> (
      match String.split_on_char '.' (String.sub name j (n - j)) with
      | pid :: _ -> int_of_string_opt pid
      | [] -> None)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM etc: exists, not ours *)

(** Remove temp files whose writing process is dead; returns how many were
    removed.  Crash-only workers (a SIGKILLed farm worker, a pdbbuild hit
    by OOM) run no cleanup handlers, so their half-written temps persist
    until someone sweeps; the pid-liveness gate makes the sweep safe to
    run while other builders are actively writing.  The farm driver runs
    this before and after every build. *)
let sweep_stale_tmps t : int =
  let removed = ref 0 in
  let sweep_dir dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter
          (fun name ->
            match tmp_pid name with
            | Some pid when not (pid_alive pid) -> (
                match Sys.remove (Filename.concat dir name) with
                | () ->
                    incr removed;
                    Trace.count ~cat:"cache" "cache.tmp_swept" 0
                | exception Sys_error _ -> ())
            | _ -> ())
          names
  in
  (match Sys.readdir (objects_dir t) with
  | exception Sys_error _ -> ()
  | shards ->
      Array.iter
        (fun s -> sweep_dir (Filename.concat (objects_dir t) s))
        shards);
  (* legacy flat layout and any root-level state temps *)
  sweep_dir t.dir;
  !removed
