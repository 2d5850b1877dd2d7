(** Immutable, atomically swappable program-database snapshots — the
    state model behind pdbd.

    A snapshot is a fully indexed {!Pdt_ductape.Ductape.t}: every hash
    table inside it is built at [index] time and never mutated afterwards,
    so any number of the daemon's event loops can read one snapshot
    concurrently without a lock.  The live snapshot sits in an [Atomic.t]
    cell; a reload builds the replacement off to the side and publishes it
    with a single [Atomic.set].  A request grabs the cell {e once} when it
    is answered, which is the whole snapshot-isolation story: an
    in-flight query keeps the generation it started with, no matter how
    many swaps land while it runs, and a reply can never mix data from
    two generations.

    Reloads are serialized by a mutex (concurrent [reload] requests
    queue; each still gets its own generation).  A reload that fails —
    injected fault, vanished file, malformed container — leaves the old
    snapshot in place and reports the error; the daemon keeps answering
    from the generation it already has. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape
module I = Pdt_build.Incremental

(** Where the PDB comes from, and what [reload] means for it. *)
type source =
  | Pdb_file of string
      (** A merged PDB on disk (either container).  Reload re-reads the
          file — the producer is some external [pdbbuild]. *)
  | Project of {
      vfs : Pdt_util.Vfs.t;
      sources : string list;
      options : I.options;
    }
      (** A project served from its sources.  Reload runs the
          [pdbbuild --incremental] machinery ({!Pdt_build.Incremental},
          which splices cached group partial merges): unchanged
          dependency fingerprints are reused, so an edit-free reload
          touches nothing and an edit rebuilds only its cone. *)
  | In_memory of { label : string; produce : int -> P.t }
      (** Test harness source: [produce gen] builds generation [gen]'s
          PDB.  Lets the stress suite serve two distinguishable versions
          and prove no reply ever straddles a swap. *)

type reload_stats = {
  reanalyzed : int;  (** units recompiled (project sources only) *)
  reused : int;      (** units served by fingerprint/cache *)
}

type snap = {
  gen : int;          (** 1 for the initial load, +1 per reload *)
  dt : D.t;
  label : string;     (** what to call the database in replies *)
  format : string;    (** "ascii" | "binary" | "project" | "memory" *)
  mmap : bool;        (** binary container loaded through Pdb_bin.View *)
}

type t = {
  source : source;
  cell : snap Atomic.t;
  reload_mutex : Mutex.t;
}

let no_stats = { reanalyzed = 0; reused = 0 }

(* Load one generation from the source.  Any exception is the caller's
   problem: [load] propagates it (a daemon that cannot load its first
   snapshot should die loudly), [reload] turns it into [Error]. *)
let load_gen (source : source) (gen : int) : snap * reload_stats =
  Pdt_util.Trace.span ~cat:"serve" "serve.load"
    ~args:[ ("gen", Pdt_util.Trace.Int gen) ]
  @@ fun () ->
  match source with
  | Pdb_file path ->
      let fmt = Pdt_pdb.Pdb_io.sniff_file path in
      let pdb, mmap =
        match fmt with
        | Pdt_pdb.Pdb_io.Binary ->
            (* mmap and validate, then decode into the navigable model
               the query verbs need *)
            (Pdt_pdb.Pdb_bin.View.to_pdb (Pdt_pdb.Pdb_bin.View.of_file path), true)
        | Pdt_pdb.Pdb_io.Ascii -> (Pdt_pdb.Pdb_parse.of_file path, false)
      in
      ( { gen; dt = D.index pdb; label = path;
          format = Pdt_pdb.Pdb_io.format_name fmt; mmap },
        no_stats )
  | Project { vfs; sources; options } ->
      let r = I.build ~options ~vfs sources in
      ( { gen; dt = D.index r.I.merged;
          label = Printf.sprintf "project (%d units)" (List.length sources);
          format = "project"; mmap = false },
        { reanalyzed = r.I.reanalyzed; reused = r.I.reused } )
  | In_memory { label; produce } ->
      ({ gen; dt = D.index (produce gen); label; format = "memory"; mmap = false },
       no_stats)

let load (source : source) : t =
  let snap, _ = load_gen source 1 in
  { source; cell = Atomic.make snap; reload_mutex = Mutex.create () }

(** The live snapshot.  Callers must read this {e once} per request and
    use the returned value throughout — re-reading mid-request is how
    isolation would break. *)
let current (t : t) : snap = Atomic.get t.cell

let reload (t : t) : (snap * reload_stats, string) result =
  Mutex.lock t.reload_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.reload_mutex) @@ fun () ->
  let next_gen = (Atomic.get t.cell).gen + 1 in
  Pdt_util.Trace.span ~cat:"serve" "serve.reload"
    ~args:[ ("gen", Pdt_util.Trace.Int next_gen) ]
  @@ fun () ->
  match
    Pdt_util.Fault.check "serve.reload";
    load_gen t.source next_gen
  with
  | snap, stats ->
      (* the one and only publication point: in-flight queries keep the
         snap value they already fetched; new requests see this one *)
      Atomic.set t.cell snap;
      Ok (snap, stats)
  | exception e ->
      let msg =
        match e with
        | Pdt_pdb.Pdb_parse.Parse_error (line, m) ->
            Printf.sprintf "PDB parse error at line %d: %s" line m
        | Pdt_pdb.Pdb_bin.Format_error m -> "PDB-B format error: " ^ m
        | Sys_error m -> m
        | Pdt_util.Fault.Injected site -> "injected fault at " ^ site
        | e -> Printexc.to_string e
      in
      Error msg
