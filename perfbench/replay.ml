(* Layer-by-layer replays of what the build driver does per unit, through
   the same public functions, with a span around each call.  Traced runs
   use these; untraced runs never do. *)

module B = Pdt_build.Build
module C = Pdt_build.Cache
module P = Pdt_pdb.Pdb
module Io = Pdt_pdb.Pdb_io

(* Pdt.compile's three stages, as Build.compile_unit runs them. *)
let compile (r : Spans.t) ?(o = B.default_options) ~vfs source : Pdt_il.Il.program =
  let limits = Pdt_util.Limits.create ~budgets:o.B.limits () in
  let diags = Pdt_util.Diag.create () in
  let pp =
    Spans.span r "preproc" (fun () ->
        Pdt_pp.Preproc.run ~predefined:[ ("__PDT__", "1") ] ~limits ~vfs
          ~diags source)
  in
  Spans.note_here r "preproc.tokens" (float_of_int (List.length pp.tokens));
  let tu =
    Spans.span r "parser" (fun () ->
        Pdt_parse.Parser.parse_translation_unit ~limits ~diags ~file:source
          pp.tokens)
  in
  let prog =
    Spans.span r "sema" (fun () ->
        Pdt_sema.Sema.analyze ~opts:o.B.sema ~limits ~diags pp tu)
  in
  if Pdt_util.Diag.has_errors diags then
    failwith (source ^ ": " ^ Pdt_util.Diag.to_string diags);
  Spans.note_here r "sema.il_routines"
    (float_of_int (Hashtbl.length prog.Pdt_il.Il.routines));
  prog

let analyze (r : Spans.t) ?(o = B.default_options) prog : P.t =
  let pdb =
    Spans.span r "analyzer" (fun () ->
        Pdt_analyzer.Analyzer.run
          ~opts:{ Pdt_analyzer.Analyzer.default_options with mapping = o.B.mapping }
          prog)
  in
  Spans.note_here r "analyzer.items" (float_of_int (P.item_count pdb));
  pdb

let front_end r ?o ~vfs source = analyze r ?o (compile r ?o ~vfs source)

(* Cache.load split at its layer boundary: entry read and verification
   (cache) apart from decoding the body (pdb). *)
let cache_load (r : Spans.t) cache key : P.t option =
  match
    Spans.span r "cache.load" (fun () ->
        Option.bind (C.read_file (C.entry_path cache key)) (C.verify_content key))
  with
  | None -> None
  | Some body ->
      Spans.note_here r "pdb.read_bytes" (float_of_int (String.length body));
      Some (Spans.span r "pdb.read" (fun () -> Io.of_string body))

let serialize (r : Spans.t) (pdb : P.t) : string =
  let s = Spans.span r "pdb.write" (fun () -> Io.to_string Io.Ascii pdb) in
  Spans.note_here r "pdb.write_bytes" (float_of_int (String.length s));
  s

let merge (r : Spans.t) (pdbs : P.t list) : P.t =
  let m = Spans.span r "ductape.merge" (fun () -> Pdt_ductape.Ductape.merge pdbs) in
  Spans.note_here r "merge.items_in"
    (float_of_int (List.fold_left (fun a p -> a + P.item_count p) 0 pdbs));
  Spans.note_here r "merge.items_out" (float_of_int (P.item_count m));
  m

(* The content digests Ductape.merge takes of its inputs, timed apart
   from the op: part of the merge's time, reported separately. *)
let merge_digests (r : Spans.t) ~op (pdbs : P.t list) : unit =
  let ns, () =
    Harness.time_ns (fun () ->
        List.iter (fun p -> ignore (Pdt_pdb.Pdb_digest.of_pdb p)) pdbs)
  in
  Spans.note r ~op "pdb.digest_ms" (Harness.ms_of_ns ns)

(* Per-layer metrics every build replay reports, medians over ops. *)
let build_layers =
  [ "preproc"; "parser"; "sema"; "analyzer"; "pdb.write"; "pdb.read";
    "ductape.merge"; "cache.key"; "cache.load"; "cache.store" ]

let layer_metrics ~prefix (r : Spans.t) (layers : (string * string) list) =
  List.map
    (fun (layer, name) -> Harness.metric (prefix ^ name) "ms" (Spans.layer_ms r layer))
    layers

(* op median - sum of the replayed layers' medians: the build time no
   replayed layer accounts for *)
let unattributed ~op_ms (r : Spans.t) (layers : string list) : float =
  op_ms -. List.fold_left (fun a l -> a +. Spans.layer_ms r l) 0.0 layers

let keep_ratio (r : Spans.t) =
  Spans.noted r "merge.items_out" /. Spans.noted r "merge.items_in"
