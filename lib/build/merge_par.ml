(** Parallel k-way tree-reduction PDB merge — a measured alternative, not
    a build path.

    No driver merges through this module: {!Build.build}, {!Farm.build}
    and {!Incremental.build} all end in the flat
    {!Pdt_ductape.Ductape.merge}.  Measured over the same 25 unit PDBs
    on a 2-core host, this tree merge at 2 domains took about twice as
    long as the flat merge (EXPERIMENTS.md, B7).  It stays as the
    alternative the benches time, and its tests pin that the flat merge
    is independent of grouping, which the incremental group cache relies
    on.

    {!Pdt_ductape.Ductape.merge} is canonical — its output is a pure
    function of the deduplicated content, not of input order or grouping —
    so a big merge can be computed as a two-level reduction: the inputs
    split into [k] contiguous chunks that merge concurrently on the
    {!Scheduler} pool, and the [k] partial PDBs merge flat at the root.
    The final bytes match the flat sequential merge exactly; the tests in
    [test_build.ml] pin that identity across tree shapes, domain counts
    and input permutations.

    A k-way split beats a pairwise binary tree here for two reasons: the
    pool spawns its domains once instead of once per round, and each input
    item is keyed and rewritten twice in total (once in its chunk, once at
    the root over the already-deduplicated partials) instead of [log2 n]
    times.  When template duplication across translation units is heavy —
    the paper's Table 2 scenario — the partials are close to the unique
    content, so the root merge is cheap and the chunk level parallelizes
    the bulk of the work.

    The identity relies on the inputs being mutually consistent, as PDBs
    of one project are under the one-definition rule: duplicate entities
    across inputs are either content-identical after id remapping or
    declaration/definition pairs.  Conflicting definitions of the same
    entity (an ODR violation) are resolved deterministically but possibly
    differently by different groupings.

    With one domain (or too few inputs to split) this degrades to the
    flat merge. *)

module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape

let merge ?domains (pdbs : P.t list) : P.t =
  let k =
    match domains with
    | Some d -> max 1 d
    | None -> Scheduler.default_domains ()
  in
  let n = List.length pdbs in
  if k <= 1 || n <= 3 then D.merge pdbs
  else begin
    let arr = Array.of_list pdbs in
    let k = min k (n / 2) in  (* at least two inputs per chunk *)
    let chunk i =
      (* contiguous slice [i*n/k, (i+1)*n/k) — covers all of [arr] *)
      let s = i * n / k and e = (i + 1) * n / k in
      Array.to_list (Array.sub arr s (e - s))
    in
    let merge_chunk ps =
      Pdt_util.Trace.span ~cat:"pdb" "pdb.merge_chunk" (fun () -> D.merge ps)
    in
    let partials =
      Scheduler.parallel_map ~domains:k merge_chunk (Array.init k chunk)
    in
    D.merge
      (Array.to_list partials
      |> List.mapi (fun i -> function
           | Ok p -> p
           | Error e when Pdt_util.Fault.is_transient e ->
               (* a flaky worker lost this chunk; the flat merge is
                  deterministic, so redoing it inline changes nothing *)
               Pdt_util.Trace.count ~cat:"build" "build.retry" 0;
               D.merge (chunk i)
           | Error e -> raise e))
  end
