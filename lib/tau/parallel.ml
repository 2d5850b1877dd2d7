(** Parallel profiling simulation.

    The paper's setting is "parallel and distributed code executing across
    heterogeneous platforms"; TAU aggregates per-node profiles.  Real MPI is
    outside this container, so parallel execution is simulated: the program
    is run once per rank with the builtin [mpi_rank()]/[mpi_size()]
    reporting different values (SPMD style), and the per-rank profiles are
    aggregated the way TAU's [pprof -s] does (mean / min / max over nodes). *)

module Rt = Runtime

type rank_result = { rank : int; result : Interp.result }

(** Run the program once per rank. *)
let run_ranks ?entry ?instrumented ?tracing ?callpath ?throttle ?max_steps
    ~nranks (prog : Pdt_il.Il.program) : rank_result list =
  List.init nranks (fun rank ->
      { rank;
        result =
          Interp.run ?entry ?instrumented ?tracing ?callpath ?throttle
            ?max_steps ~mpi:(rank, nranks) prog })

type agg = {
  a_name : string;
  a_ranks : int;           (** ranks in which the timer fired *)
  a_calls_total : int;
  a_incl_mean : float;
  a_incl_min : int64;
  a_incl_max : int64;
  a_excl_mean : float;
}

(** Cross-rank aggregation of the per-rank profiles. *)
let aggregate (rs : rank_result list) : agg list =
  let table : (string, (int * int64 * int64) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun rr ->
      List.iter
        (fun (e : Rt.entry) ->
          let cur =
            match Hashtbl.find_opt table e.e_name with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace table e.e_name l;
                l
          in
          cur := (e.e_calls, Int64.of_int e.e_inclusive, Int64.of_int e.e_exclusive) :: !cur)
        (Rt.entries rr.result.Interp.profile))
    rs;
  Hashtbl.fold
    (fun name samples acc ->
      let n = List.length !samples in
      let calls = List.fold_left (fun a (c, _, _) -> a + c) 0 !samples in
      let incls = List.map (fun (_, i, _) -> i) !samples in
      let excls = List.map (fun (_, _, e) -> e) !samples in
      let sum l = List.fold_left Int64.add 0L l in
      { a_name = name;
        a_ranks = n;
        a_calls_total = calls;
        a_incl_mean = Int64.to_float (sum incls) /. float_of_int n;
        a_incl_min = List.fold_left min Int64.max_int incls;
        a_incl_max = List.fold_left max 0L incls;
        a_excl_mean = Int64.to_float (sum excls) /. float_of_int n }
      :: acc)
    table []
  |> List.sort (fun a b -> compare (b.a_incl_mean, b.a_name) (a.a_incl_mean, a.a_name))

(** The pprof-style mean summary across ranks. *)
let format_summary ?(title = "TAU parallel profile (mean over ranks)")
    (rs : rank_result list) : string =
  let aggs = aggregate rs in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n%s\n" title (String.make (String.length title) '-');
  Printf.bprintf b "%6s %12s %12s %12s %8s %6s  %s\n" "ranks" "mean incl"
    "min incl" "max incl" "#calls" "imbal%" "Name";
  List.iter
    (fun a ->
      let imbalance =
        if a.a_incl_mean > 0.0 then
          (Int64.to_float a.a_incl_max -. a.a_incl_mean) /. a.a_incl_mean *. 100.0
        else 0.0
      in
      Printf.bprintf b "%6d %12.0f %12Ld %12Ld %8d %6.1f  %s\n" a.a_ranks
        a.a_incl_mean a.a_incl_min a.a_incl_max a.a_calls_total imbalance a.a_name)
    aggs;
  Buffer.contents b
