(** A fixed-size pool of OCaml 5 domains sharing one array of jobs.

    The project build compiles translation units on [domains] workers;
    each worker claims the next job index from one [Atomic] counter (no
    lock, no queue, no domainslib dependency), and the claim is traced
    as the [sched.queue_wait] span.  Results land in per-index slots so
    callers see them in submission order, never completion order —
    determinism downstream (merge order, summary order) does not depend
    on scheduling.

    Robustness: an exception escaping the task function is captured as
    that slot's [Error], a worker domain dying outside the task (the
    ["scheduler.worker"] fault-injection site models this) marks only its
    own slot, and a caller-supplied [should_stop] predicate lets the
    build's fail-fast mode resolve the unclaimed jobs as {!Cancelled}
    slots instead of running them. *)

open Pdt_util

exception Cancelled
(** The slot's job was never run: [should_stop] turned true first. *)

exception Worker_lost of string
(** A worker (domain or farm process) died holding this slot's job and no
    crash exception could be attributed to it.  The payload says which
    pool lost the slot. *)

(** The one lost-slot policy, shared by the in-process Domain pool below
    and the multi-process {!Farm}: a slot left [None] by a dead worker
    becomes [Error] — attributed to [witness] (the first exception that
    escaped a worker's loop) when there is one, [Worker_lost] otherwise —
    and is {e never} silently dropped.  Conversely a [witness] with no
    missing slot is attributable to no job at all: surfacing it per-slot
    would mislabel a finished job, so it re-raises after the join barrier
    — for the Domain pool a worker death outside a task is a scheduler or
    runtime bug, never a normal outcome. *)
let reconcile ?(witness : exn option) ~(pool : string)
    (results : ('a, exn) result option array) : ('a, exn) result array =
  let lost = ref false in
  let out =
    Array.map
      (function
        | Some r -> r
        | None ->
            lost := true;
            Error
              (match witness with
               | Some e -> e
               | None -> Worker_lost (pool ^ ": lost job")))
      results
  in
  (match witness with
   | Some e when not !lost -> raise e
   | _ -> ());
  out

(** Default worker count: leave one core for the orchestrating domain, and
    don't oversubscribe small containers. *)
let default_domains () =
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(** [parallel_map ~domains f items] applies [f] to every element on a pool
    of [domains] workers.  Slot [i] of the result corresponds to item [i];
    an exception escaping [f] is captured as [Error] for that slot only.
    [domains <= 1] (or a single item) degrades to a plain sequential map,
    which keeps the zero-parallelism path trivially deterministic.
    [should_stop] is polled before each job: once it turns true, jobs not
    yet started resolve to [Error Cancelled] (jobs already running finish
    normally — tasks are never killed mid-flight). *)
let parallel_map ?domains ?(should_stop = fun () -> false) (f : 'a -> 'b)
    (items : 'a array) : ('b, exn) result array =
  let n = Array.length items in
  let domains =
    match domains with
    | Some d -> max 1 (min d n)
    | None -> max 1 (min (default_domains ()) n)
  in
  let run1 x =
    if should_stop () then Error Cancelled
    else
      try
        Fault.check "scheduler.worker";
        Ok (f x)
      with e -> Error e
  in
  if n = 0 then [||]
  else if domains <= 1 then Array.map run1 items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* first exception to escape a worker's loop (i.e. outside run1's
       per-task capture) or a join.  It must not vanish: the jobs the dead
       worker had claimed surface below as that exception instead of an
       anonymous "lost job", and if no slot is missing it re-raises after
       the join barrier — a worker death is a bug in the scheduler or the
       runtime, never a normal outcome. *)
    let crashed : exn option Atomic.t = Atomic.make None in
    let note_crash e = ignore (Atomic.compare_and_set crashed None (Some e)) in
    let worker () =
      let rec loop () =
        let i =
          Trace.span ~cat:"sched" "sched.queue_wait" (fun () ->
              Atomic.fetch_and_add next 1)
        in
        if i < n then begin
          results.(i) <- Some (run1 items.(i));
          loop ()
        end
      in
      (* a dying worker must not take the whole pool down: record the
         exception and exit; unclaimed jobs go to its siblings *)
      try loop () with e -> note_crash e
    in
    let ds = List.init domains (fun _ -> Domain.spawn worker) in
    List.iter (fun d -> try Domain.join d with e -> note_crash e) ds;
    reconcile ?witness:(Atomic.get crashed) ~pool:"scheduler" results
  end
