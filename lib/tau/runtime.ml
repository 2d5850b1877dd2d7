(** The TAU measurement runtime: timers, profile table, event trace.

    In the paper, instrumented code linked against the TAU library collects
    run-time statistics.  Here the "runtime" is driven by the interpreter:
    entering an instrumented routine starts a timer; leaving stops it.  Time
    is measured in deterministic virtual cycles supplied by the interpreter's
    cost model, so profiles are exactly reproducible. *)

type entry = {
  e_name : string;
  mutable e_calls : int;
  mutable e_inclusive : int64;
  mutable e_exclusive : int64;
  mutable e_child_calls : int;
}

type timer = {
  t_entry : entry;  (** the profile row this timer charges *)
  t_start : int;
  mutable t_child : int;  (** cycles spent in instrumented children *)
}

type event = Enter of string * int64 | Exit of string * int64

type t = {
  table : (string, entry) Hashtbl.t;
  mutable stack : timer list;
  mutable events : event list;  (** reversed *)
  mutable tracing : bool;
  callpath : bool;
      (** TAU callpath mode: timer names become "parent => child" paths *)
  throttle : (int * int64) option;
      (** (call threshold, per-call cycle threshold): a timer exceeding the
          call count whose mean inclusive time is below the per-call
          threshold stops being measured (TAU's runtime throttling) *)
}

let create ?(tracing = false) ?(callpath = false) ?throttle () =
  { table = Hashtbl.create 64; stack = []; events = []; tracing; callpath;
    throttle }

let entry t name =
  match Hashtbl.find t.table name with
  | e -> e
  | exception Not_found ->
      let e =
        { e_name = name; e_calls = 0; e_inclusive = 0L; e_exclusive = 0L;
          e_child_calls = 0 }
      in
      Hashtbl.replace t.table name e;
      e

(** Start a timer at cycle [now].  Returns [false] when the timer is
    throttled (the caller must then not expect a matching {!exit_}). *)
let enter t name ~now =
  let name =
    if t.callpath then
      match t.stack with
      | parent :: _ -> parent.t_entry.e_name ^ " => " ^ name
      | [] -> name
    else name
  in
  let e = entry t name in
  let throttled =
    match t.throttle with
    | Some (max_calls, min_percall) ->
        e.e_calls > max_calls
        && Int64.div e.e_inclusive (Int64.of_int (max e.e_calls 1)) < min_percall
    | None -> false
  in
  e.e_calls <- e.e_calls + 1;
  if throttled then false
  else begin
    (match t.stack with
     | parent :: _ -> parent.t_entry.e_child_calls <- parent.t_entry.e_child_calls + 1
     | [] -> ());
    t.stack <- { t_entry = e; t_start = now; t_child = 0 } :: t.stack;
    if t.tracing then t.events <- Enter (name, Int64.of_int now) :: t.events;
    true
  end

let exit_ t ~now =
  match t.stack with
  | [] -> ()
  | timer :: rest ->
      let inclusive = now - timer.t_start in
      let e = timer.t_entry in
      e.e_inclusive <- Int64.add e.e_inclusive (Int64.of_int inclusive);
      e.e_exclusive <- Int64.add e.e_exclusive (Int64.of_int (inclusive - timer.t_child));
      (match rest with
       | parent :: _ -> parent.t_child <- parent.t_child + inclusive
       | [] -> ());
      t.stack <- rest;
      if t.tracing then t.events <- Exit (e.e_name, Int64.of_int now) :: t.events

(** Unwind all open timers (e.g. after an uncaught exception). *)
let unwind t ~now = while t.stack <> [] do exit_ t ~now done

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> compare (b.e_inclusive, b.e_name) (a.e_inclusive, a.e_name))

let events t = List.rev t.events

let total_time t =
  (* inclusive time of top-level entries ≈ max inclusive *)
  List.fold_left (fun acc e -> max acc e.e_inclusive) 0L (entries t)
