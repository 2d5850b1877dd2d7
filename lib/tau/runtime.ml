(** The TAU measurement runtime: timers, profile table, event trace.

    In the paper, instrumented code linked against the TAU library collects
    run-time statistics.  Here the "runtime" is driven by the interpreter:
    entering an instrumented routine starts a timer; leaving stops it.  Time
    is measured in deterministic virtual cycles supplied by the interpreter's
    cost model, so profiles are exactly reproducible.  Starting and stopping
    a resolved {!entry} does no lookup and, outside tracing, allocates nothing. *)

type entry = {
  e_name : string;
  mutable e_calls : int;
  mutable e_inclusive : int;
  mutable e_exclusive : int;
  mutable e_child_calls : int;
}

type event = Enter of string * int64 | Exit of string * int64

type t = {
  table : (string, entry) Hashtbl.t;
  (* the open timers, innermost at [depth - 1]: the entry each charges,
     the cycle it started at and the cycles its instrumented children took *)
  mutable stack : entry array;
  mutable starts : int array;
  mutable child : int array;
  mutable depth : int;
  mutable events : event list;  (** reversed *)
  mutable tracing : bool;
  callpath : bool;
      (** TAU callpath mode: timer names become "parent => child" paths *)
  throttle : (int * int) option;
      (** (call threshold, per-call cycle threshold): a timer exceeding the
          call count whose mean inclusive time is below the per-call
          threshold stops being measured (TAU's runtime throttling) *)
}

(* the stack's filler, never charged *)
let no_entry =
  { e_name = ""; e_calls = 0; e_inclusive = 0; e_exclusive = 0; e_child_calls = 0 }

let create ?(tracing = false) ?(callpath = false) ?throttle () =
  { table = Hashtbl.create 64; stack = Array.make 16 no_entry; starts = Array.make 16 0;
    child = Array.make 16 0; depth = 0; events = []; tracing; callpath;
    throttle = Option.map (fun (calls, percall) -> (calls, Int64.to_int percall)) throttle }

(** The profile row of the timer [name], made on its first use. *)
let entry t name =
  match Hashtbl.find t.table name with
  | e -> e
  | exception Not_found ->
      let e = { no_entry with e_name = name } in
      Hashtbl.replace t.table name e;
      e

(** The entry a [TAU_PROFILE] site may keep for [name], as TAU's macro keeps
    a static [FunctionInfo]; none in callpath mode, where the parent names it. *)
let static_entry t name = if t.callpath then None else Some (entry t name)

(** Start [e]'s timer at cycle [now].  Returns [false] when the timer is
    throttled: the call is counted, but the caller must then not expect a
    matching {!exit_}. *)
let start t e ~now =
  let throttled =
    match t.throttle with
    | Some (max_calls, min_percall) ->
        e.e_calls > max_calls && e.e_inclusive / max e.e_calls 1 < min_percall
    | None -> false
  in
  e.e_calls <- e.e_calls + 1;
  if throttled then false
  else begin
    let d = t.depth in
    if d = Array.length t.stack then begin
      let grow a = Array.append a (Array.make d a.(0)) in
      t.stack <- grow t.stack;
      t.starts <- grow t.starts;
      t.child <- grow t.child
    end;
    if d > 0 then (let p = t.stack.(d - 1) in p.e_child_calls <- p.e_child_calls + 1);
    t.stack.(d) <- e;
    t.starts.(d) <- now;
    t.child.(d) <- 0;
    t.depth <- d + 1;
    if t.tracing then t.events <- Enter (e.e_name, Int64.of_int now) :: t.events;
    true
  end

(** Start the timer [name] at cycle [now]; in callpath mode its entry is
    the path from the innermost open timer. *)
let enter t name ~now =
  let name =
    if t.callpath && t.depth > 0 then t.stack.(t.depth - 1).e_name ^ " => " ^ name else name
  in
  start t (entry t name) ~now

let exit_ t ~now =
  let d = t.depth - 1 in
  if d >= 0 then begin
    let e = t.stack.(d) in
    let inclusive = now - t.starts.(d) in
    e.e_inclusive <- e.e_inclusive + inclusive;
    e.e_exclusive <- e.e_exclusive + inclusive - t.child.(d);
    if d > 0 then t.child.(d - 1) <- t.child.(d - 1) + inclusive;
    t.depth <- d;
    if t.tracing then t.events <- Exit (e.e_name, Int64.of_int now) :: t.events
  end

(** Unwind all open timers (e.g. after an uncaught exception). *)
let unwind t ~now = while t.depth > 0 do exit_ t ~now done

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> compare (b.e_inclusive, b.e_name) (a.e_inclusive, a.e_name))

let events t = List.rev t.events

let total_time t =
  (* inclusive time of top-level entries ≈ max inclusive *)
  Int64.of_int (List.fold_left (fun acc e -> max acc e.e_inclusive) 0 (entries t))
