(* The benchmark's own span recorder, used only by traced runs.

   Spans are recorded around the benchmark's calls into each layer's
   public functions — never inside the program — and stay in memory until
   the run ends.  A layer's self time is its span minus the time its child
   spans cover; every op opens one root span, so the root's self time is
   the glue between layer calls.  Per-op notes carry the counts read after
   an op (tokens, items, bytes) and side measurements such as the merge
   input digests, which are timed apart from the op so they are not summed
   twice.

   One recorder serves one domain: the traced procedures call layers
   sequentially, and the 2-domain diagnostic times its tasks without it. *)

type span = {
  name : string;
  op : int;
  t0 : int;  (* monotonic ns *)
  mutable t1 : int;
  mutable child : int;  (* ns covered by direct children *)
}

type t = {
  section : string;  (* workload the spans belong to *)
  mutable spans : span list;  (* finished, newest first *)
  mutable stack : span list;
  mutable op : int;  (* current op id; 0 = outside any op *)
  mutable ops : int;
  notes : (int * string, float) Hashtbl.t;
}

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

let create section =
  { section; spans = []; stack = []; op = 0; ops = 0;
    notes = Hashtbl.create 64 }

let span (r : t) (name : string) (f : unit -> 'a) : 'a =
  let s = { name; op = r.op; t0 = now_ns (); t1 = 0; child = 0 } in
  r.stack <- s :: r.stack;
  let finish () =
    s.t1 <- now_ns ();
    r.stack <- List.tl r.stack;
    (match r.stack with
     | p :: _ -> p.child <- p.child + (s.t1 - s.t0)
     | [] -> ());
    r.spans <- s :: r.spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* Run [f] as one op: a fresh op id and a root span named "op".  Returns
   the op id so notes can be attached after the op's spans closed. *)
let op (r : t) (f : unit -> 'a) : int * 'a =
  r.ops <- r.ops + 1;
  r.op <- r.ops;
  let v = span r "op" f in
  r.op <- 0;
  (r.ops, v)

let note (r : t) ~op (name : string) (v : float) : unit =
  let k = (op, name) in
  Hashtbl.replace r.notes k
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.notes k))

(* Note against the op currently open. *)
let note_here (r : t) name v = note r ~op:r.op name v

let self_ns (s : span) = s.t1 - s.t0 - s.child

(* Median over ops of each op's summed self time in [layer], in ms.  Ops
   that never entered the layer count as 0. *)
let layer_ms (r : t) (layer : string) : float =
  let per_op = Array.make (r.ops + 1) 0.0 in
  List.iter
    (fun s ->
      if s.name = layer && s.op > 0 then
        per_op.(s.op) <- per_op.(s.op) +. (float_of_int (self_ns s) /. 1e6))
    r.spans;
  Stats.median (Array.sub per_op 1 r.ops)

(* Median over ops of a note's per-op sum. *)
let noted (r : t) (name : string) : float =
  Stats.median
    (Array.init r.ops (fun i ->
         Option.value ~default:0.0 (Hashtbl.find_opt r.notes (i + 1, name))))

(* All spans as Chrome trace_event "complete" events (one track per
   section), for chrome://tracing or Perfetto. *)
let chrome_events (r : t) ~(tid : int) ~(base : int) : Pdt_util.Json.t list =
  let open Pdt_util.Json in
  List.rev_map
    (fun s ->
      Obj
        [ ("name", Str s.name); ("cat", Str r.section); ("ph", Str "X");
          ("ts", Num (float_of_int (s.t0 - base) /. 1e3));
          ("dur", Num (float_of_int (s.t1 - s.t0) /. 1e3));
          ("pid", Num 1.0); ("tid", Num (float_of_int tid));
          ("args", Obj [ ("op", Num (float_of_int s.op)) ]) ])
    r.spans

let first_ns (r : t) =
  List.fold_left (fun m s -> min m s.t0) max_int r.spans
