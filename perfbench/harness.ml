(* What every workload provides, and the helpers their traced procedures
   share. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* One set-up of a workload, ready to run ops. *)
type session = {
  prepare : unit -> unit;  (* untimed work an op needs first (the edit) *)
  op : unit -> unit;  (* the timed op *)
  check : unit -> bool;  (* untimed: the op's output against its reference *)
  close : unit -> unit;
  sizes : (string * Pdt_util.Json.t) list;  (* input sizes, for the record *)
}

(* Ops a traced procedure ran, beside the per-layer metrics. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let count (t : tally) ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

type workload = {
  name : string;
  tail_per_mille : int;
      (* fixed per workload: the highest percentile that keeps ten samples
         beyond it at the op count of one BENCHMARK.json run *)
  warmup_ops : int;  (* checked ops at the end of each set-up *)
  setup : seed:int -> work:string -> session;
  traced : seed:int -> work:string -> seconds:float -> tally -> Spans.t * metric list;
      (* per-layer metrics, each name prefixed by the workload *)
}

let now_ns = Spans.now_ns

let ms_of_ns ns = float_of_int ns /. 1e6

(* Run [f] at least once and then until [seconds] have passed. *)
let loop_for ~seconds (f : unit -> unit) : unit =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go () =
    f ();
    if now_ns () < deadline then go ()
  in
  go ()

(* Wall ns of [f]. *)
let time_ns (f : unit -> 'a) : int * 'a =
  let t0 = now_ns () in
  let v = f () in
  (now_ns () - t0, v)

(* Allocation and collections of the benchmark's domain across [f] *)
type gc_delta = { alloc_mb : float; minor : float; major : float }

let gc_delta (f : unit -> 'a) : gc_delta * 'a =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  let words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  ( { alloc_mb = (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1e6;
      minor = float_of_int (b.minor_collections - a.minor_collections);
      major = float_of_int (b.major_collections - a.major_collections) },
    v )

(* Median per-op GC metrics from a list of per-op deltas. *)
let gc_metrics ~prefix (ds : gc_delta list) : metric list =
  let med f = Stats.median (Array.of_list (List.map f ds)) in
  [ metric (prefix ^ "gc.alloc_mb") "MB" (med (fun d -> d.alloc_mb));
    metric (prefix ^ "gc.minor") "count" (med (fun d -> d.minor));
    metric (prefix ^ "gc.major") "count" (med (fun d -> d.major)) ]

(* A counter the program keeps in Trace.counters (calls, not ns). *)
let counter_calls name =
  List.fold_left
    (fun acc (n, calls, _) -> if n = name then acc + calls else acc)
    0
    (Pdt_util.Trace.counters ())

let median_list l = Stats.median (Array.of_list l)

(* A growable unboxed float buffer: per-op samples cost 8 bytes each, so
   the benchmark's own memory stays small next to the program's even at a
   hundred thousand ops a run. *)
type buf = { mutable a : Float.Array.t; mutable len : int }

let buf () = { a = Float.Array.create 4096; len = 0 }

let push (b : buf) (x : float) =
  if b.len = Float.Array.length b.a then begin
    let a = Float.Array.create (2 * b.len) in
    Float.Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  Float.Array.set b.a b.len x;
  b.len <- b.len + 1

let contents (b : buf) : float array = Array.init b.len (Float.Array.get b.a)
