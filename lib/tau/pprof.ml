(** pprof-style profile reports (the textual face of Figure 7).

    TAU's [pprof] prints, per instrumented entity: %time, exclusive time,
    inclusive time, number of calls, child calls and name, sorted by
    inclusive time.  Times here are virtual cycles from the interpreter's
    deterministic cost model. *)

module Rt = Runtime

(** One row of a pprof report, decoupled from the interpreter's [Rt.entry]
    so other producers can borrow the exact format — the {!Pdt_util.Trace}
    flat-profile export renders compiler self-profiles through this very
    function, dogfooding the paper's own report layout. *)
type row = {
  r_name : string;
  r_calls : int;
  r_child_calls : int;
  r_exclusive : int64;
  r_inclusive : int64;
}

(** Render rows in pprof's layout, in the caller's order; [total] is the
    program total the %Time column is relative to. *)
let format_rows ?(title = "TAU profile") ~(total : int64) (rows : row list) :
    string =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n" title;
  Printf.bprintf b "%s\n" (String.make (String.length title) '-');
  Printf.bprintf b "%8s %12s %12s %8s %8s  %s\n" "%Time" "Exclusive" "Inclusive"
    "#Call" "#ChildCalls" "Name";
  List.iter
    (fun r ->
      let pct =
        if total = 0L then 0.0
        else Int64.to_float r.r_inclusive /. Int64.to_float total *. 100.0
      in
      Printf.bprintf b "%8.1f %12Ld %12Ld %8d %8d  %s\n" pct r.r_exclusive
        r.r_inclusive r.r_calls r.r_child_calls r.r_name)
    rows;
  Buffer.contents b

let format ?(title = "TAU profile") (p : Rt.t) : string =
  format_rows ~title ~total:(Rt.total_time p)
    (List.map
       (fun (e : Rt.entry) ->
         { r_name = e.e_name; r_calls = e.e_calls;
           r_child_calls = e.e_child_calls; r_exclusive = Int64.of_int e.e_exclusive;
           r_inclusive = Int64.of_int e.e_inclusive })
       (Rt.entries p))

(** Machine-readable rows: (name, calls, child calls, exclusive, inclusive,
    %time). *)
let rows (p : Rt.t) : (string * int * int * int64 * int64 * float) list =
  let total = Rt.total_time p in
  List.map
    (fun (e : Rt.entry) ->
      let pct =
        if total = 0L then 0.0
        else float_of_int e.e_inclusive /. Int64.to_float total *. 100.0
      in
      (e.e_name, e.e_calls, e.e_child_calls, Int64.of_int e.e_exclusive,
       Int64.of_int e.e_inclusive, pct))
    (Rt.entries p)

(** Event trace dump (TAU's tracing mode). *)
let format_trace (p : Rt.t) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun ev ->
      match ev with
      | Rt.Enter (name, ts) -> Printf.bprintf b "%12Ld ENTER %s\n" ts name
      | Rt.Exit (name, ts) -> Printf.bprintf b "%12Ld EXIT  %s\n" ts name)
    (Rt.events p);
  Buffer.contents b
