(* Order statistics for op latencies.

   Percentiles use the nearest-rank definition with integer per-mille
   arithmetic, so "p90 of 100 samples" is exactly the 90th sample and
   leaves exactly 10 beyond it — no float rounding can move a sample
   across the line. *)

let sorted (a : float array) : float array =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* 1-based rank of the per-mille [pm] percentile among [n] samples *)
let rank ~per_mille n = max 1 ((per_mille * n + 999) / 1000)

(* samples strictly beyond the percentile's rank *)
let beyond ~per_mille n = n - rank ~per_mille n

let percentile ~per_mille (a : float array) : float =
  let n = Array.length a in
  if n = 0 then Float.nan else (sorted a).(rank ~per_mille n - 1)

let median (a : float array) : float =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean (a : float array) : float =
  if a = [||] then Float.nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let sum (a : float array) : float = Array.fold_left ( +. ) 0.0 a

(* The tail a result reports: the highest of p99.9, p99 and p90 that keeps
   at least ten samples beyond it.  Each workload fixes its choice from the
   op count its run length gives (see Workloads), so a faster change cannot
   slide the report to another percentile; this rule is how the choice was
   made and what the self-test pins. *)
let tail_choices = [ 999; 990; 900 ]

let tail_per_mille (n : int) : int option =
  List.find_opt (fun pm -> beyond ~per_mille:pm n >= 10) tail_choices

let per_mille_name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)
