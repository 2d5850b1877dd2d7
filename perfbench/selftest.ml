(* Self-tests of the benchmark: the tail-percentile rule and the result
   schema.  Run with: dune build @perfbench/runtest *)

open Pdtbench
module J = Pdt_util.Json

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let () =
  (* nearest rank: p90 of 100 samples is the 90th and leaves 10 beyond *)
  check "rank p90 of 100" (Stats.rank ~per_mille:900 100 = 90);
  check "beyond p90 of 100" (Stats.beyond ~per_mille:900 100 = 10);
  check "beyond p99 of 999" (Stats.beyond ~per_mille:990 999 = 9);
  check "percentile picks a sample"
    (Stats.percentile ~per_mille:900 (Array.init 100 (fun i -> float_of_int (100 - i))) = 90.0);
  check "median odd" (Stats.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Stats.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5);
  (* the tail rule: highest of p99.9/p99/p90 keeping ten samples beyond *)
  let rule = Stats.tail_per_mille in
  check "tail: 99 samples have none" (rule 99 = None);
  check "tail: 100 samples -> p90" (rule 100 = Some 900);
  check "tail: 999 samples -> p90" (rule 999 = Some 900);
  check "tail: 1000 samples -> p99" (rule 1000 = Some 990);
  check "tail: 9999 samples -> p99" (rule 9999 = Some 990);
  check "tail: 10000 samples -> p99.9" (rule 10000 = Some 999);
  check "tail: 10^6 samples -> p99.9" (rule 1_000_000 = Some 999);
  check "tail: names" (List.map Stats.per_mille_name Stats.tail_choices = [ "p99.9"; "p99"; "p90" ]);
  (* each workload fixes one of the rule's choices *)
  List.iter
    (fun (name, pm) -> check ("tail fixed: " ^ name) (List.mem pm Stats.tail_choices))
    [ ("cold_build", Cold_build.workload.tail_per_mille);
      ("edit_rebuild", Edit_rebuild.workload.tail_per_mille);
      ("query_serve", Query_serve.workload.tail_per_mille);
      ("tau_profile", Tau_profile.workload.tail_per_mille) ];
  (* result schema *)
  let m = Harness.metric in
  let line =
    Report.result_line ~correct:true ~attempted:12 ~failed:0
      [ m "op_p50_ms" "ms" 1.2034; m "setup_s" "s" 0.8127;
        m "cold_build.preproc.ms" "ms" 0.1 ]
  in
  check "schema: own line validates"
    (Report.validate line = Ok [ "op_p50_ms"; "setup_s"; "cold_build.preproc.ms" ]);
  check "schema: value keeps all digits"
    (match J.parse line with
     | Ok j ->
         Option.bind (J.member "metrics" j) (J.member "op_p50_ms")
         |> Fun.flip Option.bind (J.member "value")
         = Some (J.Num 1.2034)
     | Error _ -> false);
  let bad what l = check ("schema rejects " ^ what) (Result.is_error (Report.validate l)) in
  bad "extra key"
    {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"ms"}},"x":1}|};
  bad "zero attempted"
    {|{"correct":true,"attempted":0,"failed":0,"metrics":{"a":{"value":1,"unit":"ms"}}}|};
  bad "fractional count"
    {|{"correct":true,"attempted":1.5,"failed":0,"metrics":{"a":{"value":1,"unit":"ms"}}}|};
  bad "missing unit" {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1}}}|};
  bad "bad name"
    {|{"correct":true,"attempted":1,"failed":0,"metrics":{"_a":{"value":1,"unit":"ms"}}}|};
  bad "bad unit"
    {|{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"m s"}}}|};
  bad "no metrics" {|{"correct":true,"attempted":1,"failed":0,"metrics":{}}|};
  bad "non-finite value"
    (Report.result_line ~correct:true ~attempted:1 ~failed:0 [ m "a" "ms" Float.nan ]);
  if !failures > 0 then exit 1
