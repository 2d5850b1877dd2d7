(* Tests for the structured tracing layer (lib/util/trace.ml) and its
   exporters: Chrome trace_event JSON validity, B/E nesting per track,
   agreement between the span stream and the counters, instantiation
   span args vs sema's own log, and span-tree shape determinism across
   domain counts.  Also pins the monotonic-clock satellite: recorded
   durations are never negative. *)

module T = Pdt_util.Trace
module J = Pdt_util.Json
module B = Pdt_build.Build
module G = Pdt_workloads.Generator

let n_tus = 4

let build_traced ?cache_dir ~domains () =
  let vfs, sources = G.project_vfs ~n_tus () in
  T.start ();
  T.reset_counters ();
  let r =
    B.build ~options:{ B.default_options with domains; cache_dir } ~vfs sources
  in
  T.stop ();
  Alcotest.(check int) "clean build" 0 (r.B.failed + r.B.degraded);
  r

(* ---------------- the JSON module itself ---------------- *)

let test_json_roundtrip () =
  let check_ok s expect =
    match J.parse s with
    | Ok v -> Alcotest.(check bool) ("parse " ^ s) true (v = expect)
    | Error m -> Alcotest.fail (s ^ ": " ^ m)
  in
  check_ok "42" (J.Num 42.0);
  check_ok "[1, true, null]" (J.List [ J.Num 1.0; J.Bool true; J.Null ]);
  check_ok {|{"a": "b\nc", "d": [-1.5e2]}|}
    (J.Obj [ ("a", J.Str "b\nc"); ("d", J.List [ J.Num (-150.0) ]) ]);
  (match J.parse (J.escape "quote\" back\\slash \t\ncontrol\x01") with
   | Ok (J.Str s) ->
       Alcotest.(check string) "escape round-trips" "quote\" back\\slash \t\ncontrol\x01" s
   | _ -> Alcotest.fail "escaped string did not parse back");
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated" ]

(* ---------------- clock and disabled-path behaviour ---------------- *)

(* the monotonic-clock satellite: Unix.gettimeofday could step backwards
   under NTP; CLOCK_MONOTONIC cannot, so durations are never negative *)
let test_durations_never_negative () =
  for _ = 1 to 10_000 do
    let t1 = T.now_ns () in
    let t2 = T.now_ns () in
    Alcotest.(check bool) "clock is monotonic" true (t2 >= t1)
  done;
  T.stop ();
  T.reset_counters ();
  for _ = 1 to 100 do
    T.timed ~cat:"test" "tick" (fun () -> ignore (Sys.opaque_identity 1))
  done;
  List.iter
    (fun (name, calls, ns) ->
      Alcotest.(check bool) (name ^ " duration >= 0") true (ns >= 0);
      Alcotest.(check bool) (name ^ " calls > 0") true (calls > 0))
    (T.counters ())

let test_disabled_span_is_passthrough () =
  T.stop ();
  T.reset_counters ();
  let r = T.span ~cat:"t" "off.span" (fun () -> 41 + 1) in
  Alcotest.(check int) "value" 42 r;
  (* a disabled span neither records an event nor touches its counter *)
  Alcotest.(check bool) "no counter" true
    (not (List.exists (fun (n, _, _) -> n = "off.span") (T.counters ())));
  (* timed, by contrast, feeds --stats even untraced *)
  ignore (T.timed ~cat:"t" "off.timed" (fun () -> 7));
  Alcotest.(check bool) "timed counter" true
    (List.exists (fun (n, _, _) -> n = "off.timed") (T.counters ()))

(* ---------------- chrome export well-formedness ---------------- *)

(* Validate the exporter's output the way tracecheck does: every event
   carries the schema fields, and per track the B/E events balance and
   nest.  Returns (tid, ph, name) per non-metadata event. *)
let validate_chrome (json : string) : (int * string * string) list =
  let doc =
    match J.parse json with
    | Ok d -> d
    | Error m -> Alcotest.fail ("trace is not valid JSON: " ^ m)
  in
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  let parsed =
    events
    |> List.map (fun ev ->
           let str k = Option.bind (J.member k ev) J.to_string_opt in
           let num k = Option.bind (J.member k ev) J.to_num_opt in
           let ph =
             match str "ph" with
             | Some ph when List.mem ph [ "B"; "E"; "i"; "M" ] -> ph
             | _ -> Alcotest.fail "event with bad ph"
           in
           let tid =
             match num "tid" with
             | Some t -> int_of_float t
             | None -> Alcotest.fail "event without tid"
           in
           let name =
             match str "name" with
             | Some n -> n
             | None -> Alcotest.fail "event without name"
           in
           if ph <> "M" then begin
             if num "ts" = None then Alcotest.fail "event without ts";
             if str "cat" = None then Alcotest.fail "event without cat"
           end;
           (tid, ph, name))
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (tid, ph, name) ->
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (name :: stack)
      | "E" -> (
          match stack with
          | top :: rest when top = name -> Hashtbl.replace stacks tid rest
          | top :: _ ->
              Alcotest.fail
                (Printf.sprintf "tid %d: E %s closes open %s" tid name top)
          | [] -> Alcotest.fail (Printf.sprintf "tid %d: stray E %s" tid name))
      | _ -> ())
    parsed;
  Hashtbl.iter
    (fun tid -> function
      | [] -> ()
      | top :: _ ->
          Alcotest.fail (Printf.sprintf "tid %d: %s never closed" tid top))
    stacks;
  parsed

let test_chrome_trace_validates () =
  ignore (build_traced ~domains:4 ());
  let events = validate_chrome (T.chrome_json ()) in
  let has name = List.exists (fun (_, ph, n) -> ph <> "M" && n = name) events in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("span " ^ name ^ " present") true (has name))
    [ "pp.include"; "lex.tokenize"; "parse.tu"; "sema.analyze";
      "sema.instantiate"; "build.unit"; "compile"; "pdb.write"; "pdb.merge";
      "sched.queue_wait" ];
  (* one track per worker domain: > 1 tid when building on 4 domains *)
  let tids =
    List.sort_uniq compare (List.map (fun (t, _, _) -> t) events)
  in
  Alcotest.(check bool) "several tracks" true (List.length tids > 1);
  (* every track announces itself to Perfetto *)
  List.iter
    (fun tid ->
      Alcotest.(check bool)
        (Printf.sprintf "thread_name metadata for tid %d" tid)
        true
        (List.exists (fun (t, ph, n) -> t = tid && ph = "M" && n = "thread_name") events))
    tids

let test_cache_spans_present () =
  let dir = Filename.temp_file "pdt-trace-test" ".cache" in
  Sys.remove dir;
  (* cold build fills the cache, warm build hits it; both are traced *)
  ignore (build_traced ~cache_dir:dir ~domains:2 ());
  let cold = validate_chrome (T.chrome_json ()) in
  let has l name = List.exists (fun (_, ph, n) -> ph <> "M" && n = name) l in
  Alcotest.(check bool) "cache.key span" true (has cold "cache.key");
  Alcotest.(check bool) "cache.load span" true (has cold "cache.load");
  Alcotest.(check bool) "cache.miss marks" true (has cold "cache.miss");
  Alcotest.(check bool) "cache.store span" true (has cold "cache.store");
  ignore (build_traced ~cache_dir:dir ~domains:2 ());
  let warm = validate_chrome (T.chrome_json ()) in
  Alcotest.(check bool) "cache.hit marks" true (has warm "cache.hit")

(* ---------------- counters = span stream ---------------- *)

let test_stats_agree_with_trace () =
  ignore (build_traced ~domains:1 ());
  let rows = T.profile_rows () in
  let counters = T.counters () in
  (* for every span name, the --stats counter and the profile computed
     from the trace come from the same clock reads: equal, not close *)
  List.iter
    (fun (r : T.profile_row) ->
      match List.find_opt (fun (n, _, _) -> n = r.T.pname) counters with
      | None -> Alcotest.fail ("no counter for span " ^ r.T.pname)
      | Some (_, calls, ns) ->
          Alcotest.(check int) (r.T.pname ^ " calls") calls r.T.calls;
          Alcotest.(check bool) (r.T.pname ^ " total ns") true
            (Int64.of_int ns = r.T.inclusive_ns))
    rows;
  (* profile invariants *)
  List.iter
    (fun (r : T.profile_row) ->
      Alcotest.(check bool) (r.T.pname ^ " incl >= excl >= 0") true
        (r.T.inclusive_ns >= r.T.exclusive_ns && r.T.exclusive_ns >= 0L))
    rows;
  let row name = List.find (fun (r : T.profile_row) -> r.T.pname = name) rows in
  Alcotest.(check int) "one parse per unit" (n_tus + 1) (row "parse.tu").T.calls;
  Alcotest.(check int) "one build.unit per unit" (n_tus + 1)
    (row "build.unit").T.calls

(* ---------------- instantiation args match sema ---------------- *)

let test_instantiation_args_match_sema () =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile ~vfs Pdt_workloads.Stack.main_file in
  Alcotest.(check bool) "workload compiles clean" false
    (Pdt_util.Diag.has_errors c.Pdt.diags);
  let diags = Pdt_util.Diag.create () in
  T.start ();
  let t = Pdt_sema.Sema.analyze_full ~diags c.Pdt.pp c.Pdt.tu in
  T.stop ();
  let log_names =
    List.map
      (fun (id, key) ->
        (Pdt_il.Il.template t.Pdt_sema.Sema.prog id).Pdt_il.Il.te_name
        ^ "<" ^ key ^ ">")
      (Pdt_sema.Sema.instantiation_log t)
  in
  let rec span_names acc (n : T.node) =
    let acc =
      if n.T.nname = "sema.instantiate" then
        match List.assoc_opt "name" n.T.nargs with
        | Some (T.Str s) -> s :: acc
        | _ -> Alcotest.fail "sema.instantiate span without name arg"
      else acc
    in
    List.fold_left span_names acc n.T.children
  in
  let traced_names =
    List.concat_map
      (fun (_, roots) -> List.fold_left span_names [] roots)
      (T.forest ())
  in
  Alcotest.(check bool) "sema instantiated something" true (log_names <> []);
  Alcotest.(check (list string)) "trace args = sema's instantiation log"
    (List.sort compare log_names)
    (List.sort compare traced_names)

(* ---------------- tree shape determinism ---------------- *)

let rec shape (n : T.node) : string =
  let args =
    match n.T.nargs with
    | [] -> ""
    | args ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) ->
                 k ^ "="
                 ^ (match v with
                    | T.Str s -> s
                    | T.Int i -> string_of_int i
                    | T.Bool b -> string_of_bool b))
               args)
        ^ "}"
  in
  n.T.nname ^ args ^ "(" ^ String.concat "," (List.map shape n.T.children) ^ ")"

(* every build.unit subtree in the forest, keyed by its unit arg *)
let unit_shapes () : (string * string) list =
  let rec collect acc (n : T.node) =
    let acc =
      if n.T.nname = "build.unit" then
        match List.assoc_opt "unit" n.T.nargs with
        | Some (T.Str u) -> (u, shape n) :: acc
        | _ -> Alcotest.fail "build.unit span without unit arg"
      else acc
    in
    List.fold_left collect acc n.T.children
  in
  List.concat_map (fun (_, roots) -> List.fold_left collect [] roots) (T.forest ())
  |> List.sort compare

let test_tree_shape_deterministic_across_domains () =
  (* same workload, same seed: the span tree under each build.unit must
     not depend on how many domains the work was scheduled across
     (timestamps and track assignment of course do) *)
  ignore (build_traced ~domains:1 ());
  let seq = unit_shapes () in
  ignore (build_traced ~domains:8 ());
  let par = unit_shapes () in
  Alcotest.(check int) "one subtree per unit" (n_tus + 1) (List.length seq);
  Alcotest.(check (list (pair string string)))
    "per-unit span trees identical across 1 and 8 domains" seq par

let suite =
  [ Alcotest.test_case "json: parse/print round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "clock: durations never negative" `Quick
      test_durations_never_negative;
    Alcotest.test_case "disabled tracing is a no-op" `Quick
      test_disabled_span_is_passthrough;
    Alcotest.test_case "chrome export validates and nests" `Quick
      test_chrome_trace_validates;
    Alcotest.test_case "cache spans and hit/miss marks" `Quick
      test_cache_spans_present;
    Alcotest.test_case "--stats counters = trace spans" `Quick
      test_stats_agree_with_trace;
    Alcotest.test_case "instantiation spans carry sema's names" `Quick
      test_instantiation_args_match_sema;
    Alcotest.test_case "span tree shape deterministic across domains" `Quick
      test_tree_shape_deterministic_across_domains ]
