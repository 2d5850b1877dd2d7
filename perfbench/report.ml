(* The result object a run prints as its last line, and the schema it must
   meet: exactly the keys correct/attempted/failed/metrics, whole counts
   with at least one op attempted, and every metric a finite value with a
   unit, named as BENCHMARK.json allows. *)

module J = Pdt_util.Json

let result_line ~correct ~attempted ~failed (metrics : Harness.metric list) : string =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ("metrics",
          J.Obj
            (List.map
               (fun (m : Harness.metric) ->
                 (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str m.unit_) ]))
               metrics)) ])

let all_chars ok s = String.for_all ok s

let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars (fun c -> is_alnum c || String.contains "_/%.-" c) s

let whole = function
  | J.Num f -> Float.is_integer f && f >= 0.0
  | _ -> false

(* [Ok names] (the metric names, in order) or the first violation. *)
let validate (line : string) : (string list, string) result =
  let ( let* ) = Result.bind in
  let* j = J.parse line in
  let* kvs = match j with J.Obj kvs -> Ok kvs | _ -> Error "not an object" in
  let* () =
    if List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ] then Ok ()
    else Error "keys must be exactly correct, attempted, failed, metrics"
  in
  let get k = List.assoc k kvs in
  let* () =
    match get "correct" with J.Bool _ -> Ok () | _ -> Error "correct: not a boolean"
  in
  let* () =
    if whole (get "attempted") && get "attempted" <> J.Num 0.0 then Ok ()
    else Error "attempted: not a whole number >= 1"
  in
  let* () = if whole (get "failed") then Ok () else Error "failed: not a whole number" in
  let* metrics =
    match get "metrics" with
    | J.Obj ms when ms <> [] -> Ok ms
    | _ -> Error "metrics: not a non-empty object"
  in
  let names = List.map fst metrics in
  let* () =
    if List.length (List.sort_uniq compare names) = List.length names then Ok ()
    else Error "metrics: duplicate name"
  in
  let* () =
    List.fold_left
      (fun acc (name, m) ->
        let* () = acc in
        match m with
        | J.Obj [ ("value", J.Num v); ("unit", J.Str u) ] ->
            if not (valid_name name) then Error (name ^ ": bad name")
            else if not (valid_unit u) then Error (name ^ ": bad unit " ^ u)
            else if not (Float.is_finite v) then Error (name ^ ": value not finite")
            else Ok ()
        | _ -> Error (name ^ ": must be {value: number, unit: string}"))
      (Ok ()) metrics
  in
  Ok names
