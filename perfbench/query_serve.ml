(* query_serve: pdbd on the project's merged PDB-B file, in this process,
   at its default worker count, with one client connection in a closed
   loop.  The mix is seeded and fixed: ~95% cheap lookups, ~5% heavy
   verbs, and a reload every 500th request.  Transport sets the median;
   heavy verbs and reloads set the tail.  No front-end work runs. *)

module B = Pdt_build.Build
module D = Pdt_ductape.Ductape
module P = Pdt_pdb.Pdb
module Io = Pdt_pdb.Pdb_io
module J = Pdt_util.Json
module S = Pdt_serve

let reload_every = 500
let mix_length = 4096

let cheap_verbs =
  [ "ping"; "info"; "find"; "item"; "callees"; "callers"; "defs"; "uses";
    "templateof"; "instantiations" ]

(* pdbd reads a verb's entity id from the request's "id" member, the same
   member that carries the request id (DESIGN.md section 7), so a request
   naming an entity sends that entity's id as its request id; every other
   request sends its sequence number. *)
type request = { body : string; target : int option; heavy : bool; reload : bool }

let num n = J.Num (float_of_int n)

(* [body] is the request object without "id", which is added at send time *)
let request ?(heavy = false) ?(reload = false) ?target fields =
  let s = J.to_string (J.Obj fields) in
  { body = String.sub s 1 (String.length s - 1); target; heavy; reload }

let sent_id ~seq (q : request) = Option.value q.target ~default:seq

let line ~seq (q : request) = Printf.sprintf "{\"id\":%d,%s" (sent_id ~seq q) q.body

(* The mix: its composition is fixed — one request in 20 is heavy, heavy
   verbs rotate, each cheap verb takes a tenth of the rest — and the seed
   picks the order of the cheap verbs and the entities each request names,
   drawn from the reference index so every one exists. *)
let mix ~seed (d : D.t) : request array =
  let rng = Random.State.make [| seed; 0x9d |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let routines = D.routines d in
  let with_du = List.filter (fun (r : P.routine_item) -> r.P.ro_du <> []) routines in
  let instantiated =
    List.filter (fun r -> D.item_template_of (D.Routine r) <> None) routines
  in
  let templates = D.templates d in
  let verb v = ("verb", J.Str v) in
  let cheap = function
    | "find" ->
        request
          [ verb "find"; ("kind", J.Str "routine");
            ("name", J.Str (pick routines).P.ro_name) ]
    | "item" ->
        request ~target:(pick routines).P.ro_id [ verb "item"; ("kind", J.Str "routine") ]
    | ("callees" | "callers") as v -> request ~target:(pick routines).P.ro_id [ verb v ]
    | ("defs" | "uses") as v ->
        let r = pick with_du in
        request ~target:r.P.ro_id [ verb v; ("var", J.Str (pick r.P.ro_du).P.v_name) ]
    | "templateof" ->
        request ~target:(pick instantiated).P.ro_id
          [ verb "templateof"; ("kind", J.Str "routine") ]
    | "instantiations" -> request ~target:(pick templates).P.te_id [ verb "instantiations" ]
    | v -> request [ verb v ]
  in
  let heavy k =
    match k mod 3 with
    | 0 -> request ~heavy:true [ verb "callgraph"; ("root", J.Str "main"); ("depth", num 3) ]
    | 1 -> request ~heavy:true [ verb "stats" ]
    | _ -> request ~heavy:true [ verb "tree"; ("which", J.Str "call") ]
  in
  let verbs = Array.of_list cheap_verbs in
  let order = Array.init mix_length (fun i -> verbs.(i mod Array.length verbs)) in
  for i = mix_length - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.init mix_length (fun i ->
      if i mod 20 = 19 then heavy (i / 20) else cheap order.(i))

let reload_request = request ~reload:true [ ("verb", J.Str "reload") ]

(* Request [i] of the run: the fixed mix, with every 500th a reload. *)
let nth (mix : request array) i =
  if (i + 1) mod reload_every = 0 then reload_request else mix.(i mod mix_length)

(* Probes: fixed requests whose answers are read straight from the
   reference index during set-up. *)
type probe = { p_body : request; p_field : string; p_expect : int list }

let ids_of (field : string) (reply : J.t) : int list option =
  let id_of j =
    match J.member "id" j with
    | Some (J.Num f) -> Some (int_of_float f)
    | _ -> (
        match Option.bind (J.member "routine" j) (J.member "id") with
        | Some (J.Num f) -> Some (int_of_float f)
        | _ -> None)
  in
  match J.member field reply with
  | Some (J.List l) ->
      let ids = List.filter_map id_of l in
      if List.length ids = List.length l then Some ids else None
  | Some (J.Num f) -> Some [ int_of_float f ]
  | _ -> None

let probes (d : D.t) : probe list =
  let routines = D.routines d in
  let named n = List.filter (fun (r : P.routine_item) -> r.P.ro_name = n) routines in
  let main = List.hd (named "main") and tu0 = List.hd (named "tu0_driver") in
  let te = List.hd (D.templates d) in
  let rid (r : P.routine_item) = r.P.ro_id in
  [ { p_body = request [ ("verb", J.Str "info") ]; p_field = "items";
      p_expect = [ P.item_count (D.pdb d) ] };
    { p_body =
        request [ ("verb", J.Str "find"); ("kind", J.Str "routine"); ("name", J.Str "main") ];
      p_field = "matches"; p_expect = List.map rid (named "main") };
    { p_body = request ~target:(rid main) [ ("verb", J.Str "callees") ];
      p_field = "callees"; p_expect = List.map (fun (_, r) -> rid r) (D.callees d main) };
    { p_body = request ~target:(rid tu0) [ ("verb", J.Str "callers") ];
      p_field = "callers"; p_expect = List.map rid (D.callers d tu0) };
    { p_body = request ~target:te.P.te_id [ ("verb", J.Str "instantiations") ];
      p_field = "instantiations";
      p_expect = List.map D.item_id (D.instantiations d te) } ]

type state = {
  path : string;  (* the served PDB-B file *)
  mix : request array;
  probes : probe list;
  holder : S.Snapshot.t;
  daemon : S.Daemon.t;
  client : S.Client.t;
  mutable i : int;  (* requests sent *)
  mutable gen : int;  (* generation the next reply must carry *)
  mutable reply : string option;
}

let socket work = Filename.concat work "pdbd.sock"

let create ~seed ~work =
  let vfs, sources = Project.make ~seed in
  let r = B.build ~options:(Project.build_options ()) ~vfs sources in
  if r.B.failed > 0 then failwith "query_serve: project build failed";
  let path = Filename.concat work "served.pdbb" in
  Io.to_file Io.Binary r.B.merged path;
  let d = D.index r.B.merged in
  let holder = S.Snapshot.load (S.Snapshot.Pdb_file path) in
  (* the socket is bound before start returns: the first connect cannot
     be refused, so no retry backoff *)
  let daemon =
    S.Daemon.start
      ~config:{ S.Daemon.default_config with S.Daemon.socket_path = socket work }
      holder
  in
  let client = S.Client.connect_once (socket work) in
  { path; mix = mix ~seed d; probes = probes d; holder; daemon; client; i = 0;
    gen = 1; reply = None }

let parse reply = match J.parse reply with Ok j -> Some j | Error _ -> None

(* ok, our id, and the generation we expect *)
let envelope_ok ~id ~gen (j : J.t) =
  J.member "ok" j = Some (J.Bool true)
  && J.member "id" j = Some (num id)
  && J.member "gen" j = Some (num gen)

let probe_ok st ~seq (p : probe) =
  let id = sent_id ~seq p.p_body in
  match S.Client.request st.client (line ~seq p.p_body) with
  | None -> false
  | Some reply -> (
      match parse reply with
      | None -> false
      | Some j ->
          envelope_ok ~id ~gen:st.gen j && ids_of p.p_field j = Some p.p_expect)

(* probes without a target use negative ids, apart from the mix's *)
let probes_ok st =
  List.for_all Fun.id (List.mapi (fun k p -> probe_ok st ~seq:(-1 - k) p) st.probes)

let op st =
  st.reply <- S.Client.request st.client (line ~seq:st.i (nth st.mix st.i))

(* Replies render their envelope first and in this order (Query.ok_reply),
   so a prefix comparison checks ok, id and gen without building a JSON
   tree per request: the client then allocates little, and its minor
   collections, which stop every domain, stay rare. *)
let envelope_prefix ~id ~gen = Printf.sprintf "{\"id\":%d,\"ok\":true,\"gen\":%d," id gen

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let check st =
  let q = nth st.mix st.i in
  let id = sent_id ~seq:st.i q in
  st.i <- st.i + 1;
  match st.reply with
  | None -> false
  | Some reply when q.reload -> (
      st.gen <- st.gen + 1;
      match parse reply with
      | Some j ->
          envelope_ok ~id ~gen:st.gen j
          && J.member "reloaded" j = Some (J.Bool true)
          && probes_ok st
      | None -> false)
  | Some reply -> has_prefix (envelope_prefix ~id ~gen:st.gen) reply

let close st =
  S.Client.close st.client;
  S.Daemon.stop st.daemon

let setup ~seed ~work : Harness.session =
  let st = create ~seed ~work in
  if not (probes_ok st) then begin
    close st;
    failwith "query_serve: probe answers differ from the reference index"
  end;
  { prepare = ignore;
    op = (fun () -> op st);
    check = (fun () -> check st);
    close = (fun () -> close st);
    sizes =
      [ ("served_pdbb_bytes", num (Unix.stat st.path).Unix.st_size);
        ("items", num (P.item_count (D.pdb (S.Snapshot.current st.holder).S.Snapshot.dt)));
        ("mix_length", num mix_length);
        ("heavy_share",
         J.Num
           (float_of_int (Array.fold_left (fun a q -> if q.heavy then a + 1 else a) 0 st.mix)
           /. float_of_int mix_length));
        ("reload_every", num reload_every);
        ("daemon_workers", num S.Daemon.default_config.S.Daemon.domains);
        ("client_connections", num 1) ] }

(* Traced: blocks of one reload period each, in turn untraced (daemon
   round trips), traced (the same, one span per op), and replayed
   (Query.handle_line on a second snapshot loaded the same way, in this
   domain), plus one replay of what a reload does per block. *)
let traced ~seed ~work ~seconds (tally : Harness.tally) =
  let st = create ~seed ~work in
  let replay_holder = S.Snapshot.load (S.Snapshot.Pdb_file st.path) in
  let r = Spans.create "query_serve" in
  let plain = ref [] and plain_cheap = ref [] and spanned = ref [] in
  let cheap = ref [] and heavy = ref [] and reloads = ref [] in
  let reads = ref [] and indexes = ref [] and gcs = ref [] in
  let reply_bytes = ref 0 and replies = ref 0 and errors = ref 0 in
  let round_trip () =
    let q = nth st.mix st.i in
    let ns, () = Harness.time_ns (fun () -> op st) in
    Option.iter
      (fun s -> reply_bytes := !reply_bytes + String.length s; incr replies)
      st.reply;
    let ok = check st in
    if not ok then incr errors;
    Harness.count tally ok;
    (q, ns)
  in
  let block = ref 0 in
  Harness.loop_for ~seconds (fun () ->
      (match !block mod 3 with
       | 0 ->
           let gc, () =
             Harness.gc_delta (fun () ->
                 for _ = 1 to reload_every do
                   let q, ns = round_trip () in
                   plain := ns :: !plain;
                   if not (q.heavy || q.reload) then plain_cheap := ns :: !plain_cheap
                 done)
           in
           let per x = x /. float_of_int reload_every in
           gcs :=
             { Harness.alloc_mb = per gc.Harness.alloc_mb; minor = per gc.minor;
               major = per gc.major }
             :: !gcs
       | 1 ->
           for _ = 1 to reload_every do
             let _, (_, ns) = Spans.op r (fun () -> round_trip ()) in
             spanned := ns :: !spanned
           done
       | _ ->
           let base = st.i in
           for k = 0 to reload_every - 1 do
             let q = nth st.mix (base + k) in
             let name = if q.reload then "snapshot.reload" else "query" in
             let ns, (reply, _) =
               Harness.time_ns (fun () ->
                   Spans.span r name (fun () ->
                       S.Query.handle_line replay_holder (line ~seq:(base + k) q)))
             in
             if not (String.length reply > 0 && Option.bind (parse reply) (J.member "ok") = Some (J.Bool true))
             then incr errors;
             if q.reload then reloads := ns :: !reloads
             else if q.heavy then heavy := ns :: !heavy
             else cheap := ns :: !cheap
           done;
           (* what Snapshot.reload does for a PDB-B file, call by call *)
           let read_ns, pdb =
             Harness.time_ns (fun () ->
                 Spans.span r "pdb.read" (fun () ->
                     Pdt_pdb.Pdb_bin.View.to_pdb (Pdt_pdb.Pdb_bin.View.of_file st.path)))
           in
           let index_ns, _ =
             Harness.time_ns (fun () -> Spans.span r "ductape.index" (fun () -> D.index pdb))
           in
           reads := read_ns :: !reads;
           indexes := index_ns :: !indexes);
      incr block);
  close st;
  let med l = Harness.median_list (List.map float_of_int l) in
  let us x = x /. 1e3 and ms x = x /. 1e6 in
  let p = "query_serve." in
  let m = Harness.metric in
  ( r,
    [ m (p ^ "query.cheap_us") "us" (us (med !cheap));
      m (p ^ "query.heavy_us") "us" (us (med !heavy));
      m (p ^ "query.reply_kb") "KiB"
        (float_of_int !reply_bytes /. 1024.0 /. float_of_int (max 1 !replies));
      m (p ^ "query.errors") "count" (float_of_int !errors);
      m (p ^ "daemon.transport_us") "us" (us (med !plain_cheap -. med !cheap));
      m (p ^ "snapshot.reload_ms") "ms" (ms (med !reloads));
      m (p ^ "pdb.read_ms") "ms" (ms (med !reads));
      m (p ^ "pdb.read_mb") "MB" (float_of_int (Unix.stat st.path).Unix.st_size /. 1e6);
      m (p ^ "ductape.index_ms") "ms" (ms (med !indexes));
      m (p ^ "trace.overhead_pct") "%"
        (100.0 *. ((med !spanned /. med !plain) -. 1.0)) ]
    @ Harness.gc_metrics ~prefix:p !gcs )

let workload : Harness.workload =
  { name = "query_serve"; tail_per_mille = 999; warmup_ops = 1000; setup; traced }
