(* The pdbd test battery (PR 8): protocol conformance, concurrency, and
   wire-level robustness.

   Conformance: a scripted session exercises every verb in the catalogue
   plus the error paths (unknown verb, malformed JSON, non-object
   request, bad arguments, version handshake) through Query.handle_line,
   and the full request/reply transcript is byte-pinned against
   test/golden/pdbd_session.txt — the reply encoding IS the protocol, so
   any change to it must leave a reviewable diff.  Regenerate with
   PDT_GOLDEN_REGEN=1 after an intentional protocol change.

   Concurrency: a live daemon (Unix socket, PDT_TEST_DOMAINS event
   loops) is hammered by client threads while reloads swap the snapshot
   under them.  Each generation serves a PDB with a different routine
   count, and every reply must be internally consistent — the advertised
   gen and the data must come from the same snapshot — with zero failed
   queries across the swaps.  Failures dump a pdbd-stress.log for CI to
   upload.

   Robustness: a seeded mutation fuzzer (truncations, bit flips,
   oversized payloads, pipelined garbage) runs ~2000 frames through
   handle_line, which must always return a structured one-line reply,
   and a socket-level subset checks the daemon survives the same abuse
   with at worst a dropped connection; every fourth socket frame comes
   from a client that reads nothing until another client is served.
   Two directed tests pin the connection lifecycle: a client that never
   reads holds up no other client, and one that closes with replies
   still owed gives its slot back and does not delay stop.  Every wait
   on the daemon is bounded, so a regression fails instead of hanging
   the suite. *)

module J = Pdt_util.Json
module P = Pdt_pdb.Pdb
module D = Pdt_ductape.Ductape
module Snap = Pdt_serve.Snapshot
module Q = Pdt_serve.Query
module Dm = Pdt_serve.Daemon
module Cl = Pdt_serve.Client

let test_domains default =
  match Option.bind (Sys.getenv_opt "PDT_TEST_DOMAINS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(* ---------------- deterministic in-memory sources ---------------- *)

(* the conformance PDB: the Stack workload, same for every generation *)
let stack_pdb (_gen : int) : P.t =
  let vfs = Pdt_workloads.Stack.vfs () in
  let c = Pdt.compile_exn ~vfs Pdt_workloads.Stack.main_file in
  Pdt_analyzer.Analyzer.run c.Pdt.program

let stack_holder () =
  Snap.load (Snap.In_memory { label = "stack"; produce = stack_pdb })

(* the stress PDB: generation g carries g marker functions, so the
   routine count identifies which snapshot a reply was answered from *)
let gen_source (gen : int) : string =
  let b = Buffer.create 256 in
  for i = 1 to gen do
    Printf.bprintf b "int marker%d(int x) { return x + %d; }\n" i i
  done;
  Buffer.add_string b "int main() { return marker1(0); }\n";
  Buffer.contents b

let gen_pdb (gen : int) : P.t =
  let c = Pdt.compile_string (gen_source gen) in
  Pdt_analyzer.Analyzer.run c.Pdt.program

let gen_holder () =
  Snap.load (Snap.In_memory { label = "genN"; produce = gen_pdb })

let routines_of_gen : (int, int) Hashtbl.t = Hashtbl.create 8

let expected_routines (gen : int) : int =
  match Hashtbl.find_opt routines_of_gen gen with
  | Some n -> n
  | None ->
      let n = List.length (gen_pdb gen).P.routines in
      Hashtbl.replace routines_of_gen gen n;
      n

(* ---------------- daemon harness ---------------- *)

let fresh_socket () =
  let f = Filename.temp_file "pdbd-test" ".sock" in
  Sys.remove f;
  f

let rec connect_retry ?(tries = 200) path =
  match Cl.connect path with
  | c -> c
  | exception _ when tries > 0 ->
      ignore (Unix.select [] [] [] 0.02);
      connect_retry ~tries:(tries - 1) path

(* Dm.stop, bounded: a daemon that does not come down within [secs]
   fails the test instead of hanging the suite *)
let stop_within (secs : float) (t : Dm.t) : unit =
  let finished = Atomic.make false in
  ignore (Thread.create (fun () -> Dm.stop t; Atomic.set finished true) ());
  let deadline = Unix.gettimeofday () +. secs in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Atomic.get finished) then
    Alcotest.failf "Daemon.stop did not return within %.1f s" secs

let start_daemon ?(domains = test_domains 2) ?(max_line = Dm.default_config.Dm.max_line)
    ?(max_conns = Dm.default_config.Dm.max_conns) (holder : Snap.t) :
    string * Dm.t =
  let socket_path = fresh_socket () in
  (socket_path, Dm.start ~config:{ Dm.socket_path; domains; max_line; max_conns } holder)

(* run [f], then stop [t] within [secs]; a failure in [f] is the one
   reported, not one in the stop that follows it *)
let then_stop ?(secs = 30.0) (t : Dm.t) (f : unit -> unit) : unit =
  match f () with
  | () -> stop_within secs t
  | exception e ->
      (try stop_within secs t with _ -> ());
      raise e

let with_daemon ?domains ?max_line ?max_conns (holder : Snap.t)
    (f : string -> unit) : unit =
  let socket_path, t = start_daemon ?domains ?max_line ?max_conns holder in
  then_stop t (fun () -> f socket_path)

let reply_ok (j : J.t) = J.member "ok" j = Some (J.Bool true)

let reply_gen (j : J.t) =
  match Option.bind (J.member "gen" j) J.to_num_opt with
  | Some f -> int_of_float f
  | None -> -1

let get_reply name = function
  | Some j -> j
  | None -> Alcotest.failf "%s: connection dropped" name

(* ---------------- conformance: the golden session ---------------- *)

let test_conformance_session () =
  let holder = stack_holder () in
  let d = (Snap.current holder).Snap.dt in
  (* deterministic ids for the id-taking verbs, straight from the index *)
  let main_r =
    List.find (fun (r : P.routine_item) -> r.P.ro_name = "main") (D.routines d)
  in
  let callee =
    match D.callees d main_r with
    | ((_ : P.call), c) :: _ -> c
    | [] -> Alcotest.fail "stack main has no callees"
  in
  let templ = List.hd (D.templates d) in
  let inst =
    List.find (fun (c : P.class_item) -> c.P.cl_templ <> None) (D.classes d)
  in
  let file = List.hd (D.files d) in
  let b = Buffer.create 4096 in
  let send line =
    let reply, _disp = Q.handle_line holder line in
    Printf.bprintf b "> %s\n< %s\n" line reply
  in
  (* handshake + trivia *)
  send {|{"id":1,"verb":"hello","protocol":1}|};
  send {|{"id":2,"verb":"hello","protocol":99}|};
  send {|{"id":3,"verb":"hello"}|};
  send {|{"id":4,"verb":"ping"}|};
  send {|{"id":5,"verb":"info"}|};
  (* entity lookup *)
  send {|{"id":6,"verb":"list","kind":"class"}|};
  send {|{"id":7,"verb":"list","kind":"routine","offset":1,"limit":3}|};
  send {|{"id":8,"verb":"find","kind":"routine","name":"main"}|};
  send {|{"id":9,"verb":"find","kind":"routine","name":"push"}|};
  send {|{"id":10,"verb":"find","kind":"class","name":"nonexistent"}|};
  send (Printf.sprintf {|{"id":11,"verb":"item","kind":"routine","id":%d}|}
          main_r.P.ro_id);
  send (Printf.sprintf {|{"id":12,"verb":"item","kind":"class","id":%d}|}
          inst.P.cl_id);
  send (Printf.sprintf {|{"id":13,"verb":"item","kind":"file","id":%d}|}
          file.P.so_id);
  (* call graph *)
  send (Printf.sprintf {|{"id":14,"verb":"callees","id":%d}|} main_r.P.ro_id);
  send (Printf.sprintf {|{"id":15,"verb":"callers","id":%d}|} callee.P.ro_id);
  send {|{"id":16,"verb":"callgraph","depth":2}|};
  send (Printf.sprintf {|{"id":17,"verb":"callgraph","root":%d,"depth":1}|}
          main_r.P.ro_id);
  (* template <-> instantiation maps *)
  send (Printf.sprintf {|{"id":18,"verb":"instantiations","id":%d}|}
          templ.P.te_id);
  send (Printf.sprintf {|{"id":19,"verb":"templateof","kind":"class","id":%d}|}
          inst.P.cl_id);
  (* semantic analyses (define-use chains; spawn counts ride on item) *)
  let du_var =
    match main_r.P.ro_du with
    | v :: _ -> v.P.v_name
    | [] -> Alcotest.fail "stack main has no define-use data"
  in
  send (Printf.sprintf {|{"id":37,"verb":"defs","id":%d,"var":"%s"}|}
          main_r.P.ro_id du_var);
  send (Printf.sprintf {|{"id":38,"verb":"uses","id":%d,"var":"%s"}|}
          main_r.P.ro_id du_var);
  send (Printf.sprintf {|{"id":39,"verb":"duchain","id":%d,"var":"%s"}|}
          main_r.P.ro_id du_var);
  send (Printf.sprintf {|{"id":40,"verb":"defs","id":%d}|} main_r.P.ro_id);
  send (Printf.sprintf {|{"id":41,"verb":"duchain","id":%d,"var":"nosuchvar"}|}
          main_r.P.ro_id);
  (* tool views *)
  send {|{"id":20,"verb":"tree","which":"include"}|};
  send {|{"id":21,"verb":"tree","which":"class"}|};
  send {|{"id":22,"verb":"tree","which":"call"}|};
  send {|{"id":23,"verb":"stats"}|};
  send {|{"id":24,"verb":"stats","render":true}|};
  (* error paths *)
  send {|{"id":25,"verb":"frobnicate"}|};
  send {|{"id":26}|};
  send {|{"id":27,"verb":42}|};
  send {|[1,2,3]|};
  send {|{"id":28,"verb":"list","kind":"bogus"}|};
  send {|{"id":29,"verb":"item","kind":"routine"}|};
  send {|{"id":30,"verb":"callees","id":999999}|};
  send {|{"id":31,"verb":"tree","which":"sideways"}|};
  send {|{"id":32,"verb":"instantiations"}|};
  send {|not json at all|};
  send {|{"id":33,"verb":"ping","unclosed":|};
  (* reload (gen 2 serves the same stack PDB) and shutdown *)
  send {|{"id":34,"verb":"reload"}|};
  send {|{"id":35,"verb":"ping"}|};
  send {|{"id":36,"verb":"shutdown"}|};
  Test_golden.check_text_golden ~suite:"pdbd" ~what:"wire replies"
    ~name:"pdbd_session.txt" (Buffer.contents b)

(* every line of the session must also be well-formed JSON with the
   envelope fields, independent of the golden bytes *)
let test_reply_envelope () =
  let holder = stack_holder () in
  List.iter
    (fun line ->
      let reply, _ = Q.handle_line holder line in
      match J.parse reply with
      | Error e -> Alcotest.failf "reply %S is not JSON: %s" reply e
      | Ok j ->
          Alcotest.(check bool) "has ok" true (J.member "ok" j <> None);
          Alcotest.(check bool) "has gen" true (J.member "gen" j <> None);
          Alcotest.(check bool) "has id" true (J.member "id" j <> None))
    [ {|{"id":1,"verb":"ping"}|}; {|{"verb":"info"}|}; {|garbage|}; {|[]|};
      {|{"id":"string-ids-fine","verb":"stats"}|};
      {|{"id":null,"verb":"nope"}|} ]

(* shutdown is the only disposition that stops the daemon *)
let test_dispositions () =
  let holder = stack_holder () in
  let disp line = snd (Q.handle_line holder line) in
  Alcotest.(check bool) "ping continues" true
    (disp {|{"verb":"ping"}|} = Q.Continue);
  Alcotest.(check bool) "garbage continues" true
    (disp {|]]]|} = Q.Continue);
  Alcotest.(check bool) "shutdown stops" true
    (disp {|{"verb":"shutdown"}|} = Q.Shutdown)

(* ---------------- live daemon: smoke + ordering + limits ------------ *)

let test_socket_smoke () =
  with_daemon (stack_holder ()) @@ fun socket ->
  let c = connect_retry socket in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let hello =
    get_reply "hello"
      (Cl.request_json c (J.Obj [ ("verb", J.Str "hello"); ("protocol", J.Num 1.) ]))
  in
  Alcotest.(check bool) "hello ok" true (reply_ok hello);
  Alcotest.(check bool) "advertises verbs" true
    (match J.member "verbs" hello with
     | Some (J.List l) -> List.length l = 18
     | _ -> false);
  let find =
    get_reply "find"
      (Cl.request_json c
         (J.Obj
            [ ("verb", J.Str "find"); ("kind", J.Str "routine");
              ("name", J.Str "main") ]))
  in
  Alcotest.(check bool) "find ok" true (reply_ok find);
  let reload =
    get_reply "reload" (Cl.request_json c (J.Obj [ ("verb", J.Str "reload") ]))
  in
  Alcotest.(check bool) "reload ok" true (reply_ok reload);
  Alcotest.(check int) "reload to gen 2" 2 (reply_gen reload);
  let ping =
    get_reply "ping" (Cl.request_json c (J.Obj [ ("verb", J.Str "ping") ]))
  in
  Alcotest.(check int) "ping sees gen 2" 2 (reply_gen ping)

let test_pipelined_ordering () =
  with_daemon (stack_holder ()) @@ fun socket ->
  let c = connect_retry socket in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  (* 50 requests in ONE write; replies must come back in exact order *)
  let n = 50 in
  let batch = Buffer.create 1024 in
  for i = 0 to n - 1 do
    let verb = if i mod 3 = 0 then "ping" else if i mod 3 = 1 then "info" else "stats" in
    Printf.bprintf batch {|{"id":%d,"verb":"%s"}|} i verb;
    Buffer.add_char batch '\n'
  done;
  Cl.send_line c (String.sub (Buffer.contents batch) 0 (Buffer.length batch - 1));
  for i = 0 to n - 1 do
    match Cl.recv_line c with
    | None -> Alcotest.failf "connection dropped before reply %d" i
    | Some line -> (
        match J.parse line with
        | Ok j ->
            Alcotest.(check bool) "pipelined ok" true (reply_ok j);
            (match Option.bind (J.member "id" j) J.to_num_opt with
             | Some f ->
                 Alcotest.(check int)
                   (Printf.sprintf "reply %d in order" i)
                   i (int_of_float f)
             | None -> Alcotest.failf "reply %d has no numeric id" i)
        | Error e -> Alcotest.failf "reply %d unparseable: %s" i e)
  done

let test_oversized_line () =
  with_daemon ~max_line:256 (stack_holder ()) @@ fun socket ->
  (* just under the limit: answered normally *)
  let c1 = connect_retry socket in
  let padded =
    Printf.sprintf {|{"id":1,"verb":"ping","pad":"%s"}|} (String.make 180 'x')
  in
  let r = get_reply "padded ping" (Cl.request_json c1 (Option.get (Result.to_option (J.parse padded)))) in
  Alcotest.(check bool) "under limit ok" true (reply_ok r);
  Cl.close c1;
  (* way over: a structured too-large error, then the connection closes *)
  let c2 = connect_retry socket in
  Cl.send_line c2 (String.make 10_000 'a');
  (match Cl.recv_line c2 with
   | None -> Alcotest.fail "oversized line got no reply before close"
   | Some line -> (
       match J.parse line with
       | Ok j ->
           Alcotest.(check bool) "too-large is an error" false (reply_ok j);
           Alcotest.(check bool) "code too-large" true
             (match
                Option.bind (J.member "error" j) (fun e -> J.member "code" e)
              with
              | Some (J.Str "too-large") -> true
              | _ -> false)
       | Error e -> Alcotest.failf "too-large reply unparseable: %s" e));
  Alcotest.(check bool) "connection closed after too-large" true
    (Cl.recv_line c2 = None);
  Cl.close c2;
  (* the daemon itself is unharmed *)
  let c3 = connect_retry socket in
  let ping =
    get_reply "ping after abuse"
      (Cl.request_json c3 (J.Obj [ ("verb", J.Str "ping") ]))
  in
  Alcotest.(check bool) "daemon alive" true (reply_ok ping);
  Cl.close c3

let test_too_many_connections () =
  (* connections past max_conns get a structured rejection and a close;
     established clients are untouched, and a freed slot readmits *)
  with_daemon ~max_conns:2 (stack_holder ()) @@ fun socket ->
  let ping c name =
    reply_ok (get_reply name (Cl.request_json c (J.Obj [ ("verb", J.Str "ping") ])))
  in
  let c1 = connect_retry socket in
  let c2 = connect_retry socket in
  Alcotest.(check bool) "first client serves" true (ping c1 "c1 ping");
  Alcotest.(check bool) "second client serves" true (ping c2 "c2 ping");
  let c3 = connect_retry socket in
  (match Cl.recv_line c3 with
   | None -> Alcotest.fail "rejected connection got no reply before close"
   | Some line -> (
       match J.parse line with
       | Ok j ->
           Alcotest.(check bool) "rejection is an error" false (reply_ok j);
           (match
              Option.bind (J.member "error" j) (fun e -> J.member "code" e)
            with
            | Some (J.Str "too-many-connections") -> ()
            | _ -> Alcotest.failf "expected code too-many-connections: %s" line)
       | Error e -> Alcotest.failf "rejection reply unparseable: %s" e));
  Alcotest.(check bool) "rejected connection closed" true
    (Cl.recv_line c3 = None);
  Cl.close c3;
  Alcotest.(check bool) "established client unharmed" true (ping c1 "c1 again");
  Cl.close c1;
  (* the daemon reaps the disconnect on its next loop turn; retry until
     the freed slot readmits *)
  let rec readmitted tries =
    let c = connect_retry socket in
    (* a refused connection the daemon already closed fails the write:
       that too means "not readmitted yet" *)
    match Cl.request_json c (J.Obj [ ("verb", J.Str "ping") ]) with
    | Some j when reply_ok j -> Cl.close c
    | _ | (exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _)) ->
        Cl.close c;
        if tries = 0 then Alcotest.fail "slot never freed after disconnect"
        else begin
          ignore (Unix.select [] [] [] 0.02);
          readmitted (tries - 1)
        end
  in
  readmitted 200;
  Cl.close c2

(* A client that pipelines and never reads must not hold up another one,
   even when a single loop serves both: its replies queue up to the
   output bound, its loop stops answering it, and every other client is
   served meanwhile.  Once it reads, it gets all of them, in order. *)
let test_slow_reader () =
  with_daemon ~domains:1 (stack_holder ()) @@ fun socket ->
  let n = 2000 in
  let a = connect_retry socket in
  Fun.protect ~finally:(fun () -> Cl.close a) @@ fun () ->
  Unix.setsockopt_float a.Cl.fd Unix.SO_SNDTIMEO 10.0;
  Unix.setsockopt_float a.Cl.fd Unix.SO_RCVTIMEO 10.0;
  let batch =
    String.concat "\n"
      (List.init n (Printf.sprintf {|{"id":%d,"verb":"stats","render":true}|}))
  in
  Cl.send_line a batch;
  (* let the daemon start answering A, and its replies pile up unread *)
  (match Unix.select [ a.Cl.fd ] [] [] 5.0 with
   | [], _, _ -> Alcotest.fail "slow reader: no reply within 5 s"
   | _ -> ignore (Unix.select [] [] [] 0.3));
  let b = connect_retry socket in
  Fun.protect ~finally:(fun () -> Cl.close b) @@ fun () ->
  Unix.setsockopt_float b.Cl.fd Unix.SO_RCVTIMEO 1.0;
  (match Cl.request_json b (J.Obj [ ("verb", J.Str "ping") ]) with
   | Some j -> Alcotest.(check bool) "second client answered" true (reply_ok j)
   | None -> Alcotest.fail "second client dropped"
   | exception (Sys_error _ | Sys_blocked_io | Unix.Unix_error _) ->
       Alcotest.fail "second client's ping unanswered within 1 s");
  let bytes = ref 0 in
  for i = 0 to n - 1 do
    match Cl.recv_line a with
    | None -> Alcotest.failf "slow reader dropped before reply %d" i
    | exception (Sys_error _ | Sys_blocked_io) ->
        Alcotest.failf "slow reader: reply %d not received" i
    | Some line -> (
        bytes := !bytes + String.length line + 1;
        match J.parse line with
        | Ok j when reply_ok j ->
            if Option.bind (J.member "id" j) J.to_num_opt <> Some (float_of_int i)
            then Alcotest.failf "slow reader: reply %d out of order: %s" i line
        | _ -> Alcotest.failf "slow reader: reply %d not ok: %s" i line)
  done;
  Alcotest.(check bool) "replies passed the output bound" true
    (!bytes > Dm.max_unread)

(* A client that disconnects with replies still owed must give its slot
   back: at max_conns = 1 the next client is admitted, and stop does not
   wait on the dead connection. *)
let test_fire_and_close () =
  let socket, t = start_daemon ~max_conns:1 (stack_holder ()) in
  then_stop ~secs:(Dm.drain_deadline +. 1.0) t @@ fun () ->
  let c = connect_retry socket in
  Cl.send_line c
    (String.concat "\n"
       (List.init 50 (Printf.sprintf {|{"id":%d,"verb":"ping"}|})));
  Cl.close c;
  (* the daemon frees the slot once it sees the close; until then the
     next client may still be refused *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec next_client () =
    let c = connect_retry socket in
    Unix.setsockopt_float c.Cl.fd Unix.SO_RCVTIMEO 1.0;
    let reply =
      try Cl.request_json c (J.Obj [ ("verb", J.Str "ping") ])
      with Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> None
    in
    Cl.close c;
    match reply with
    | Some j when J.member "pong" j = Some (J.Bool true) -> ()
    | _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.02);
        next_client ()
    | Some j -> Alcotest.failf "next client not served: %s" (J.to_string j)
    | None -> Alcotest.fail "next client got no reply"
  in
  next_client ()

(* ---------------- concurrency: snapshot isolation under reloads ----- *)

let test_stress_snapshot_isolation () =
  let clients = 16 in
  let queries = 40 in
  let reloads = 4 in
  let holder = gen_holder () in
  (* precompute the gen -> routine-count map before spawning anything *)
  for g = 1 to reloads + 2 do ignore (expected_routines g) done;
  with_daemon ~domains:(test_domains 4) holder @@ fun socket ->
  let failures = ref [] in
  let fail_mu = Mutex.create () in
  let record_failure msg =
    Mutex.lock fail_mu;
    failures := msg :: !failures;
    Mutex.unlock fail_mu
  in
  let done_count = Atomic.make 0 in
  let gens_seen = Array.make (reloads + 3) false in
  let client_body c () =
    match connect_retry socket with
    | exception e ->
        record_failure
          (Printf.sprintf "client %d: connect failed: %s" c (Printexc.to_string e))
    | conn ->
        Fun.protect ~finally:(fun () -> Cl.close conn) @@ fun () ->
        for q = 0 to queries - 1 do
          (match Cl.request_json conn (J.Obj [ ("verb", J.Str "stats") ]) with
           | None ->
               record_failure (Printf.sprintf "client %d q%d: dropped" c q)
           | Some j ->
               if not (reply_ok j) then
                 record_failure
                   (Printf.sprintf "client %d q%d: not ok: %s" c q (J.to_string j))
               else begin
                 let gen = reply_gen j in
                 let routines =
                   match
                     Option.bind (J.member "summary" j) (fun s ->
                         Option.bind (J.member "routines" s) J.to_num_opt)
                   with
                   | Some f -> int_of_float f
                   | None -> -1
                 in
                 if gen >= 1 && gen < Array.length gens_seen then
                   gens_seen.(gen) <- true;
                 (* THE isolation invariant: gen and data from one snap *)
                 if routines <> expected_routines gen then
                   record_failure
                     (Printf.sprintf
                        "client %d q%d: reply mixes snapshots: gen %d has %d \
                         routines, reply says %d"
                        c q gen (expected_routines gen) routines)
               end);
          Atomic.incr done_count
        done
  in
  let reloader () =
    match connect_retry socket with
    | exception e ->
        record_failure ("reloader: connect failed: " ^ Printexc.to_string e)
    | conn ->
        Fun.protect ~finally:(fun () -> Cl.close conn) @@ fun () ->
        let total = clients * queries in
        for k = 1 to reloads do
          let threshold = k * total / (reloads + 1) in
          while Atomic.get done_count < threshold do Thread.yield () done;
          match Cl.request_json conn (J.Obj [ ("verb", J.Str "reload") ]) with
          | Some j when reply_ok j -> ()
          | Some j -> record_failure ("reload failed: " ^ J.to_string j)
          | None -> record_failure "reload: connection dropped"
        done
  in
  let reload_thread = Thread.create reloader () in
  let threads = List.init clients (fun c -> Thread.create (client_body c) ()) in
  List.iter Thread.join threads;
  Thread.join reload_thread;
  if !failures <> [] then begin
    (* dump the evidence where CI can pick it up *)
    let oc = open_out "pdbd-stress.log" in
    List.iter (fun m -> output_string oc (m ^ "\n")) (List.rev !failures);
    close_out oc;
    Alcotest.failf "%d stress failures (see pdbd-stress.log); first: %s"
      (List.length !failures)
      (List.nth (List.rev !failures) 0)
  end;
  (* the run must actually have spanned generations *)
  Alcotest.(check bool) "saw the first generation" true gens_seen.(1);
  Alcotest.(check bool) "saw a post-reload generation" true
    (Array.exists (fun b -> b) (Array.sub gens_seen 2 (Array.length gens_seen - 2)))

(* concurrent reloads serialize and each gets its own generation *)
let test_concurrent_reloads () =
  let holder = gen_holder () in
  let n = 6 in
  let oks = Array.make n (-1) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Snap.reload holder with
            | Ok (snap, _) -> oks.(i) <- snap.Snap.gen
            | Error _ -> ())
          ())
  in
  List.iter Thread.join threads;
  let gens = Array.to_list oks |> List.filter (fun g -> g > 0) in
  Alcotest.(check int) "all reloads succeeded" n (List.length gens);
  let sorted = List.sort_uniq compare gens in
  Alcotest.(check int) "each got a distinct generation" n (List.length sorted);
  Alcotest.(check int) "final gen" (n + 1) (Snap.current holder).Snap.gen

(* ---------------- wire fuzz ---------------- *)

(* xorshift64: deterministic, seedable, no Random state shared *)
let xorshift (state : int64 ref) : int =
  let x = !state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  state := x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL)

let fuzz_corpus =
  [ {|{"id":1,"verb":"ping"}|};
    {|{"id":2,"verb":"hello","protocol":1}|};
    {|{"id":3,"verb":"list","kind":"routine","limit":5}|};
    {|{"id":4,"verb":"find","kind":"routine","name":"main"}|};
    {|{"id":5,"verb":"callgraph","depth":2}|};
    {|{"id":6,"verb":"stats","render":true}|};
    {|{"id":7,"verb":"item","kind":"class","id":3}|};
    {|{"id":8,"verb":"tree","which":"call"}|} ]

let mutate (rng : int64 ref) (s : string) : string =
  let pick l = List.nth l (xorshift rng mod List.length l) in
  match xorshift rng mod 6 with
  | 0 ->
      (* truncate *)
      if s = "" then s else String.sub s 0 (xorshift rng mod String.length s)
  | 1 ->
      (* flip one bit *)
      if s = "" then s
      else begin
        let b = Bytes.of_string s in
        let i = xorshift rng mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (xorshift rng mod 8))));
        Bytes.to_string b
      end
  | 2 ->
      (* splice two corpus entries at random cut points *)
      let t = pick fuzz_corpus in
      let cut x = if x = "" then 0 else xorshift rng mod String.length x in
      let cs = cut s and ct = cut t in
      String.sub s 0 cs ^ String.sub t ct (String.length t - ct)
  | 3 ->
      (* inject raw bytes, control chars and broken UTF-8 included *)
      let n = 1 + (xorshift rng mod 12) in
      let junk = String.init n (fun _ -> Char.chr (xorshift rng mod 256)) in
      let i = if s = "" then 0 else xorshift rng mod String.length s in
      String.sub s 0 i ^ junk ^ String.sub s i (String.length s - i)
  | 4 ->
      (* blow up a field value *)
      s ^ String.make (xorshift rng mod 2048) 'A'
  | _ ->
      (* deep-nest prefix: the depth guard's street test *)
      String.make (1 + (xorshift rng mod 700)) '[' ^ s

let test_fuzz_handle_line () =
  let holder = stack_holder () in
  let rng = ref 0x9E3779B97F4A7C15L in
  for i = 0 to 1999 do
    let base = List.nth fuzz_corpus (i mod List.length fuzz_corpus) in
    let rounds = 1 + (xorshift rng mod 3) in
    let frame = ref base in
    for _ = 1 to rounds do frame := mutate rng !frame done;
    (* newlines inside a frame would be two frames on the wire; the
       daemon's decoder splits them before handle_line ever runs *)
    let frame =
      String.map (fun c -> if c = '\n' then ' ' else c) !frame
    in
    match Q.handle_line holder frame with
    | reply, _disp ->
        if String.contains reply '\n' then
          Alcotest.failf "fuzz %d: reply spans lines for input %S" i frame;
        (match J.parse reply with
         | Ok j ->
             if J.member "ok" j = None then
               Alcotest.failf "fuzz %d: reply lacks ok for %S" i frame
         | Error e ->
             Alcotest.failf "fuzz %d: unparseable reply %S (%s)" i reply e)
    | exception e ->
        Alcotest.failf "fuzz %d: handle_line raised %s on %S" i
          (Printexc.to_string e) frame
  done

let test_fuzz_socket () =
  with_daemon ~max_line:4096 (stack_holder ()) @@ fun socket ->
  let rng = ref 0xC0FFEE123456789L in
  for i = 0 to 79 do
    let base = List.nth fuzz_corpus (i mod List.length fuzz_corpus) in
    let frame = mutate rng (mutate rng base) in
    let c = connect_retry socket in
    (* a blocking read must not hang the suite if the daemon misbehaves *)
    Unix.setsockopt_float c.Cl.fd Unix.SO_RCVTIMEO 30.0;
    (try
       Cl.send_line c frame;
       (* pipelined garbage: the daemon answers line by line or drops us *)
       Cl.send_line c {|{"id":"probe","verb":"ping"}|};
       (* slow-reader mode, every fourth frame: [c] reads nothing until a
          well-behaved second client has been served *)
       if i mod 4 = 3 then begin
         let other = connect_retry socket in
         Unix.setsockopt_float other.Cl.fd Unix.SO_RCVTIMEO 5.0;
         let served =
           try
             Option.fold ~none:false ~some:reply_ok
               (Cl.request_json other (J.Obj [ ("verb", J.Str "ping") ]))
           with Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> false
         in
         Cl.close other;
         if not served then
           Alcotest.failf "fuzz-socket %d: a slow reader held up another client" i;
         if Unix.select [ c.Cl.fd ] [] [] 5.0 = ([], [], []) then
           Alcotest.failf "fuzz-socket %d: slow reader got no reply and no close" i
       end;
       let rec drain_until_probe budget =
         if budget = 0 then Alcotest.failf "fuzz-socket %d: no probe reply" i
         else
           match Cl.recv_line c with
           | None -> ()  (* dropped connection: acceptable outcome *)
           | Some line -> (
               match J.parse line with
               | Error e ->
                   Alcotest.failf "fuzz-socket %d: junk reply %S (%s)" i line e
               | Ok j ->
                   if J.member "id" j = Some (J.Str "probe") then ()
                   else drain_until_probe (budget - 1))
       in
       drain_until_probe 8
     with Sys_error _ | Unix.Unix_error _ -> ());
    Cl.close c
  done;
  (* whatever the fuzzer did, the daemon still answers cleanly *)
  let c = connect_retry socket in
  let ping =
    get_reply "ping after fuzz"
      (Cl.request_json c (J.Obj [ ("verb", J.Str "ping") ]))
  in
  Alcotest.(check bool) "daemon survived the fuzzer" true (reply_ok ping);
  Cl.close c

let suite =
  [ Alcotest.test_case "conformance: golden session" `Quick
      test_conformance_session;
    Alcotest.test_case "reply envelope always present" `Quick
      test_reply_envelope;
    Alcotest.test_case "dispositions" `Quick test_dispositions;
    Alcotest.test_case "socket smoke" `Quick test_socket_smoke;
    Alcotest.test_case "pipelined requests keep order" `Quick
      test_pipelined_ordering;
    Alcotest.test_case "too many connections: structured rejection" `Quick
      test_too_many_connections;
    Alcotest.test_case "oversized line: error then close" `Quick
      test_oversized_line;
    Alcotest.test_case "slow reader holds up no other client" `Quick
      test_slow_reader;
    Alcotest.test_case "fire-and-close frees its slot" `Quick
      test_fire_and_close;
    Alcotest.test_case "stress: snapshot isolation under reloads" `Slow
      test_stress_snapshot_isolation;
    Alcotest.test_case "concurrent reloads serialize" `Quick
      test_concurrent_reloads;
    Alcotest.test_case "fuzz: handle_line total" `Slow test_fuzz_handle_line;
    Alcotest.test_case "fuzz: socket survives abuse" `Slow test_fuzz_socket ]
