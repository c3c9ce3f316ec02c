(* Tests for the TCP serving stack: framing, admission control, and the
   full loopback path through a live server — byte-stable results,
   concurrent connections, shedding, deadlines, graceful drain.

   Every server here binds port 0 (an ephemeral port) on 127.0.0.1 and
   is torn down inside the test, so the suite is safe to run in
   parallel with anything. *)

open Fpc_net

(* ---- framing ---- *)

let items_of_string ?max_line s =
  let fr = Framing.of_string ?max_line s in
  let rec go acc =
    match Framing.next fr with
    | Framing.Eof -> List.rev acc
    | item -> go (item :: acc)
  in
  go []

let line l = Framing.Line l
let overlong n = Framing.Overlong n

let item_str = function
  | Framing.Line l -> Printf.sprintf "Line %S" l
  | Framing.Overlong n -> Printf.sprintf "Overlong %d" n
  | Framing.Eof -> "Eof"

let check_items msg expected actual =
  Alcotest.(check (list string))
    msg
    (List.map item_str expected)
    (List.map item_str actual)

let test_framing_lines () =
  (* of_string feeds one byte per read: every partial-read path runs *)
  check_items "plain lines" [ line "a"; line "bc" ] (items_of_string "a\nbc\n");
  check_items "CRLF stripped" [ line "a"; line "b" ] (items_of_string "a\r\nb\r\n");
  check_items "unterminated tail still delivered" [ line "a"; line "tail" ]
    (items_of_string "a\ntail");
  check_items "empty lines preserved" [ line ""; line "x"; line "" ]
    (items_of_string "\nx\n\n");
  check_items "empty input" [] (items_of_string "")

let test_framing_overlong_resync () =
  (* an overlong line is discarded to the next newline and reported
     with its size; the stream then resyncs onto good lines *)
  check_items "overlong then resync"
    [ line "ok"; overlong 10; line "fine" ]
    (items_of_string ~max_line:4 "ok\n0123456789\nfine\n");
  check_items "overlong tail without newline"
    [ overlong 8 ]
    (items_of_string ~max_line:4 "01234567");
  check_items "boundary: exactly max fits"
    [ line "1234" ]
    (items_of_string ~max_line:4 "1234\n")

let test_framing_large_random () =
  (* a big random-ish stream reassembles exactly, whatever the read
     granularity *)
  let lines = List.init 200 (fun i -> String.make (i mod 97) 'x') in
  let s = String.concat "\n" lines ^ "\n" in
  check_items "200 lines reassembled"
    (List.map line lines)
    (items_of_string s)

let test_framing_push_mode () =
  (* push mode must produce the same items as pull mode for the same
     bytes, with None whenever the buffered input runs dry *)
  let fr = Framing.pushable ~max_line:4 () in
  Alcotest.(check (option string)) "empty framing has nothing" None
    (Option.map item_str (Framing.poll fr));
  Framing.feed fr "ok\n01" 0 5;
  Alcotest.(check (option string)) "first line out" (Some (item_str (line "ok")))
    (Option.map item_str (Framing.poll fr));
  Alcotest.(check (option string)) "mid-overlong: need more" None
    (Option.map item_str (Framing.poll fr));
  Framing.feed fr "23456789\nfi" 0 11;
  Alcotest.(check (option string)) "overlong flushed on resync"
    (Some (item_str (overlong 10)))
    (Option.map item_str (Framing.poll fr));
  Alcotest.(check (option string)) "partial good line: need more" None
    (Option.map item_str (Framing.poll fr));
  Framing.feed fr "ne" 0 2;
  Framing.input_closed fr;
  Alcotest.(check (option string)) "unterminated tail flushed at close"
    (Some (item_str (line "fine")))
    (Option.map item_str (Framing.poll fr));
  Alcotest.(check (option string)) "then Eof" (Some "Eof")
    (Option.map item_str (Framing.poll fr));
  Alcotest.check_raises "next on push mode is misuse"
    (Invalid_argument "Framing.next: push-mode framing needs poll") (fun () ->
      ignore (Framing.next (Framing.pushable ())))

(* ---- limiter ---- *)

let test_limiter () =
  let l = Limiter.create ~max_connections:2 ~max_pending:2 () in
  Alcotest.(check bool) "conn 1" true (Limiter.try_admit_connection l);
  Alcotest.(check bool) "conn 2" true (Limiter.try_admit_connection l);
  Alcotest.(check bool) "conn 3 shed" false (Limiter.try_admit_connection l);
  Limiter.release_connection l;
  Alcotest.(check bool) "slot freed" true (Limiter.try_admit_connection l);
  let admit () = Limiter.try_admit_job l ~draining:false in
  Alcotest.(check (option int)) "job 1" (Some 1) (admit ());
  Alcotest.(check (option int)) "job 2" (Some 2) (admit ());
  Alcotest.(check (option int)) "job 3 shed" None (admit ());
  Limiter.release_job l;
  Alcotest.(check (option int)) "pending freed" (Some 2) (admit ());
  let s = Limiter.stats l in
  Alcotest.(check int) "watermark" 2 s.Limiter.max_pending_observed;
  Alcotest.(check int) "shed jobs" 1 s.Limiter.shed_jobs;
  Alcotest.(check int) "shed connections" 1 s.Limiter.shed_connections;
  (* a drain refuses even with a slot free, and counts the refusal *)
  Limiter.release_job l;
  Alcotest.(check (option int)) "shed while draining" None
    (Limiter.try_admit_job l ~draining:true);
  let s = Limiter.stats l in
  Alcotest.(check int) "both sheds counted" 2 s.Limiter.shed_jobs;
  Alcotest.(check int) "the refused job holds no slot" 1 s.Limiter.pending

(* ---- end-to-end over loopback ---- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at k = k + n <= h && (String.sub hay k n = needle || at (k + 1)) in
  at 0

let with_server ?domains ?max_connections ?max_pending ?max_line f =
  let server =
    Server.create ?domains ?max_connections ?max_pending ?max_line
      ~times:false ()
  in
  let finally () =
    Server.request_drain server;
    ignore (Server.wait server)
  in
  Fun.protect ~finally (fun () -> f server)

let send_and_collect client lines n =
  List.iter (Client.send_line client) lines;
  List.init n (fun _ ->
      match Client.recv_line client with
      | Some l -> l
      | None -> Alcotest.fail "connection closed before all responses")

let test_byte_stable_vs_batch () =
  let lines =
    List.concat_map
      (fun prog ->
        List.map
          (fun e -> Printf.sprintf "prog=%s engine=%s" prog e)
          [ "i1"; "i2"; "i3"; "i4" ])
      [ "fib"; "hanoi"; "bsearch" ]
  in
  let specs =
    List.map
      (fun l ->
        match Fpc_svc.Job.parse_request l with
        | Ok s -> s
        | Error m -> Alcotest.fail m)
      lines
  in
  let batch_results, _ = Fpc_svc.Pool.run_jobs ~domains:2 specs in
  let expected =
    List.map
      (fun r ->
        Fpc_util.Jsonout.to_string
          (Fpc_svc.Job.result_to_json ~times:false r))
      batch_results
  in
  with_server ~domains:2 (fun server ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      in
      let got = send_and_collect client lines (List.length lines) in
      Client.close client;
      List.iteri
        (fun i (want, have) ->
          Alcotest.(check string)
            (Printf.sprintf "line %d byte-identical to batch" i)
            want have)
        (List.combine expected got))

let test_concurrent_clients () =
  (* 4 clients, each pipelining its own distinguishable jobs; every
     client must get exactly its own answers, in its own send order *)
  let n_clients = 4 and per_client = 6 in
  with_server ~domains:2 (fun server ->
      let port = Server.port server in
      let answers = Array.make n_clients [] in
      let threads =
        Array.init n_clients (fun c ->
            Thread.create
              (fun () ->
                let client = Client.connect ~host:"127.0.0.1" ~port () in
                let lines =
                  (* fuel encodes (client, seq) so replies are attributable *)
                  List.init per_client (fun i ->
                      Printf.sprintf "prog=fib fuel=%d"
                        (1_000_000 + (c * 1000) + i))
                in
                answers.(c) <- send_and_collect client lines per_client;
                Client.close client)
              ())
      in
      Array.iter Thread.join threads;
      let all_ids = ref [] in
      Array.iteri
        (fun c got ->
          List.iteri
            (fun i resp ->
              let contains needle =
                let n = String.length needle and h = String.length resp in
                let rec at k =
                  k + n <= h && (String.sub resp k n = needle || at (k + 1))
                in
                at 0
              in
              Alcotest.(check bool)
                (Printf.sprintf "client %d reply %d is its own job" c i)
                true
                (contains
                   (Printf.sprintf "\"fuel\":%d" (1_000_000 + (c * 1000) + i)));
              Alcotest.(check bool)
                (Printf.sprintf "client %d reply %d succeeded" c i)
                true
                (contains "\"status\":\"ok\"");
              (* collect the global job id *)
              Scanf.sscanf resp "{\"id\":%d," (fun id ->
                  all_ids := id :: !all_ids))
            got)
        answers;
      let sorted = List.sort compare !all_ids in
      Alcotest.(check (list int)) "every job id answered exactly once"
        (List.init (n_clients * per_client) Fun.id)
        sorted)

(* ~1.5M simulated steps of nested looping: slow enough (tens of ms)
   that pipelined requests pile up behind it, small enough to finish. *)
let slow_src =
  {|
MODULE Main;
PROC main() =
  VAR i: INT := 0;
  VAR j: INT := 0;
  VAR n: INT := 0;
  i := 0;
  WHILE i < 600 DO
    j := 0;
    WHILE j < 600 DO
      j := j + 1;
      n := n + 1;
    END;
    i := i + 1;
  END;
  OUTPUT 1;
END;
END;
|}

let slow_line =
  Fpc_svc.Job.request_of_spec
    (Fpc_svc.Job.spec ~fuel:200_000_000 (Fpc_svc.Job.Inline slow_src))

let test_shed_under_tiny_limiter () =
  let n = 8 in
  let server = Server.create ~domains:1 ~max_pending:1 ~times:false () in
  let client = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  let got = send_and_collect client (List.init n (fun _ -> slow_line)) n in
  Client.close client;
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec at k = k + n <= h && (String.sub hay k n = needle || at (k + 1)) in
    at 0
  in
  let ok = List.length (List.filter (fun r -> contains r "\"status\":\"ok\"") got)
  and shed =
    List.length (List.filter (fun r -> contains r "\"status\":\"shed\"") got)
  in
  Alcotest.(check int) "every request answered" n (ok + shed);
  Alcotest.(check bool) "at least one executed" true (ok >= 1);
  Alcotest.(check bool) "at least one shed" true (shed >= 1);
  (* the server is still healthy after shedding *)
  let c2 = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  (match send_and_collect c2 [ "prog=fib" ] 1 with
  | [ r ] ->
    Alcotest.(check bool) "post-shed job runs" true
      (contains r "\"status\":\"ok\"")
  | _ -> Alcotest.fail "no response");
  Client.close c2;
  Server.request_drain server;
  let snap = Server.wait server in
  Alcotest.(check int) "final metrics count the sheds" shed
    snap.Server.admission.Limiter.shed_jobs

(* Admission has one count of refused jobs.  A burst at [max_pending] 1
   is shed for the limit; a drain then arrives mid-burst (the [shutdown]
   line, with more requests behind it in the same write), and those are
   shed because the server is draining.  Every shed line the client
   receives, for either reason, is counted exactly once in the
   ["server"] object's [shed_jobs]. *)
let test_sheds_counted_once_across_drain () =
  let server = Server.create ~domains:1 ~max_pending:1 ~times:false () in
  let client = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  let burst = List.init 3 (fun _ -> "prog=fib") in
  Client.send_line client
    (String.concat "\n" ((slow_line :: burst) @ ("shutdown" :: burst)));
  let rec read acc =
    match Client.recv_line client with
    | Some l -> read (l :: acc)
    | None -> List.rev acc
  in
  let got = read [] in
  Client.close client;
  let shed_for reason =
    List.length
      (List.filter
         (fun r -> contains r "\"status\":\"shed\"" && contains r reason)
         got)
  in
  let over_limit = shed_for "pending-jobs limit reached"
  and draining = shed_for "server is draining" in
  Alcotest.(check bool) "shed over the limit" true (over_limit >= 1);
  Alcotest.(check bool) "shed while draining" true (draining >= 1);
  Alcotest.(check int) "every shed line carries a reason"
    (shed_for "") (over_limit + draining);
  let stats = Server.wait server in
  Alcotest.(check int) "server.shed_jobs counts each shed line once"
    (over_limit + draining) stats.Server.admission.Limiter.shed_jobs;
  match Fpc_util.Jsonin.parse
          (Fpc_util.Jsonout.to_string (Server.stats_to_json stats))
  with
  | Ok (Fpc_util.Jsonout.Obj fields) -> (
    match List.assoc_opt "server" fields with
    | Some (Fpc_util.Jsonout.Obj server) ->
      Alcotest.(check (option int)) "reported in /stats' server object"
        (Some (over_limit + draining))
        (match List.assoc_opt "shed_jobs" server with
        | Some (Fpc_util.Jsonout.Int n) -> Some n
        | _ -> None)
    | _ -> Alcotest.fail "/stats has no server object")
  | _ -> Alcotest.fail "stats object does not parse"

let test_deadline_over_tcp () =
  let hung_line =
    Fpc_svc.Job.request_of_spec
      (Fpc_svc.Job.spec ~fuel:2_000_000_000 ~deadline_ms:100
         (Fpc_svc.Job.Inline
            "MODULE Main;\nPROC main() =\n  VAR i: INT := 0;\n  WHILE 0 < 1 \
             DO\n    i := i + 1;\n  END;\nEND;\nEND;\n"))
  in
  with_server ~domains:1 (fun server ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      in
      match send_and_collect client [ hung_line; "prog=fib" ] 2 with
      | [ first; second ] ->
        let contains hay needle =
          let n = String.length needle and h = String.length hay in
          let rec at k =
            k + n <= h && (String.sub hay k n = needle || at (k + 1))
          in
          at 0
        in
        Alcotest.(check bool) "runaway came back deadline-exceeded" true
          (contains first "\"error\":\"deadline-exceeded\"");
        Alcotest.(check bool) "worker survived to run the next job" true
          (contains second "\"status\":\"ok\"");
        Client.close client
      | _ -> Alcotest.fail "expected two responses")

let test_graceful_drain () =
  let server = Server.create ~domains:1 ~times:false () in
  let port = Server.port server in
  let client = Client.connect ~host:"127.0.0.1" ~port () in
  (* two in-flight jobs, then the drain command on the same wire *)
  Client.send_line client slow_line;
  Client.send_line client "prog=fib";
  Client.send_line client "shutdown";
  let responses =
    List.init 3 (fun _ ->
        match Client.recv_line client with
        | Some l -> l
        | None -> Alcotest.fail "closed before in-flight jobs were flushed")
  in
  Alcotest.(check bool) "drain acknowledged" true
    (List.mem {|{"status":"draining"}|} responses);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec at k = k + n <= h && (String.sub hay k n = needle || at (k + 1)) in
    at 0
  in
  Alcotest.(check int) "both in-flight jobs flushed before close" 2
    (List.length (List.filter (fun r -> contains r "\"status\":\"ok\"") responses));
  (match Client.recv_line client with
  | None -> ()
  | Some l -> Alcotest.failf "expected EOF after drain, got %s" l);
  Client.close client;
  let snap = Server.wait server in
  Alcotest.(check int) "no job lost in the drain" 2
    snap.Server.pool.Fpc_svc.Metrics.counts.jobs;
  Alcotest.(check int) "all answered ok" 2
    snap.Server.pool.Fpc_svc.Metrics.counts.succeeded;
  (* the port is really closed: a fresh connection must fail *)
  match Client.connect ~host:"127.0.0.1" ~port () with
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ECONNRESET), _, _) -> ()
  | client ->
    (* a TIME_WAIT race can still accept; the server must at least not
       answer — EOF or nothing *)
    Client.close client

(* /stats carries the server's memory: a "gc" object next to "server"
   and "pool", with the heap and collection counters, each a number. *)
let test_stats_gc_fields () =
  let server = Server.create ~domains:1 ~times:false () in
  let client = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  Client.send_line client "prog=fib";
  Client.send_line client "/stats";
  let stats =
    List.init 2 (fun _ ->
        match Client.recv_line client with
        | Some l -> l
        | None -> Alcotest.fail "closed before /stats answered")
    |> List.find_opt (fun l ->
           match Fpc_util.Jsonin.parse l with
           | Ok (Fpc_util.Jsonout.Obj fields) -> List.mem_assoc "server" fields
           | _ -> false)
  in
  Client.close client;
  Server.request_drain server;
  ignore (Server.wait server);
  match Option.map Fpc_util.Jsonin.parse stats with
  | Some (Ok (Fpc_util.Jsonout.Obj fields)) -> (
    Alcotest.(check bool) "pool object kept" true (List.mem_assoc "pool" fields);
    match List.assoc_opt "gc" fields with
    | Some (Fpc_util.Jsonout.Obj gc) ->
      List.iter
        (fun key ->
          match List.assoc_opt key gc with
          | Some (Fpc_util.Jsonout.Int n) ->
            Alcotest.(check bool) (key ^ " is a count") true (n >= 0)
          | _ -> Alcotest.failf "gc.%s missing or not an integer" key)
        [ "heap_words"; "top_heap_words"; "minor_collections"; "major_collections" ]
    | _ -> Alcotest.fail "/stats has no gc object")
  | _ -> Alcotest.fail "no /stats reply"

let test_partial_writes_over_tcp () =
  (* tiny socket buffers on both sides, and a client that sends its
     whole pipeline before reading a byte: the server's write path must
     ride Partial -> write-readiness -> resume, and every response must
     still arrive complete and in request order *)
  let n = 200 in
  let server =
    Server.create ~domains:2 ~max_pending:(n + 10) ~times:false ~sndbuf:4096 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      ignore (Server.wait server))
    (fun () ->
      let client =
        Client.connect ~rcvbuf:4096 ~host:"127.0.0.1"
          ~port:(Server.port server) ()
      in
      List.iter (Client.send_line client) (List.init n (fun _ -> "prog=fib"));
      let got = List.init n (fun _ ->
          match Client.recv_line client with
          | Some l -> l
          | None -> Alcotest.fail "closed before all responses") in
      Client.close client;
      List.iteri
        (fun i resp ->
          Alcotest.(check bool)
            (Printf.sprintf "reply %d ok" i)
            true
            (contains resp "\"status\":\"ok\"");
          Scanf.sscanf resp "{\"id\":%d," (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "reply %d in request order" i)
                i id))
        got)

let test_overlong_shed_midstream () =
  (* an overlong request in the middle of a pipelined stream is refused
     and discarded; the requests on either side of it still run *)
  with_server ~max_line:64 (fun server ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      in
      Client.send_line client "prog=fib";
      Client.send_line client (String.make 200 'x');
      Client.send_line client "prog=fib";
      Client.shutdown_send client;
      let rec collect acc =
        match Client.recv_line client with
        | Some l -> collect (l :: acc)
        | None -> List.rev acc
      in
      let got = collect [] in
      Client.close client;
      Alcotest.(check int) "three responses" 3 (List.length got);
      Alcotest.(check int) "both good jobs ran" 2
        (List.length
           (List.filter (fun r -> contains r "\"status\":\"ok\"") got));
      Alcotest.(check int) "the overlong line was refused" 1
        (List.length
           (List.filter (fun r -> contains r "\"error\":\"overlong-line\"") got)))

let test_half_close_drains () =
  (* SHUT_WR with jobs still in flight: the server sees EOF, keeps the
     connection open until every owed response is flushed, then closes *)
  with_server ~domains:1 (fun server ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      in
      Client.send_line client slow_line;
      Client.send_line client "prog=fib";
      Client.send_line client "prog=hanoi";
      Client.shutdown_send client;
      let got =
        List.init 3 (fun _ ->
            match Client.recv_line client with
            | Some l -> l
            | None -> Alcotest.fail "closed before owed responses were flushed")
      in
      Alcotest.(check int) "all three answered after half-close" 3
        (List.length
           (List.filter (fun r -> contains r "\"status\":\"ok\"") got));
      (match Client.recv_line client with
      | None -> ()
      | Some l -> Alcotest.failf "expected EOF after the drain, got %s" l);
      Client.close client)

let test_ordering_under_reordered_completion () =
  (* domains=2 and alternating slow/fast jobs on one connection: the
     fast job finishes first on the other domain, but the wire order
     must still be the request order *)
  let lines = [ slow_line; "prog=fib"; slow_line; "prog=fib" ] in
  with_server ~domains:2 (fun server ->
      let client =
        Client.connect ~host:"127.0.0.1" ~port:(Server.port server) ()
      in
      let got = send_and_collect client lines (List.length lines) in
      Client.close client;
      List.iteri
        (fun i resp ->
          Scanf.sscanf resp "{\"id\":%d," (fun id ->
              Alcotest.(check int)
                (Printf.sprintf "reply %d carries job id %d" i i)
                i id))
        got)

(* ~75M simulated steps: long enough (about 200 ms on the compiled tier
   of a 2-core x86-64 host) to pin the single worker well past the
   queued job's 50 ms + 20 ms, while the timer wheel answers that job's
   deadline. *)
let hog_src =
  {|
MODULE Main;
PROC main() =
  VAR i: INT := 0;
  VAR j: INT := 0;
  VAR n: INT := 0;
  i := 0;
  WHILE i < 2400 DO
    j := 0;
    WHILE j < 2400 DO
      j := j + 1;
      n := n + 1;
    END;
    i := i + 1;
  END;
  OUTPUT 1;
END;
END;
|}

let test_timer_answers_queued_deadline () =
  (* one worker, pinned by a hog on connection A: connection B's
     deadlined job never starts executing, so only the reactor's timer
     wheel (armed at admission) can answer it on time *)
  let hog_line =
    Fpc_svc.Job.request_of_spec
      (Fpc_svc.Job.spec ~fuel:200_000_000 (Fpc_svc.Job.Inline hog_src))
  in
  let server = Server.create ~domains:1 ~times:false () in
  let port = Server.port server in
  let hog_done = ref 0.0 in
  let hog_thread =
    Thread.create
      (fun () ->
        let a = Client.connect ~host:"127.0.0.1" ~port () in
        (match send_and_collect a [ hog_line ] 1 with
        | [ r ] ->
          Alcotest.(check bool) "hog completed ok" true
            (contains r "\"status\":\"ok\"")
        | _ -> Alcotest.fail "hog got no response");
        hog_done := Unix.gettimeofday ();
        Client.close a)
      ()
  in
  Thread.delay 0.05 (* let the hog occupy the only worker *);
  let b = Client.connect ~host:"127.0.0.1" ~port () in
  let b_answered =
    match send_and_collect b [ "prog=fib deadline_ms=20" ] 1 with
    | [ r ] ->
      Alcotest.(check bool) "queued job answered deadline-exceeded" true
        (contains r "\"error\":\"deadline-exceeded\"");
      Unix.gettimeofday ()
    | _ -> Alcotest.fail "no response for the deadlined job"
  in
  Client.close b;
  Thread.join hog_thread;
  Alcotest.(check bool) "the timer beat the pool to the answer" true
    (b_answered < !hog_done);
  Server.request_drain server;
  let snap = Server.wait server in
  Alcotest.(check int) "counted as a timer-answered deadline" 1
    snap.Server.timer_deadlines

let () =
  Alcotest.run "net"
    [
      ( "framing",
        [
          Alcotest.test_case "line assembly (1-byte reads)" `Quick
            test_framing_lines;
          Alcotest.test_case "overlong discard and resync" `Quick
            test_framing_overlong_resync;
          Alcotest.test_case "200-line reassembly" `Quick
            test_framing_large_random;
          Alcotest.test_case "push mode feeds and polls" `Quick
            test_framing_push_mode;
        ] );
      ("limiter", [ Alcotest.test_case "caps and counters" `Quick test_limiter ]);
      ( "server",
        [
          Alcotest.test_case "byte-stable with fpc batch" `Quick
            test_byte_stable_vs_batch;
          Alcotest.test_case "concurrent clients, ids exactly once" `Quick
            test_concurrent_clients;
          Alcotest.test_case "shed under a tiny limiter" `Quick
            test_shed_under_tiny_limiter;
          Alcotest.test_case "sheds counted once across a drain" `Quick
            test_sheds_counted_once_across_drain;
          Alcotest.test_case "deadline over TCP" `Quick test_deadline_over_tcp;
          Alcotest.test_case "graceful drain flushes in-flight" `Quick
            test_graceful_drain;
          Alcotest.test_case "partial writes under tiny buffers" `Quick
            test_partial_writes_over_tcp;
          Alcotest.test_case "overlong refusal mid-stream" `Quick
            test_overlong_shed_midstream;
          Alcotest.test_case "half-close drains owed responses" `Quick
            test_half_close_drains;
          Alcotest.test_case "request order survives reordered completion"
            `Quick test_ordering_under_reordered_completion;
          Alcotest.test_case "timer wheel answers a queued deadline" `Quick
            test_timer_answers_queued_deadline;
          Alcotest.test_case "/stats reports the server's gc counters" `Quick
            test_stats_gc_fields;
        ] );
    ]
