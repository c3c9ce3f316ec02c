type report = {
  connections : int;
  pipeline : int;
  sent : int;
  answered : int;
  ok : int;
  failed : int;
  shed : int;
  in_flight_hwm : int;
  wall_s : float;
  jobs_per_sec : float;
  latency_us : Fpc_util.Histogram.t;
}

type thread_tally = {
  mutable t_sent : int;
  mutable t_ok : int;
  mutable t_failed : int;
  mutable t_shed : int;
  mutable t_hwm : int;
  t_latency : Fpc_util.Histogram.t;
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let classify tally line =
  if contains_sub line "\"status\":\"ok\"" then tally.t_ok <- tally.t_ok + 1
  else if contains_sub line "\"status\":\"shed\"" then
    tally.t_shed <- tally.t_shed + 1
  else tally.t_failed <- tally.t_failed + 1

(* One connection's run: keep up to [pipeline] requests on the wire,
   reading responses as they come.  [pipeline = 1] is the classic closed
   loop (send, wait, repeat).  Each response is timed against the send
   of the {e oldest} outstanding request — the server answers a
   connection's jobs in request order, so the pairing is exact. *)
let worker ~host ~port ~requests ~pipeline ~request_line tally =
  match Client.connect ~host ~port () with
  | exception Unix.Unix_error _ -> ()
  | client ->
    let stamps = Queue.create () in
    let sent = ref 0 and in_flight = ref 0 in
    (try
       while !sent < requests || !in_flight > 0 do
         while !in_flight < pipeline && !sent < requests do
           Client.send_line client request_line;
           Queue.push (Fpc_util.Clock.now ()) stamps;
           incr sent;
           incr in_flight;
           tally.t_sent <- tally.t_sent + 1;
           if !in_flight > tally.t_hwm then tally.t_hwm <- !in_flight
         done;
         match Client.recv_line client with
         | Some line ->
           let t0 = Queue.pop stamps in
           let us =
             int_of_float (Float.round ((Fpc_util.Clock.now () -. t0) *. 1e6))
           in
           Fpc_util.Histogram.add tally.t_latency (max 0 us);
           classify tally line;
           decr in_flight
         | None -> raise Exit
       done
     with Exit | Unix.Unix_error _ | Sys_error _ -> ());
    Client.close client

let run ~host ~port ~connections ~requests ?(pipeline = 1) ~request_line () =
  if connections < 1 then invalid_arg "Loadgen.run: connections must be positive";
  if pipeline < 1 then invalid_arg "Loadgen.run: pipeline must be positive";
  (* Fail fast (and loudly) if the server is not there at all. *)
  let probe = Client.connect ~host ~port () in
  Client.close probe;
  let tallies =
    Array.init connections (fun _ ->
        {
          t_sent = 0;
          t_ok = 0;
          t_failed = 0;
          t_shed = 0;
          t_hwm = 0;
          t_latency = Fpc_util.Histogram.create ();
        })
  in
  let t0 = Fpc_util.Clock.now () in
  let threads =
    Array.map
      (fun tally ->
        Thread.create
          (fun () -> worker ~host ~port ~requests ~pipeline ~request_line tally)
          ())
      tallies
  in
  Array.iter Thread.join threads;
  let wall_s = Fpc_util.Clock.now () -. t0 in
  let latency_us = Fpc_util.Histogram.create () in
  let sent = ref 0 and ok = ref 0 and failed = ref 0 and shed = ref 0 in
  let hwm = ref 0 in
  Array.iter
    (fun tally ->
      sent := !sent + tally.t_sent;
      ok := !ok + tally.t_ok;
      failed := !failed + tally.t_failed;
      shed := !shed + tally.t_shed;
      hwm := max !hwm tally.t_hwm;
      Fpc_util.Histogram.iter tally.t_latency (fun v c ->
          Fpc_util.Histogram.add_many latency_us v ~count:c))
    tallies;
  let answered = !ok + !failed + !shed in
  {
    connections;
    pipeline;
    sent = !sent;
    answered;
    ok = !ok;
    failed = !failed;
    shed = !shed;
    in_flight_hwm = !hwm;
    wall_s;
    jobs_per_sec = (if wall_s > 0.0 then float answered /. wall_s else 0.0);
    latency_us;
  }
