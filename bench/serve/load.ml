(* The load generator: one loopback connection, replies paired with
   requests in FIFO order (the server answers a connection's jobs in
   request order), and every reply checked as it arrives. *)

module Framing = Fpc_net.Framing
module Stream = Workload.Stream

(* ---- the connection ---- *)

type conn = { fd : Unix.file_descr; fr : Framing.t }

(* A reply later than this is counted missing, and the phase ends. *)
let reply_timeout_s = 10.0

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s
   with e ->
     Unix.close fd;
     raise e);
  { fd; fr = Framing.of_fd fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let recv c =
  match Framing.next c.fr with
  | Framing.Line l -> Some l
  | Framing.Overlong _ -> Some ""
  | Framing.Eof -> None
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNRESET), _, _)
    ->
    None

(* ---- checking replies ---- *)

type code = Pending | Ok | Error | Shed | Wrong | Missing

type checker = {
  stream : Stream.s;
  fragments : string array;  (** reference fragment per distinct line *)
  sampled : (int, string) Hashtbl.t;
      (** serve-cold: stream index -> reply, checked after the run *)
  times : bool;  (** read the times-gated reply fields (traced runs only) *)
}

let classify ck idx reply =
  match Workload.status reply with
  | Workload.Shed_reply -> Shed
  | Workload.Error_reply -> Error
  | Workload.Ok_reply ->
    let id = Stream.id ck.stream idx in
    if id >= 0 then
      if Workload.matches ~fragment:ck.fragments.(id) reply then Ok else Wrong
    else begin
      if Workload.cold_sampled ~seed:ck.stream.Stream.seed idx then
        Hashtbl.replace ck.sampled idx reply;
      Ok
    end

(* ---- the request log of one phase ---- *)

type log = {
  base : int;  (** stream index of entry 0 *)
  cap : int;
  due : float array;
  sent : float array;
  recv : float array;
  code : code array;
  held : bool array;  (** sent late because the in-flight cap was full *)
  compile_s : float array;
  run_s : float array;
  minor_words : float array;
  mutable n_due : int;
  mutable n_sent : int;
  mutable n_recv : int;
  mutable t0 : float;
  mutable t_end : float;
  mutable outstanding_at_end : int;
  mutable backlog_max : int;
}

let create_log ~base ~cap =
  let f () = Array.make cap Float.nan in
  {
    base;
    cap;
    due = f ();
    sent = f ();
    recv = f ();
    code = Array.make cap Pending;
    held = Array.make cap false;
    compile_s = f ();
    run_s = f ();
    minor_words = f ();
    n_due = 0;
    n_sent = 0;
    n_recv = 0;
    t0 = 0.0;
    t_end = 0.0;
    outstanding_at_end = 0;
    backlog_max = 0;
  }

let record ck log reply =
  let k = log.n_recv in
  log.recv.(k) <- Clock.now ();
  log.code.(k) <- classify ck (log.base + k) reply;
  if ck.times then begin
    log.compile_s.(k) <- Workload.number reply "compile_s";
    log.run_s.(k) <- Workload.number reply "run_s";
    log.minor_words.(k) <- Workload.number reply "minor_words"
  end;
  log.n_recv <- k + 1

let mark_missing log =
  for k = log.n_recv to log.n_due - 1 do
    log.code.(k) <- Missing
  done

let line ck log k = Stream.line ck.stream (log.base + k) ^ "\n"

(* Lines are generated before the phase's clock starts. *)
let prepare ck log = Stream.prefill ck.stream (log.base + log.cap)

(* ---- closed loop ---- *)

(* Keep [window] requests in flight for [dur] seconds; then collect what
   is still owed.  Single-threaded: send, receive one, send the next. *)
let closed_loop c ck log ~window ~dur =
  prepare ck log;
  let send_one () =
    let k = log.n_sent in
    let l = line ck log k in
    let now = Clock.now () in
    log.due.(k) <- now;
    log.sent.(k) <- now;
    log.n_sent <- k + 1;
    log.n_due <- k + 1;
    write_all c.fd l
  in
  log.t0 <- Clock.now ();
  log.t_end <- log.t0 +. dur;
  while log.n_sent < min window log.cap do
    send_one ()
  done;
  let dead = ref false in
  while (not !dead) && log.n_recv < log.n_sent do
    match recv c with
    | None -> dead := true
    | Some reply ->
      record ck log reply;
      if Clock.now () < log.t_end && log.n_sent < log.cap then send_one ()
  done;
  mark_missing log

(* ---- open loop ---- *)

(* The server's default --max-pending: with no more than this in flight
   it never sheds, so replies stay strictly FIFO.  A request due while the
   cap is full is held, and its latency still runs from when it was due. *)
let max_in_flight = 64

let exponential rng rate = -.Float.log (1.0 -. Fpc_util.Prng.float rng) /. rate

(* Poisson arrivals at [rate] for [dur] seconds: a sender thread writes
   each request when it is due (coalescing those already due into one
   write) and a receiver thread pairs replies in order. *)
let open_loop c ck log ~rng ~rate ~dur =
  prepare ck log;
  let t0 = Clock.now () +. 0.002 in
  let t = ref t0 in
  let n = ref 0 in
  while !t < t0 +. dur && !n < log.cap do
    log.due.(!n) <- !t;
    incr n;
    t := !t +. exponential rng rate
  done;
  let total = !n in
  log.n_due <- total;
  log.t0 <- t0;
  log.t_end <- t0 +. dur;
  let receiver =
    Thread.create
      (fun () ->
        let dead = ref false in
        while (not !dead) && log.n_recv < total do
          match recv c with
          | None -> dead := true
          | Some reply -> record ck log reply
        done)
      ()
  in
  (* Every request is due before [t_end], so what is unanswered at
     [t_end] is the backlog the rung left behind. *)
  let ended = ref false in
  let note_end now =
    if (not !ended) && now >= log.t_end then begin
      ended := true;
      log.outstanding_at_end <- total - log.n_recv
    end
  in
  let buf = Buffer.create 4096 in
  let k = ref 0 in
  while !k < total do
    Clock.sleep_until log.due.(!k);
    let held = ref false in
    while !k - log.n_recv >= max_in_flight do
      held := true;
      note_end (Clock.now ());
      Unix.sleepf 0.0002
    done;
    let now = Clock.now () in
    note_end now;
    Buffer.clear buf;
    let cap_left = max_in_flight - (!k - log.n_recv) in
    let first = !k in
    while !k < total && log.due.(!k) <= now && !k - first < cap_left do
      log.sent.(!k) <- now;
      log.held.(!k) <- !held;
      Buffer.add_string buf (line ck log !k);
      incr k
    done;
    log.backlog_max <- max log.backlog_max (!k - log.n_recv);
    log.n_sent <- !k;
    write_all c.fd (Buffer.contents buf)
  done;
  Clock.sleep_until log.t_end;
  note_end (Clock.now ());
  Thread.join receiver;
  mark_missing log
