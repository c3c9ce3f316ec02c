(* The untraced run of one workload against spawned servers: set-up, then
   cycles of a saturation step and a reference step, each after a
   host-speed sample, then the ladder. *)

module Stream = Workload.Stream

type budget = {
  servers : int;  (** servers measured in turn, each freshly set up *)
  cycles : int;  (** saturation and reference steps per server *)
  warm_s : float;
      (** closed-loop load before anything is timed: a fresh server runs
          slower for its first second or so under load, while its heap
          grows *)
  speed_s : float;  (** one host-speed sample; one before each step *)
  sat_s : float;
  ref_s : float;
  rung_s : float;
  ladder_s : float;  (** no rung starts after this much ladder time *)
  rungs : float list;  (** ladder rates as fractions of nominal_rps *)
}

let ladder = List.init 10 (fun k -> 0.6 +. (0.1 *. float_of_int k))

(* The reference step's rate as a fraction of nominal_rps.  Under open-loop
   arrivals a job's service time ran about a third longer than in the
   saturated closed loop on the 2-core recording host, so 0.3 x nominal is
   already about 40% utilisation; at 0.5 x the queueing term dominated the
   latency and multiplied the host's own speed noise (see README.md). *)
let reference_factor = 0.3

(* On a shared host, a stall of a few milliseconds from outside the
   benchmark fails any short step it lands in.  A failed rung is run once
   more, at most this many times a run, and the ladder stops at a rung that
   fails twice. *)
let ladder_retries = 2

type step = {
  factor : float;
  speed : float;  (** the host speed the rate was scaled by *)
  rate : float;  (** factor x nominal_rps x speed *)
  log : Load.log;
  achieved_rps : float;  (** ok replies per second of the step *)
  p99_ms : float;
  lag_p99_ms : float;
  bad : int;  (** failed, shed, missing or wrong *)
  passed : bool;
  valid : bool;  (** the generator kept to the schedule *)
}

(* One cycle: a saturation step and a reference step, each after a sample
   of the host's speed (Host_speed.sample, with the server stopped).
   Sampling before every step spreads the samples evenly over the run. *)
type cycle = { sat_speed : float; sat : Load.log; ref_speed : float; reference : step }

(* One measured server. *)
type server = {
  warm : Load.log;
  cycles : cycle list;
  peak_rss_mb : float;  (** VmHWM after the last cycle *)
}

type t = {
  setup_s : float list;  (** one per server *)
  warm_sent : int;  (** requests of the set-up passes *)
  warm_bad : int;
  servers : server list;
  rungs : step list;
      (** the ladder, on the last server, in the order run; the last may
          have failed *)
  sat_s : float;
}

let all_cycles t = List.concat_map (fun s -> s.cycles) t.servers

(* The median host speed of the run: its end-to-end times are multiplied
   by it and its rates divided, so that they read as on the recording
   host. *)
let host_speed t =
  Stat.median (List.concat_map (fun c -> [ c.sat_speed; c.ref_speed ]) (all_cycles t))

let latency_ms (log : Load.log) k = (log.Load.recv.(k) -. log.Load.due.(k)) *. 1000.0
let is_ok (log : Load.log) k = log.Load.code.(k) = Load.Ok

let count log p =
  let n = ref 0 in
  for k = 0 to log.Load.n_due - 1 do
    if p k then incr n
  done;
  !n

(* How late the sender wrote each request it did not hold back, in ms. *)
let lags_ms logs =
  let b = Stat.Buf.create () in
  List.iter
    (fun (log : Load.log) ->
      for k = 0 to log.Load.n_due - 1 do
        if not log.Load.held.(k) then
          Stat.Buf.add b ((log.Load.sent.(k) -. log.Load.due.(k)) *. 1000.0)
      done)
    logs;
  Stat.Buf.to_array b

(* A step passes when its p99 latency (a request that did not succeed
   misses the limit), scaled to host speed 1, meets the SLO, nothing
   failed, and the backlog it left is at most max(8, 50 ms of arrivals).  A
   step where the generator itself ran more than 2 ms late at p99 proves
   nothing and is invalid. *)
let evaluate (w : Workload.t) ~factor ~speed ~rate ~dur (log : Load.log) =
  let n = log.Load.n_due in
  let lat =
    Array.init n (fun k -> if is_ok log k then latency_ms log k else Float.infinity)
  in
  let p99_ms = Stat.percentile lat 99.0 in
  let lag_p99_ms = Stat.percentile (lags_ms [ log ]) 99.0 in
  let bad = count log (fun k -> not (is_ok log k)) in
  let backlog_ok =
    float_of_int log.Load.outstanding_at_end <= Float.max 8.0 (0.05 *. rate)
  in
  let valid = lag_p99_ms <= 2.0 in
  {
    factor;
    speed;
    rate;
    log;
    achieved_rps = float_of_int (count log (is_ok log)) /. dur;
    p99_ms;
    lag_p99_ms;
    bad;
    passed = valid && bad = 0 && backlog_ok && p99_ms *. speed <= w.Workload.slo_p99_ms;
    valid;
  }

(* The last reference step, which the ladder follows. *)
let last_reference t =
  let last = List.nth t.servers (List.length t.servers - 1) in
  (List.nth last.cycles (List.length last.cycles - 1)).reference

(* The highest step that passed: the last reference step, then the rungs,
   which run in rising order. *)
let top_step t =
  let r = last_reference t in
  List.fold_left
    (fun acc s -> if s.passed then Some s else acc)
    (if r.passed then Some r else None)
    t.rungs

let slo_rps t = match top_step t with Some s -> s.achieved_rps /. s.speed | None -> 0.0

(* Spawn, wait for the listener, then send the workload's warm-up lines
   one at a time: every later request finds its image compiled. *)
let setup (ck : Load.checker) ~warm =
  let t0 = Clock.now () in
  let srv = Server_proc.start () in
  let c = Load.connect ~port:srv.Server_proc.port in
  let bad = ref 0 in
  List.iter
    (fun (line, id) ->
      Load.write_all c.Load.fd (line ^ "\n");
      match Load.recv c with
      | None -> incr bad
      | Some reply -> (
        match Workload.status reply with
        | Workload.Ok_reply ->
          if id >= 0 && not (Workload.matches ~fragment:ck.Load.fragments.(id) reply)
          then incr bad
        | Workload.Error_reply | Workload.Shed_reply -> incr bad))
    warm;
  (srv, c, Clock.now () -. t0, !bad)

(* The saturation and reference steps run on [servers] fresh servers in
   turn, each set up (timed) and warmed up first, in [cycles] cycles; the
   ladder runs on the last server. *)
let run (w : Workload.t) (ck : Load.checker) ~seed ~budget =
  let warm_lines =
    match w.Workload.kind with
    | Workload.Cold -> List.map (fun l -> (l, -1)) (Workload.warmup_lines w ~seed)
    | _ -> List.mapi (fun i l -> (l, i)) (Workload.warmup_lines w ~seed)
  in
  let setup_s = ref [] and warm_bad = ref 0 in
  let with_server f =
    let srv, c, dt, bad = setup ck ~warm:warm_lines in
    setup_s := dt :: !setup_s;
    warm_bad := !warm_bad + bad;
    Fun.protect
      ~finally:(fun () ->
        Load.close c;
        Server_proc.stop srv)
      (fun () -> f srv c)
  in
  let nominal = w.Workload.nominal_rps in
  let base = ref 0 in
  let next_log ~cap = Load.create_log ~base:!base ~cap in
  let closed c dur =
    let log = next_log ~cap:(int_of_float (3.0 *. nominal *. dur) + 1000) in
    Load.closed_loop c ck log ~window:w.Workload.window ~dur;
    base := !base + log.Load.n_due;
    log
  in
  let rng = Fpc_util.Prng.create ~seed:((seed * 7_777) + 11) in
  (* Open-loop rates are scaled by the median host speed so far, so that a
     step loads the server equally on a slow host and on a fast one. *)
  let speeds = ref [] in
  let open_step c factor dur =
    let speed = Stat.median !speeds in
    let rate = factor *. nominal *. speed in
    let log = next_log ~cap:(int_of_float (1.5 *. rate *. dur) + 100) in
    Load.open_loop c ck log ~rng ~rate ~dur;
    base := !base + log.Load.n_due;
    evaluate w ~factor ~speed ~rate ~dur log
  in
  let measure srv c =
    let warm = closed c budget.warm_s in
    let sample () =
      let speed = Server_proc.paused srv (fun () -> Host_speed.sample budget.speed_s) in
      speeds := speed :: !speeds;
      speed
    in
    let cycles =
      List.init budget.cycles (fun _ ->
          let sat_speed = sample () in
          let sat = closed c budget.sat_s in
          let ref_speed = sample () in
          { sat_speed; sat; ref_speed; reference = open_step c reference_factor budget.ref_s })
    in
    { warm; cycles; peak_rss_mb = Server_proc.peak_rss_mb srv }
  in
  let ladder_end = ref 0.0 in
  let rec climb c acc retries = function
    | [] -> List.rev acc
    | _ when Clock.now () >= !ladder_end -> List.rev acc
    | f :: rest ->
      let s = open_step c f budget.rung_s in
      if s.passed then climb c (s :: acc) retries rest
      else if retries > 0 then climb c (s :: acc) (retries - 1) (f :: rest)
      else List.rev (s :: acc)
  in
  let servers = ref [] in
  for _ = 2 to budget.servers do
    servers := with_server measure :: !servers
  done;
  let last, rungs =
    with_server (fun srv c ->
        let m = measure srv c in
        ladder_end := Clock.now () +. budget.ladder_s;
        (m, climb c [] ladder_retries budget.rungs))
  in
  {
    setup_s = List.rev !setup_s;
    warm_sent = List.length !setup_s * List.length warm_lines;
    warm_bad = !warm_bad;
    servers = List.rev (last :: !servers);
    rungs;
    sat_s = budget.sat_s;
  }

let logs t =
  List.concat_map
    (fun s -> s.warm :: List.concat_map (fun c -> [ c.sat; c.reference.log ]) s.cycles)
    t.servers
  @ List.map (fun s -> s.log) t.rungs

(* Requests sent in the phases, and how many did not succeed. *)
let sent t =
  t.warm_sent + List.fold_left (fun a (log : Load.log) -> a + log.Load.n_due) 0 (logs t)

let bad t =
  t.warm_bad
  + List.fold_left (fun a log -> a + count log (fun k -> not (is_ok log k))) 0 (logs t)

let wrong t =
  List.fold_left
    (fun a (log : Load.log) -> a + count log (fun k -> log.Load.code.(k) = Load.Wrong))
    0 (logs t)

let sat_ok log = count log (fun k -> is_ok log k && log.Load.recv.(k) <= log.Load.t_end)

(* Ok replies per second of one server's saturation steps. *)
let sat_rps t s =
  let ok = List.fold_left (fun a c -> a + sat_ok c.sat) 0 s.cycles in
  float_of_int ok /. (t.sat_s *. float_of_int (List.length s.cycles))

(* Ok replies per second over the saturation steps of all the servers. *)
let throughput_rps t = Stat.mean (List.map (sat_rps t) t.servers)

let peak_rss_mb t = Stat.median (List.map (fun s -> s.peak_rss_mb) t.servers)

let sat_logs t = List.map (fun c -> c.sat) (all_cycles t)
let reference_logs t = List.map (fun c -> c.reference.log) (all_cycles t)

(* [f log k] over the successful requests of [logs]. *)
let over_ok logs f =
  let b = Stat.Buf.create () in
  List.iter
    (fun (log : Load.log) ->
      for k = 0 to log.Load.n_due - 1 do
        if is_ok log k then Stat.Buf.add b (f log k)
      done)
    logs;
  Stat.Buf.to_array b
