open Fpc_svc
open Fpc_reactor

(* Backpressure bounds on a connection's output backlog: past the high
   water mark we stop reading its requests (the kernel then pushes back
   on the client); below the low mark we resume. *)
let out_hwm = 1 lsl 20
let out_lwm = 64 * 1024

(* One live connection — owned entirely by the loop thread, so no field
   here needs a lock.  [expected] is the submission-order queue of pool
   job ids this connection is still owed; [ready] holds rendered result
   lines whose turn has not come.  Responses leave in request order
   however the pool reorders completion. *)
type conn = {
  c_id : int;
  fd : Unix.file_descr;
  mutable watcher : Loop.watcher option;
  fr : Framing.t;  (** push-mode line assembly *)
  ob : Outbuf.t;
  expected : int Queue.t;
  ready : (int, string) Hashtbl.t;
  mutable input_done : bool;  (** EOF / half-close seen; drain and close *)
  mutable want_write : bool;
  mutable paused : bool;  (** read interest dropped: output backlog high *)
  mutable closed : bool;
}

(* Where a job's answer goes, plus the deadline timer racing it. *)
type route = {
  r_conn : conn;
  r_spec : Job.spec;
  mutable r_timer : Wheel.timer option;
}

type t = {
  pool : Pool.t;
  limiter : Limiter.t;
  loop : Loop.t;
  listen_fd : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  times : bool;
  tier : Job.tier;  (** default for requests without an explicit tier= *)
  devirt : bool;  (** default for requests without an explicit devirt= *)
  max_line : int;
  sndbuf : int option;  (** test hook: SO_SNDBUF for accepted sockets *)
  read_buf : Bytes.t;  (** loop-confined read scratch *)
  (* job id -> route; loop-confined *)
  routes : (int, route) Hashtbl.t;
  (* live connections by id; loop-confined *)
  conns : (int, conn) Hashtbl.t;
  mutable listen_w : Loop.watcher option;
  mutable conn_ids : int;
  mutable timer_deadlines : int;
      (** replies the timer wheel synthesized; written and read on the
          loop thread, and by [wait] only after joining it *)
  mutable loop_thread : Thread.t option;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let shutdown_receive fd =
  try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()

let port t = t.port
let draining t = Atomic.get t.stopping

type stats = {
  port : int;
  draining : bool;
  admission : Limiter.stats;
  timer_deadlines : int;
  pool : Metrics.snapshot;
}

(* Loop thread only, or after the loop thread has been joined. *)
let stats (t : t) =
  {
    port = t.port;
    draining = Atomic.get t.stopping;
    admission = Limiter.stats t.limiter;
    timer_deadlines = t.timer_deadlines;
    pool = Pool.metrics t.pool;
  }

let stats_to_json s =
  let open Fpc_util.Jsonout in
  let a = s.admission in
  Obj
    [
      ( "server",
        Obj
          [
            ("port", Int s.port);
            ("backend", String Backend.name);
            ("draining", Bool s.draining);
            ("connections", Int a.connections);
            ("max_connections", Int a.max_connections);
            ("pending", Int a.pending);
            ("max_pending", Int a.max_pending);
            ("shed_connections", Int a.shed_connections);
            ("shed_jobs", Int a.shed_jobs);
            ("max_pending_observed", Int a.max_pending_observed);
            ("timer_deadlines", Int s.timer_deadlines);
          ] );
      ("pool", Metrics.to_json s.pool);
      ( "gc",
        let g = Gc.quick_stat () in
        Obj
          [
            ("heap_words", Int g.Gc.heap_words);
            ("top_heap_words", Int g.Gc.top_heap_words);
            ("minor_collections", Int g.Gc.minor_collections);
            ("major_collections", Int g.Gc.major_collections);
          ] );
    ]

(* ---- the connection state machine (loop thread only) ---- *)

let update_interest t conn =
  match conn.watcher with
  | None -> ()
  | Some w ->
    if not conn.closed then
      Loop.interest t.loop w
        ~read:((not conn.input_done) && not conn.paused)
        ~write:conn.want_write

let rec close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (match conn.watcher with Some w -> Loop.unwatch t.loop w | None -> ());
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns conn.c_id;
    (* orphan any jobs still owed: their results (and timers) are
       dropped on arrival.  The limiter's pending slots stay held until
       the pool actually answers, which keeps the execution backlog
       bounded even when clients vanish. *)
    Queue.iter
      (fun id ->
        match Hashtbl.find_opt t.routes id with
        | None -> ()
        | Some rt ->
          (match rt.r_timer with
          | Some tm ->
            Loop.cancel t.loop tm;
            rt.r_timer <- None
          | None -> ());
          Hashtbl.remove t.routes id)
      conn.expected;
    Queue.clear conn.expected;
    Hashtbl.reset conn.ready;
    Limiter.release_connection t.limiter;
    if Atomic.get t.stopping && Hashtbl.length t.conns = 0 then
      Loop.stop t.loop
  end

and maybe_close t conn =
  if
    (not conn.closed) && conn.input_done
    && Queue.is_empty conn.expected
    && Outbuf.is_empty conn.ob
  then close_conn t conn

and update_backpressure t conn =
  if not conn.closed then begin
    let len = Outbuf.length conn.ob in
    if (not conn.paused) && len > out_hwm then conn.paused <- true
    else if conn.paused && len <= out_lwm then conn.paused <- false;
    update_interest t conn
  end

and flush_conn t conn =
  if not conn.closed then
    match Outbuf.flush conn.ob conn.fd with
    | Outbuf.Error -> close_conn t conn
    | Outbuf.Flushed ->
      conn.want_write <- false;
      update_backpressure t conn;
      maybe_close t conn
    | Outbuf.Partial ->
      conn.want_write <- true;
      update_backpressure t conn

(* Refusals and admin responses go straight out (possibly ahead of
   earlier jobs' results — they carry id:null so clients can tell);
   job results wait their ordered turn in [pump_ready]. *)
and conn_send t conn line =
  if not conn.closed then begin
    Outbuf.add_string conn.ob line;
    Outbuf.add_string conn.ob "\n";
    flush_conn t conn
  end

and pump_ready t conn =
  if not conn.closed then begin
    let progressed = ref false in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt conn.expected with
      | None -> continue := false
      | Some id -> (
        match Hashtbl.find_opt conn.ready id with
        | None -> continue := false
        | Some line ->
          Hashtbl.remove conn.ready id;
          ignore (Queue.pop conn.expected);
          Outbuf.add_string conn.ob line;
          Outbuf.add_string conn.ob "\n";
          progressed := true)
    done;
    if !progressed then flush_conn t conn else maybe_close t conn
  end

(* A worker finished job [id]; [line] was rendered on the worker domain.
   Runs on the loop thread (posted). *)
and on_result t id line =
  match Hashtbl.find_opt t.routes id with
  | None -> ()  (* connection gone, or the deadline timer already answered *)
  | Some rt ->
    (match rt.r_timer with
    | Some tm ->
      Loop.cancel t.loop tm;
      rt.r_timer <- None
    | None -> ());
    Hashtbl.remove t.routes id;
    if not rt.r_conn.closed then begin
      Hashtbl.replace rt.r_conn.ready id line;
      pump_ready t rt.r_conn
    end

(* Job [id]'s deadline elapsed with the answer still owed (queued or
   executing): synthesize the deadline reply into its ordered slot now.
   The pool's own result is dropped when it lands (no route), and only
   that delivery releases the limiter slot — never this path. *)
and on_deadline t id =
  match Hashtbl.find_opt t.routes id with
  | None -> ()
  | Some rt ->
    rt.r_timer <- None;
    Hashtbl.remove t.routes id;
    t.timer_deadlines <- t.timer_deadlines + 1;
    if not rt.r_conn.closed then begin
      let ms = Option.value rt.r_spec.Job.deadline_ms ~default:0 in
      let reply =
        {
          Job.id;
          spec = rt.r_spec;
          outcome =
            Job.Failed
              ( Job.Deadline_exceeded,
                Printf.sprintf "deadline of %d ms exceeded" ms );
          stats = Job.no_stats;
          profile = None;
          sched = None;
        }
      in
      Hashtbl.replace rt.r_conn.ready id
        (Fpc_util.Jsonout.to_string (Job.result_to_json ~times:t.times reply));
      pump_ready t rt.r_conn
    end

and handle_job t conn line =
  match Job.parse_request line with
  | Error msg ->
    conn_send t conn (Protocol.error_line ~error:"bad-request" ~message:msg)
  | Ok spec ->
    (* A request that left the tier (or devirt) to the service gets the
       server's default; an explicit key always wins. *)
    let spec =
      match spec.Job.tier with
      | Job.Auto -> { spec with Job.tier = t.tier }
      | _ -> spec
    in
    let spec =
      match spec.Job.devirt with
      | None -> { spec with Job.devirt = Some t.devirt }
      | Some _ -> spec
    in
    let draining = Atomic.get t.stopping in
    match Limiter.try_admit_job t.limiter ~draining with
    | None ->
      conn_send t conn
        (Protocol.shed_line
           ~message:
             (if draining then "server is draining"
              else "pending-jobs limit reached"))
    | Some _ -> (
      (* No registration race: delivery reaches this state only via a
         post, which cannot run before this callback returns. *)
      let id = Pool.submit t.pool spec in
      let rt = { r_conn = conn; r_spec = spec; r_timer = None } in
      Hashtbl.replace t.routes id rt;
      Queue.push id conn.expected;
      (* The timer is armed at admission, so the deadline covers queue
         wait as well as execution — a job stuck behind a full pool is
         answered on time, which threads could never do. *)
      match spec.Job.deadline_ms with
      | Some ms ->
        rt.r_timer <- Some (Loop.after t.loop ~ms (fun () -> on_deadline t id))
      | None -> ())

and process_items t conn =
  if not conn.closed then
    match Framing.poll conn.fr with
    | None -> ()
    | Some Framing.Eof ->
      conn.input_done <- true;
      update_interest t conn;
      maybe_close t conn
    | Some (Framing.Overlong n) ->
      conn_send t conn
        (Protocol.error_line ~error:"overlong-line"
           ~message:
             (Protocol.overlong_message ~bytes_discarded:n ~limit:t.max_line));
      process_items t conn
    | Some (Framing.Line line) ->
      let s = String.trim line in
      if String.length s = 0 || s.[0] = '#' then process_items t conn
      else begin
        (match Protocol.admin_of_line s with
        | Some Protocol.Stats ->
          conn_send t conn
            (Fpc_util.Jsonout.to_string (stats_to_json (stats t)))
        | Some Protocol.Shutdown ->
          conn_send t conn Protocol.draining_line;
          request_drain t
        | None -> handle_job t conn s);
        process_items t conn
      end

and finish_input t conn =
  if (not conn.closed) && not conn.input_done then begin
    Framing.input_closed conn.fr;
    (* flushes a final unterminated line, then yields Eof *)
    process_items t conn
  end

and on_conn_readable t conn =
  if not conn.closed then begin
    (* one bounded read per readiness event: level-triggered polling
       re-reports leftover bytes, and no connection can starve the rest *)
    match Unix.read conn.fd t.read_buf 0 (Bytes.length t.read_buf) with
    | 0 -> finish_input t conn
    | n ->
      Framing.feed conn.fr (Bytes.sub_string t.read_buf 0 n) 0 n;
      process_items t conn
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      (* reset mid-request: nothing more can be written either *)
      close_conn t conn
  end

and new_conn t fd =
  let c_id = t.conn_ids in
  t.conn_ids <- t.conn_ids + 1;
  let conn =
    {
      c_id;
      fd;
      watcher = None;
      fr = Framing.pushable ~max_line:t.max_line ();
      ob = Outbuf.create ();
      expected = Queue.create ();
      ready = Hashtbl.create 8;
      input_done = false;
      want_write = false;
      paused = false;
      closed = false;
    }
  in
  let w =
    Loop.watch t.loop fd
      ~on_readable:(fun () -> on_conn_readable t conn)
      ~on_writable:(fun () -> flush_conn t conn)
      ()
  in
  conn.watcher <- Some w;
  Hashtbl.replace t.conns c_id conn;
  Loop.interest t.loop w ~read:true ~write:false

and on_accept t =
  if not (Atomic.get t.stopping) then begin
    match Unix.accept t.listen_fd with
    | exception
        Unix.Unix_error
          ( (Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK),
            _,
            _ ) ->
      ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      (match t.sndbuf with
      | Some n -> (
        try Unix.setsockopt_int fd Unix.SO_SNDBUF n
        with Unix.Unix_error _ -> ())
      | None -> ());
      if Limiter.try_admit_connection t.limiter then begin
        Unix.set_nonblock fd;
        new_conn t fd
      end
      else begin
        (try
           write_all fd
             (Protocol.shed_line ~message:"connection limit reached" ^ "\n")
         with Unix.Unix_error _ | Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end;
      (* accept the whole burst before returning to the backend *)
      on_accept t
  end

(* Drain, on the loop thread: stop listening, mark every connection's
   input as over (in-flight jobs still flush in order), and let the loop
   stop once the last connection closes. *)
and begin_drain t =
  (match t.listen_w with
  | Some w ->
    Loop.unwatch t.loop w;
    t.listen_w <- None
  | None -> ());
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun conn ->
      if not conn.closed then begin
        shutdown_receive conn.fd;
        finish_input t conn;
        update_interest t conn
      end)
    cs;
  if Hashtbl.length t.conns = 0 then Loop.stop t.loop

and request_drain t =
  if Atomic.compare_and_set t.stopping false true then
    Loop.post t.loop (fun () -> begin_drain t)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ ->
      invalid_arg (Printf.sprintf "Server.create: cannot resolve host %S" host))

let create ?(host = "127.0.0.1") ?(port = 0) ?domains ?max_connections
    ?max_pending ?(max_line = Framing.default_max_line) ?(times = true)
    ?(tier = Fpc_svc.Job.Auto) ?(devirt = true) ?sndbuf () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let limiter = Limiter.create ?max_connections ?max_pending () in
  let loop = Loop.create () in
  (* The result handoff: the worker domain that completed the job
     renders its JSON line right there (spreading the serialization cost
     across domains), releases the admission slot, and posts the line
     into the loop, which owns all routing state. *)
  let t_ref = ref None in
  let deliver (r : Job.result) =
    Limiter.release_job limiter;
    match !t_ref with
    | None -> ()
    | Some t ->
      let line =
        Fpc_util.Jsonout.to_string (Job.result_to_json ~times r)
      in
      Loop.post loop (fun () -> on_result t r.Job.id line)
  in
  let pool = Pool.create ?domains ~deliver () in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (resolve_host host, port));
     (* a C10K accept storm arrives faster than one thread can accept *)
     Unix.listen listen_fd 1024;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Pool.shutdown pool;
     raise e);
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t =
    {
      pool;
      limiter;
      loop;
      listen_fd;
      port;
      stopping = Atomic.make false;
      times;
      tier;
      devirt;
      max_line;
      sndbuf;
      read_buf = Bytes.create 65536;
      routes = Hashtbl.create 64;
      conns = Hashtbl.create 64;
      listen_w = None;
      conn_ids = 0;
      timer_deadlines = 0;
      loop_thread = None;
    }
  in
  t_ref := Some t;
  let lw = Loop.watch loop listen_fd ~on_readable:(fun () -> on_accept t) () in
  t.listen_w <- Some lw;
  Loop.interest loop lw ~read:true ~write:false;
  t.loop_thread <- Some (Thread.create Loop.run loop);
  t

let wait t =
  (match t.loop_thread with Some th -> Thread.join th | None -> ());
  Pool.drain t.pool;
  let s = stats t in
  Pool.shutdown t.pool;
  s
