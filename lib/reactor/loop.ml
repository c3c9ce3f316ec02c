type watcher = {
  w_fd : Unix.file_descr;
  mutable on_readable : unit -> unit;
  mutable on_writable : unit -> unit;
  mutable want_read : bool;
  mutable want_write : bool;
  mutable alive : bool;
}

type t = {
  backend : Backend.t;
  watchers : (Unix.file_descr, watcher) Hashtbl.t;
  wheel : Wheel.t;
  posted : (unit -> unit) Queue.t;
  posted_m : Mutex.t;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  finished : bool Atomic.t;  (** run has returned; posts are dropped *)
  mutable stop_requested : bool;
  mutable in_run : bool;
  mutable iterations : int;
  mutable posts : int;
  wake_buf : Bytes.t;
}

let now = Fpc_util.Clock.now

let create () =
  let backend = Backend.create () in
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  let t =
    {
      backend;
      watchers = Hashtbl.create 64;
      wheel = Wheel.create ~now:(now ()) ();
      posted = Queue.create ();
      posted_m = Mutex.create ();
      wake_rd;
      wake_wr;
      finished = Atomic.make false;
      stop_requested = false;
      in_run = false;
      iterations = 0;
      posts = 0;
      wake_buf = Bytes.create 256;
    }
  in
  (* the self-pipe is a watcher like any other; its payload bytes carry
     no information (the posted queue does), so just drain them *)
  Backend.add backend wake_rd;
  Backend.modify backend wake_rd ~read:true ~write:false;
  t

let watch t fd ?(on_readable = ignore) ?(on_writable = ignore) () =
  let w =
    { w_fd = fd; on_readable; on_writable; want_read = false;
      want_write = false; alive = true }
  in
  Backend.add t.backend fd;
  Hashtbl.replace t.watchers fd w;
  w

let interest t w ~read ~write =
  if w.alive && (w.want_read <> read || w.want_write <> write) then begin
    w.want_read <- read;
    w.want_write <- write;
    Backend.modify t.backend w.w_fd ~read ~write
  end

let unwatch t w =
  if w.alive then begin
    w.alive <- false;
    Backend.remove t.backend w.w_fd;
    Hashtbl.remove t.watchers w.w_fd
  end

let after t ~ms f =
  Wheel.add t.wheel ~at:(now () +. (float_of_int ms /. 1000.0)) f

let cancel t timer = Wheel.cancel t.wheel timer

(* Thread-safe injection: enqueue the thunk and poke the self-pipe so a
   loop blocked in the backend wakes up.  The byte is only written on an
   empty->non-empty transition, so a burst of posts costs one wake.  A
   full or already-closed pipe is fine — the loop is awake or gone. *)
let post t f =
  if not (Atomic.get t.finished) then begin
    Mutex.lock t.posted_m;
    let was_empty = Queue.is_empty t.posted in
    Queue.push f t.posted;
    t.posts <- t.posts + 1;
    Mutex.unlock t.posted_m;
    if was_empty then
      try ignore (Unix.write t.wake_wr (Bytes.make 1 '!') 0 1)
      with Unix.Unix_error _ | Sys_error _ -> ()
  end

let stop t = t.stop_requested <- true
let request_stop t = post t (fun () -> stop t)

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_rd t.wake_buf 0 (Bytes.length t.wake_buf) with
    | n when n = Bytes.length t.wake_buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let run_posted t =
  let batch =
    Mutex.lock t.posted_m;
    if Queue.is_empty t.posted then None
    else begin
      let q = Queue.copy t.posted in
      Queue.clear t.posted;
      Some q
    end
  in
  Mutex.unlock t.posted_m;
  match batch with
  | None -> ()
  | Some q -> Queue.iter (fun f -> f ()) q

let has_posted t =
  Mutex.lock t.posted_m;
  let r = not (Queue.is_empty t.posted) in
  Mutex.unlock t.posted_m;
  r

let run t =
  if t.in_run then invalid_arg "Loop.run: already running";
  t.in_run <- true;
  while not t.stop_requested do
    t.iterations <- t.iterations + 1;
    let timeout =
      if has_posted t then 0.0
      else
        match Wheel.next_due t.wheel ~now:(now ()) with
        | Some s -> s
        | None -> -1.0
    in
    let ready = Backend.wait t.backend timeout in
    List.iter
      (fun (r : Backend.ready) ->
        if r.Backend.r_fd = t.wake_rd then drain_wake t
        else
          (* look the watcher up at dispatch time: an earlier callback in
             this same batch may have unwatched (or replaced) the fd *)
          match Hashtbl.find_opt t.watchers r.Backend.r_fd with
          | None -> ()
          | Some w ->
            if w.alive && w.want_read && r.Backend.r_readable then
              w.on_readable ();
            if w.alive && w.want_write && r.Backend.r_writable then
              w.on_writable ())
      ready;
    run_posted t;
    Wheel.advance t.wheel ~now:(now ())
  done;
  Atomic.set t.finished true;
  (try Unix.close t.wake_rd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_wr with Unix.Unix_error _ -> ());
  t.in_run <- false

type stats = {
  iterations : int;
  posts : int;
  timers_fired : int;
  timers_live : int;
  watched : int;
}

let stats (t : t) =
  {
    iterations = t.iterations;
    posts = t.posts;
    timers_fired = Wheel.fired t.wheel;
    timers_live = Wheel.live t.wheel;
    watched = Hashtbl.length t.watchers;
  }
