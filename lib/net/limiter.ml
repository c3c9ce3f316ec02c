type t = {
  m : Mutex.t;
  max_connections : int;
  max_pending : int;
  mutable connections : int;
  mutable pending : int;
  mutable max_pending_observed : int;
  mutable shed_jobs : int;
  mutable shed_connections : int;
}

let create ?(max_connections = 16) ?(max_pending = 64) () =
  if max_connections < 1 then
    invalid_arg "Limiter.create: max_connections must be positive";
  if max_pending < 1 then
    invalid_arg "Limiter.create: max_pending must be positive";
  {
    m = Mutex.create ();
    max_connections;
    max_pending;
    connections = 0;
    pending = 0;
    max_pending_observed = 0;
    shed_jobs = 0;
    shed_connections = 0;
  }

let with_lock t f =
  Mutex.lock t.m;
  let r = f () in
  Mutex.unlock t.m;
  r

let try_admit_connection t =
  with_lock t (fun () ->
      if t.connections >= t.max_connections then begin
        t.shed_connections <- t.shed_connections + 1;
        false
      end
      else begin
        t.connections <- t.connections + 1;
        true
      end)

let release_connection t =
  with_lock t (fun () -> t.connections <- max 0 (t.connections - 1))

let try_admit_job t ~draining =
  with_lock t (fun () ->
      if draining || t.pending >= t.max_pending then begin
        t.shed_jobs <- t.shed_jobs + 1;
        None
      end
      else begin
        t.pending <- t.pending + 1;
        if t.pending > t.max_pending_observed then
          t.max_pending_observed <- t.pending;
        Some t.pending
      end)

let release_job t = with_lock t (fun () -> t.pending <- max 0 (t.pending - 1))

type stats = {
  connections : int;
  max_connections : int;
  pending : int;
  max_pending : int;
  max_pending_observed : int;
  shed_jobs : int;
  shed_connections : int;
}

let stats t =
  with_lock t (fun () ->
      {
        connections = t.connections;
        max_connections = t.max_connections;
        pending = t.pending;
        max_pending = t.max_pending;
        max_pending_observed = t.max_pending_observed;
        shed_jobs = t.shed_jobs;
        shed_connections = t.shed_connections;
      })
