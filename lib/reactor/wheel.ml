type timer = {
  fire_at : float;
  mutable callback : (unit -> unit) option;  (** [None] once cancelled/fired *)
}

type t = {
  granularity_s : float;
  slots : timer list array;  (* mutated via Array.set only *)
  mutable live : int;
  mutable fired : int;
  mutable last_advance : float;
}

let create ?(granularity_ms = 2) ?(slots = 512) ~now () =
  if granularity_ms < 1 then
    invalid_arg "Wheel.create: granularity_ms must be positive";
  if slots < 2 then invalid_arg "Wheel.create: need at least two slots";
  {
    granularity_s = float_of_int granularity_ms /. 1000.0;
    slots = Array.make slots [];
    live = 0;
    fired = 0;
    last_advance = now;
  }

let slot_of t at =
  (* floats stay positive (Fpc_util.Clock counts from boot), so truncation
     is a floor *)
  int_of_float (at /. t.granularity_s) mod Array.length t.slots

let live t = t.live
let fired t = t.fired

let add t ~at f =
  let timer = { fire_at = at; callback = Some f } in
  (* an already-overdue timer hashes into the slot the next sweep starts
     from, so it cannot hide behind the sweep cursor *)
  let s = slot_of t (if at <= t.last_advance then t.last_advance else at) in
  t.slots.(s) <- timer :: t.slots.(s);
  t.live <- t.live + 1;
  timer

let cancel t timer =
  if timer.callback <> None then begin
    timer.callback <- None;
    t.live <- t.live - 1
  end

(* Run every due timer.  A slot can hold entries destined for later
   wheel revolutions, so due-ness is always re-checked against the
   entry's own absolute time; cancelled entries are dropped in passing.
   The scan covers the slots the clock swept since the last advance
   (everything, if it swept a whole revolution); the due set is then
   fired in absolute-time order, so a catch-up sweep spanning several
   slots still observes deadline order.  A callback arming new timers
   mid-fire parks them for the next advance. *)
let advance t ~now =
  if t.live > 0 && now >= t.last_advance then begin
    let n = Array.length t.slots in
    let first = slot_of t t.last_advance in
    let swept =
      let ticks =
        int_of_float ((now -. t.last_advance) /. t.granularity_s) + 1
      in
      min n ticks
    in
    let due = ref [] in
    for k = 0 to swept - 1 do
      let s = (first + k) mod n in
      match t.slots.(s) with
      | [] -> ()
      | entries ->
        let keep =
          List.filter
            (fun timer ->
              match timer.callback with
              | None -> false
              | Some _ when timer.fire_at <= now ->
                due := timer :: !due;
                false
              | Some _ -> true)
            entries
        in
        t.slots.(s) <- keep
    done;
    List.iter
      (fun timer ->
        (* re-check: an earlier callback in this batch may have cancelled *)
        match timer.callback with
        | None -> ()
        | Some f ->
          timer.callback <- None;
          t.live <- t.live - 1;
          t.fired <- t.fired + 1;
          f ())
      (List.sort (fun a b -> compare a.fire_at b.fire_at) !due)
  end;
  if now > t.last_advance then t.last_advance <- now

(* Seconds until the earliest live timer (0 if overdue).  A full scan,
   but only ever called when timers exist, and wheels here hold a
   handful of per-job deadlines — not worth a parallel heap. *)
let next_due t ~now =
  if t.live = 0 then None
  else begin
    let earliest = ref infinity in
    Array.iter
      (List.iter (fun timer ->
           if timer.callback <> None && timer.fire_at < !earliest then
             earliest := timer.fire_at))
      t.slots;
    if !earliest = infinity then None else Some (Float.max 0.0 (!earliest -. now))
  end
