(* Every timestamp in the benchmark: CLOCK_MONOTONIC, which no NTP step
   can move. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d
