(** The host clock: every host-time read in the libraries and the CLI.

    [CLOCK_MONOTONIC], read through the [bechamel.monotonic_clock] stub
    (one [clock_gettime] call, no allocation).  It counts from an
    arbitrary origin (boot, on Linux) and never steps: an NTP adjustment
    of the wall clock cannot make a deadline fire early or never, or a
    duration come out negative.  So its readings mean something only
    relative to each other — a deadline, a duration, a timer — never as
    a date. *)

val now : unit -> float
(** Seconds since the clock's origin.  Non-decreasing across calls, on
    every domain. *)
