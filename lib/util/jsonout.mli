(** Minimal JSON construction and printing.

    The service layer ([Fpc_svc]), [fpc serve] and the benchmark
    perf-trajectory file all emit JSON; the toolchain deliberately has no
    external JSON dependency, so this tiny emitter is the single shared
    path.  Output is compact (no insignificant whitespace) and field order
    is exactly the construction order, so emitted lines are deterministic
    and diffable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering, no trailing newline.  Strings are escaped per RFC
    8259 (quote, backslash, and control characters).  Floats render as the
    shortest decimal form that round-trips; non-finite floats render as
    [null] (JSON has no representation for them). *)

val pretty : t -> string
(** Two-space-indented rendering, trailing newline included — for files
    meant to be read by humans (e.g. [BENCH_results.json]). *)
