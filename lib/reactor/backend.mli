(** The readiness API the event loop drives: register file descriptors,
    declare read/write interest, block until something is ready.

    Implemented over [Unix.select]: portable, fd numbers below
    FD_SETSIZE (1024 on Linux), O(registered fds) per wait.  An epoll
    implementation would keep this signature. *)

type ready = {
  r_fd : Unix.file_descr;
  r_readable : bool;
  r_writable : bool;
}

type t

val name : string
(** ["select"], reported in [/stats]. *)

val create : unit -> t

val add : t -> Unix.file_descr -> unit
(** Register with no interest; raises [Invalid_argument] if the fd is
    already registered. *)

val modify : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Replace the fd's interest set. *)

val remove : t -> Unix.file_descr -> unit
(** Forget the fd (idempotent). *)

val wait : t -> float -> ready list
(** Block up to [timeout] seconds (negative = forever) for readiness on
    the registered interest; an empty list is a legitimate timeout or
    spurious (EINTR) wake. *)
