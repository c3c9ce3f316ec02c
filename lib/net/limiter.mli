(** Admission control for the TCP server: a cap on concurrent
    connections and a bound on jobs admitted but not yet answered.

    The paper's discipline applied one layer up: the XFER fast path only
    pays off because the slow path is engineered, and a serving front-end
    only stays fast under overload if the overload is {e refused} at the
    door rather than queued without bound.  Over either limit the caller
    sends a structured shed response and moves on; nothing blocks, and
    the pool's queue depth stays bounded by [max_pending].  {!stats} are
    the server's admission counts: [/stats] reports them in its
    ["server"] object.

    Thread-safe; one internal mutex, held for a few loads and stores. *)

type t

val create : ?max_connections:int -> ?max_pending:int -> unit -> t
(** Defaults: 16 connections, 64 pending jobs.  Raises
    [Invalid_argument] if either is < 1. *)

val try_admit_connection : t -> bool
(** Claim a connection slot; [false] (and a shed counted) when full. *)

val release_connection : t -> unit

val try_admit_job : t -> draining:bool -> int option
(** Claim a pending-job slot.  [Some pending] — the depth {e after}
    admission, which raises the high-water mark — on success; [None] (and
    a shed counted) when the bound is hit or the server is [draining].
    This is the one count of refused jobs, whatever the reason. *)

val release_job : t -> unit
(** A previously admitted job was answered (result delivered or the
    connection it belonged to died). *)

type stats = {
  connections : int;  (** currently admitted *)
  max_connections : int;
  pending : int;  (** jobs admitted, not yet answered *)
  max_pending : int;
  max_pending_observed : int;  (** high-water mark of [pending] *)
  shed_jobs : int;  (** job admissions refused: over the bound or draining *)
  shed_connections : int;  (** connection admissions refused *)
}

val stats : t -> stats
