(** The evaluation stack: "a stack or some working registers for evaluating
    expressions, or for passing arguments and results" (§4).

    It is register-resident (under I4 it lives in a register bank, §7.2),
    so pushes and pops cost no storage references.  The compiler keeps the
    invariant that at every call the stack holds exactly the outgoing
    argument record — §5.2's observation that [f[g[], h[]]] "requires the
    results of g to be saved before h is called" — which is what makes the
    rename-the-stack-bank trick sound. *)

exception Overflow
exception Underflow

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 16 words, the Mesa-processor scale. *)

val capacity : t -> int
val depth : t -> int
val push : t -> int -> unit
val pop : t -> int
val peek : t -> int
val clear : t -> unit

(** {1 Unchecked access}

    For callers that have already proved the depth bounds of a whole run
    of operations — the compiled tier's fused superinstructions, which
    guard once per block instead of once per push.  Same word truncation
    as {!push}; out-of-bounds behaviour is undefined, so these must only
    run under a proven guard. *)

val unsafe_push : t -> int -> unit
val unsafe_pop : t -> int

val contents : t -> int array
(** Bottom first; a fresh copy. *)

val buffer : t -> int array
(** The backing array itself (bottom first; only the first {!depth} words
    are meaningful).  Read-only view for the transfer engine, which passes
    it as the argument record without copying — treat it as invalid after
    any push/pop/clear. *)

val save : t -> int array -> int
(** Copy the live words, bottom first, into the front of the given array
    (at least {!depth} long) and return the depth: a process switch's
    state-vector save, into a preallocated slot. *)

val restore : t -> int array -> depth:int -> unit
(** Set the whole stack from the first [depth] words of the array
    (process resume); raises {!Overflow} past the capacity. *)
