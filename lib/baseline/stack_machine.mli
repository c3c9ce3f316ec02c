(** The comparator the paper argues against (§1): a conventional
    VAX-CALLS-flavoured calling convention on a contiguous stack.

    A call pushes the argument words, then a linkage block (return PC,
    saved frame pointer, argument pointer, register-save mask) and the
    callee's saved registers, then advances SP over the locals; a return
    pops it all back.  Every one of those words is a real storage
    reference on the simulated memory, so per-call costs are measured, not
    assumed.

    The structural point of §1 — "most such architectures can support only
    a strictly last-in first-out pattern of transfers... each coroutine or
    process needs a contiguous piece of storage large enough to hold the
    largest set of frames it will ever have" — is priced by experiment E11:
    one maximal contiguous stack per coroutine/process, against the frame
    heap's pay-as-you-go allocation. *)

type config = {
  saved_registers : int;  (** registers saved/restored per call (default 4) *)
  linkage_words : int;  (** PC, FP, AP, mask — 4 words *)
}

val default_config : config

type t

val create :
  ?config:config ->
  mem:Fpc_machine.Memory.t ->
  stack_base:int ->
  stack_limit:int ->
  unit ->
  t

exception Stack_exhausted

val call : t -> nargs:int -> locals_words:int -> unit
(** Push arguments, linkage and saved registers; allocate locals. *)

val return_ : t -> unit
(** Pop the top activation.  Raises [Invalid_argument] when the stack is
    empty. *)

val depth : t -> int
val sp : t -> int
val high_water : t -> int
(** Maximum words of stack ever in use. *)

val calls : t -> int
