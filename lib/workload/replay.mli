(** Trace replayers: drive a single mechanism with a synthetic trace,
    without the interpreter in the way.  Used by experiments that sweep a
    parameter (bank count, return-stack depth, allocator ladder) over many
    trace shapes cheaply.

    Traces with [Coroutine_switch] events are replayed over four
    round-robin activities, each with its own frame stack — the non-LIFO
    pattern §1 says conventional architectures cannot support. *)

type bank_result = {
  bk_stats : Fpc_regbank.Bank_file.stats;
  bk_rate : float;  (** (overflows + underflows) / transfers *)
}

val replay_banks : banks:int -> Synthetic.event list -> bank_result
(** Over [banks] banks of {!Fpc_regbank.Bank_file.default_config}'s
    size. *)

type return_stack_result = {
  rs_fast_returns : int;
  rs_slow_returns : int;
  rs_flushes : int;
  rs_flushed_entries : int;
  rs_fast_fraction : float;  (** fast returns / all returns *)
}

val replay_return_stack : depth:int -> Synthetic.event list -> return_stack_result

type alloc_result = {
  al_stats : Fpc_frames.Alloc_vector.stats;
  al_fragmentation : float;
  al_mem_refs_per_alloc : float;
  al_mem_refs_per_free : float;
}

val replay_allocator :
  ?ladder:Fpc_frames.Size_class.t -> Synthetic.event list -> alloc_result
