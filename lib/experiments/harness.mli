(** Shared machinery for the experiments: the engine roster and
    compile-and-run helpers over the {!Fpc_workload.Programs} suite. *)

val engines : (string * Fpc_core.Engine.t) list
(** [("I1", i1); ("I2", i2); ("I3", ...); ("I4", ...)]. *)

val engine : string -> Fpc_core.Engine.t
(** Raises [Not_found]. *)

val image_of :
  ?convention:Fpc_compiler.Convention.t -> program:string -> unit -> Fpc_mesa.Image.t
(** Compile a named suite program (failing loudly on compile errors). *)

val run_one :
  ?engine:Fpc_core.Engine.t ->
  ?tracer:Fpc_trace.Sink.t ->
  program:string ->
  unit ->
  Fpc_core.State.t
(** Compile with the engine's natural convention and run [Main.main]
    (under [tracer], when given).  Fails loudly on a trap. *)

val run_suite :
  ?engine:Fpc_core.Engine.t ->
  ?programs:string list ->
  unit ->
  (string * Fpc_core.State.t) list

val must_halt : Fpc_core.State.t -> unit
(** Raises [Failure] unless the run halted normally. *)

val boot : image:Fpc_mesa.Image.t -> engine:Fpc_core.Engine.t -> Fpc_core.State.t
(** A machine ready to run [Main.main] on a fresh clone of [image]. *)

val fingerprint : Fpc_core.State.t -> Fpc_interp.Interp.outcome
(** Everything a differential compares after a run: status, output,
    final stack, meters, transfer counts and the fast-path record. *)

val ratio : int -> int -> float
(** [ratio a b] = a/b as float; 0 when [b] = 0. *)
