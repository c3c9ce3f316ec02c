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

val ratio : int -> int -> float
(** [ratio a b] = a/b as float; 0 when [b] = 0. *)
