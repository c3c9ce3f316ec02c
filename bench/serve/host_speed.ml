(* How fast the host runs right now, measured by a fixed kernel that
   depends on nothing in the repository.

   The recording host is a 2-core share of a bigger machine, and its
   speed drifts by a fifth or more over minutes: a plain CPU loop's
   one-minute means fell by a quarter within eight minutes.  No run
   length averages that out.  So a run samples this kernel between its
   measured steps, and its end-to-end times are multiplied, and its rates
   divided, by the median sample over the recording host's rate (README.md
   has the spreads with and without).  The server is stopped (SIGSTOP)
   while the kernel runs, so nothing the server does when idle can slow
   the kernel and be credited back.

   The kernel is a small stack-machine interpreter, like the work the
   server does, and allocates nothing, so its domains never stop together
   for a minor collection. *)

type op = Push of int | Load of int | Store of int | Add | Sub | Jnz of int | Halt

(* sum 1..2000 *)
let program =
  [| Push 2000; Store 0; Push 0; Store 1;
     Load 1; Load 0; Add; Store 1;
     Load 0; Push 1; Sub; Store 0;
     Load 0; Jnz 4; Halt |]

let rec run stack vars pc sp =
  match program.(pc) with
  | Push n ->
    stack.(sp) <- n;
    run stack vars (pc + 1) (sp + 1)
  | Load v ->
    stack.(sp) <- vars.(v);
    run stack vars (pc + 1) (sp + 1)
  | Store v ->
    vars.(v) <- stack.(sp - 1);
    run stack vars (pc + 1) (sp - 1)
  | Add ->
    stack.(sp - 2) <- stack.(sp - 2) + stack.(sp - 1);
    run stack vars (pc + 1) (sp - 1)
  | Sub ->
    stack.(sp - 2) <- stack.(sp - 2) - stack.(sp - 1);
    run stack vars (pc + 1) (sp - 1)
  | Jnz t -> if stack.(sp - 1) <> 0 then run stack vars t (sp - 1) else run stack vars (pc + 1) (sp - 1)
  | Halt -> vars.(1)

let run_once stack vars = run stack vars 0 0

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Kernel runs per second on the calling domain over [dur] seconds. *)
let rate_one dur =
  let stack = Array.make 16 0 and vars = Array.make 4 0 in
  let t0 = now_ns () in
  let stop = t0 + int_of_float (dur *. 1e9) in
  let n = ref 0 and t = ref t0 in
  while !t < stop do
    for _ = 1 to 20 do
      if run_once stack vars <> 2_001_000 then failwith "host speed kernel: wrong sum"
    done;
    n := !n + 20;
    t := now_ns ()
  done;
  float_of_int !n /. (float_of_int (!t - t0) *. 1e-9)

(* The measured load runs on two cores (the server's worker, and the
   generator with the reactor), so the kernel runs on as many domains. *)
let domains = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Summed kernel runs per second over [domains] domains on the 2-core
   recording host, the median of 800 samples over 40 minutes of benchmark
   runs: a host that runs the kernel at this rate has speed 1. *)
let reference_rate = 29_000.0

(* The host's speed over [dur] seconds, relative to the recording host. *)
let sample dur =
  let others = List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> rate_one dur)) in
  let r = rate_one dur in
  List.fold_left (fun a d -> a +. Domain.join d) r others /. reference_rate
