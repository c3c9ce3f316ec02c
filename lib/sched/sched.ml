(* The green-thread scheduler: fuel-sliced execution of a machine whose
   ready queue holds the sessions.  There is no host-side run queue — the
   machine's own ready ring ([State.ring]) is the scheduler's data
   structure, and
   coroutine/process XFER is the only context-switch primitive.  The host
   merely decides *when* the running session is forced to a switch point
   (Preempt) or lets the program pick its own (Run_to_yield). *)

type policy = Run_to_yield | Preempt of { quantum : int }

let policy_to_string = function
  | Run_to_yield -> "yield"
  | Preempt { quantum } -> Printf.sprintf "preempt:%d" quantum

let policy_of_string ?(quantum = 1000) s =
  match String.lowercase_ascii s with
  | "yield" | "run-to-yield" -> Ok Run_to_yield
  | "preempt" -> Ok (Preempt { quantum })
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "preempt" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some q when q > 0 -> Ok (Preempt { quantum = q })
      | _ -> Error (Printf.sprintf "bad preempt quantum in %S" s))
    | _ ->
      Error
        (Printf.sprintf "unknown policy %S (expected yield or preempt[:quantum])"
           s))

type stats = { deadline_hit : bool; slices : int; preemptions : int }

let now = Fpc_util.Clock.now

(* The slicer's contract: [Step_limit] can only come from the step
   budget, so with fuel remaining it marks a resumable slice boundary,
   not a terminal state.  A final [Step_limit] (fuel exhausted)
   is left on the machine for the caller's fuel-exhaustion policy. *)
let hit deadline_at = match deadline_at with None -> false | Some d -> now () > d

(* A yield may only be injected where the program could have written one:
   at a statement boundary, which is exactly where the evaluation stack is
   empty.  Forcing a switch mid-expression would be worse than inaccurate —
   a read-modify-write like [finished := finished + 1] straddled by a
   switch loses an update, and the paper's machine has no monitors to
   protect it.  So after a quantum expires we {e drift}: single-step until
   the stack empties, spending at most [budget] extra steps (a deep call
   inside an expression keeps the stack non-empty for its whole duration).
   Returns the steps spent; the boundary was found iff the stack is empty
   and the machine still running. *)
let drift_to_boundary ~step ~budget (st : Fpc_core.State.t) =
  let spent = ref 0 in
  let running () =
    match st.Fpc_core.State.status with
    | Fpc_core.State.Running -> true
    | Fpc_core.State.Trapped Fpc_core.State.Step_limit ->
      st.Fpc_core.State.status <- Fpc_core.State.Running;
      true
    | _ -> false
  in
  while
    Fpc_core.Eval_stack.depth st.stack > 0 && !spent < budget && running ()
  do
    step 1 st;
    incr spent
  done;
  ignore (running ());
  !spent

(* The injected round-robin itself: meters the switch, flushes the return
   stack and banks — or no-ops when no other session is ready, in which
   case it is not counted as a preemption.  It also declines while the
   running process has retired nothing since a switch gave it the CPU:
   when a program's own YIELD is the last step of a slice, taking the CPU
   straight back would starve the process it handed over to, and a wait
   loop whose length lines its YIELD up with every slice would livelock. *)
let inject_yield (st : Fpc_core.State.t) =
  if st.metrics.instructions = st.resumed_at then false
  else begin
    let switched = Fpc_core.State.ready_count st > 0 in
    ignore (Fpc_core.Transfer.catch_traps st Fpc_core.Transfer.yield : bool);
    switched
  end

let run ?(policy = Run_to_yield) ?deadline_at ~step ~fuel st =
  let slice =
    match policy with
    | Run_to_yield -> 50_000
    | Preempt { quantum } -> max 1 quantum
  in
  let preemptive = match policy with Preempt _ -> true | Run_to_yield -> false in
  (* a machine parked at a previous invocation's fuel boundary is
     resumable by contract: clear the marker and keep going.  A
     non-positive [fuel] reaches [step], which parks it there again. *)
  (match st.Fpc_core.State.status with
  | Fpc_core.State.Trapped Fpc_core.State.Step_limit ->
    st.Fpc_core.State.status <- Fpc_core.State.Running
  | _ -> ());
  if (not preemptive) && deadline_at = None then begin
    step fuel st;
    { deadline_hit = false; slices = 1; preemptions = 0 }
  end
  else begin
    (* [go] is built only here: the one-slice path allocates no closure *)
    let rec go remaining slices preemptions =
      let s = min slice remaining in
      step s st;
      let slices = slices + 1 in
      match st.Fpc_core.State.status with
      | Fpc_core.State.Trapped Fpc_core.State.Step_limit when remaining > s ->
        if hit deadline_at then { deadline_hit = true; slices; preemptions }
        else begin
          st.Fpc_core.State.status <- Fpc_core.State.Running;
          let remaining = remaining - s in
          let remaining, preemptions =
            if not preemptive then (remaining, preemptions)
            else begin
              let budget = min slice remaining in
              let spent = drift_to_boundary ~step ~budget st in
              let at_boundary =
                st.Fpc_core.State.status = Fpc_core.State.Running
                && Fpc_core.Eval_stack.depth st.stack = 0
              in
              ( remaining - spent,
                if at_boundary && inject_yield st then preemptions + 1
                else preemptions )
            end
          in
          (* an injected yield can itself trap (a corrupted context word),
             and the drift may have exhausted the fuel or ended the run *)
          match st.Fpc_core.State.status with
          | Fpc_core.State.Running when remaining > 0 ->
            go remaining slices preemptions
          | Fpc_core.State.Running ->
            st.Fpc_core.State.status <-
              Fpc_core.State.Trapped Fpc_core.State.Step_limit;
            { deadline_hit = false; slices; preemptions }
          | _ -> { deadline_hit = false; slices; preemptions }
        end
      | _ -> { deadline_hit = false; slices; preemptions }
    in
    go fuel 0 0
  end

type report = {
  forked : int;
  ended : int;
  peak_live : int;
  slices : int;
  preemptions : int;
  switch_xfers : int;
  rs_flushes : int;
  rs_flush_rate : float;
  bank_overflows : int;
  bank_overflow_rate : float;
  frame_peak_words : int;
  lifo_reserved_words : int;
  footprint_ratio : float;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let report ?(lifo_reserved = 0) ~(stats : stats) (st : Fpc_core.State.t) =
  let o = Fpc_interp.Interp.outcome st in
  let f = o.Fpc_interp.Interp.o_fastpath in
  let m = st.metrics in
  let av = Fpc_frames.Alloc_vector.stats st.allocator in
  {
    forked = m.procs_forked;
    ended = m.procs_ended;
    peak_live = m.peak_live_procs;
    slices = stats.slices;
    preemptions = stats.preemptions;
    switch_xfers = m.other_xfers;
    rs_flushes = f.f_rs_flushes;
    rs_flush_rate = ratio f.f_rs_flushes m.other_xfers;
    bank_overflows = f.f_bank_overflows;
    bank_overflow_rate = ratio f.f_bank_overflows m.calls;
    frame_peak_words = av.peak_live_words;
    lifo_reserved_words = lifo_reserved;
    footprint_ratio = ratio av.peak_live_words lifo_reserved;
  }

let report_lines r =
  [
    Printf.sprintf "sessions forked=%d ended=%d peak-live=%d" r.forked r.ended
      r.peak_live;
    Printf.sprintf "slices=%d preemptions=%d switch-xfers=%d" r.slices
      r.preemptions r.switch_xfers;
    Printf.sprintf "rs-flushes=%d (%.4f/xfer) bank-overflows=%d (%.4f/call)"
      r.rs_flushes r.rs_flush_rate r.bank_overflows r.bank_overflow_rate;
    Printf.sprintf "frame-peak=%dw lifo-reserved=%dw ratio=%.4f"
      r.frame_peak_words r.lifo_reserved_words r.footprint_ratio;
  ]
