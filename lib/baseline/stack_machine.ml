open Fpc_machine

type config = { saved_registers : int; linkage_words : int }

let default_config = { saved_registers = 4; linkage_words = 4 }

type activation = { a_base : int; a_words : int }

type t = {
  config : config;
  mem : Memory.t;
  stack_base : int;
  stack_limit : int;
  mutable sp : int;
  mutable frames : activation list;
  mutable calls : int;
  mutable high_water : int;
}

exception Stack_exhausted

let create ?(config = default_config) ~mem ~stack_base ~stack_limit () =
  if stack_limit > Memory.size mem then invalid_arg "Stack_machine.create: beyond memory";
  {
    config;
    mem;
    stack_base;
    stack_limit;
    sp = stack_base;
    frames = [];
    calls = 0;
    high_water = 0;
  }

let call t ~nargs ~locals_words =
  let pushed = nargs + t.config.linkage_words + t.config.saved_registers in
  let total = pushed + locals_words in
  if t.sp + total > t.stack_limit then raise Stack_exhausted;
  let base = t.sp in
  (* Every pushed word is a storage write: arguments, then PC/FP/AP/mask,
     then the callee's saved registers.  Locals are allocated but not
     initialised (SP bump only). *)
  for i = 0 to pushed - 1 do
    Memory.write t.mem (base + i) (i land 0xFFFF)
  done;
  t.sp <- base + total;
  t.frames <- { a_base = base; a_words = total } :: t.frames;
  t.calls <- t.calls + 1;
  t.high_water <- max t.high_water (t.sp - t.stack_base)

let return_ t =
  match t.frames with
  | [] -> invalid_arg "Stack_machine.return_: empty stack"
  | a :: rest ->
    (* Restore PC/FP/AP and the saved registers: storage reads. *)
    for i = 0 to t.config.linkage_words + t.config.saved_registers - 1 do
      ignore (Memory.read t.mem (a.a_base + i))
    done;
    t.sp <- a.a_base;
    t.frames <- rest

let depth t = List.length t.frames
let sp t = t.sp
let high_water t = t.high_water
let calls t = t.calls
