exception Overflow
exception Underflow

type t = { data : int array; mutable depth : int }

let create ?(capacity = 16) () =
  if capacity <= 0 then invalid_arg "Eval_stack.create";
  { data = Array.make capacity 0; depth = 0 }

let capacity t = Array.length t.data
let depth t = t.depth

let[@inline] push t v =
  if t.depth >= Array.length t.data then raise Overflow;
  t.data.(t.depth) <- Fpc_util.Bits.to_word v;
  t.depth <- t.depth + 1

let[@inline] pop t =
  if t.depth = 0 then raise Underflow;
  t.depth <- t.depth - 1;
  t.data.(t.depth)

let[@inline] peek t =
  if t.depth = 0 then raise Underflow;
  t.data.(t.depth - 1)

(* The unchecked variants back the compiled tier's fused fast path, which
   proves [depth] bounds for a whole run of instructions before executing
   any of them; word truncation still applies so a value read back later
   is bit-identical to one that went through [push]. *)
let[@inline] unsafe_push t v =
  Array.unsafe_set t.data t.depth (Fpc_util.Bits.to_word v);
  t.depth <- t.depth + 1

let unsafe_pop t =
  t.depth <- t.depth - 1;
  Array.unsafe_get t.data t.depth

let clear t = t.depth <- 0
let contents t = Array.sub t.data 0 t.depth

let buffer t = t.data

let save t dst =
  Array.blit t.data 0 dst 0 t.depth;
  t.depth

let restore t src ~depth =
  if depth > Array.length t.data then raise Overflow;
  Array.blit src 0 t.data 0 depth;
  t.depth <- depth
