type t = Nil | Frame of int | Proc of { gfi : int; ev : int }

let max_gfi = 1023
let max_ev = 31

let pack = function
  | Nil -> 0
  | Frame lf ->
    if lf <= 0 || lf land 3 <> 0 || lf > 0xFFFF then
      invalid_arg (Printf.sprintf "Descriptor.pack: bad frame address %d" lf);
    lf
  | Proc { gfi; ev } ->
    if gfi < 1 || gfi > max_gfi then
      invalid_arg (Printf.sprintf "Descriptor.pack: gfi %d out of range" gfi);
    if ev < 0 || ev > max_ev then
      invalid_arg (Printf.sprintf "Descriptor.pack: ev %d out of range" ev);
    (gfi lsl 6) lor (ev lsl 1) lor 1

let unpack w =
  if w = 0 then Nil
  else if w land 1 = 1 then Proc { gfi = (w lsr 6) land 0x3FF; ev = (w lsr 1) land 0x1F }
  else if w land 3 = 0 then Frame w
  else invalid_arg (Printf.sprintf "Descriptor.unpack: malformed context word 0x%04X" w)

(* Packed-word accessors for the transfer hot path: classify and split a
   context word without materialising the variant (whose [Proc]/[Frame]
   blocks would be a per-call allocation). *)
let word_nil = 0
let word_proc = 1
let word_frame = 2
let word_malformed = -1

let word_kind w =
  if w = 0 then word_nil
  else if w land 1 = 1 then word_proc
  else if w land 3 = 0 then word_frame
  else word_malformed

let word_gfi w = (w lsr 6) land 0x3FF
let word_ev w = (w lsr 1) land 0x1F
let equal a b = a = b

let to_string = function
  | Nil -> "NIL"
  | Frame lf -> Printf.sprintf "Frame@%d" lf
  | Proc { gfi; ev } -> Printf.sprintf "Proc{gfi=%d, ev=%d}" gfi ev
