let[@inline] mask width =
  if width < 0 || width > 62 then invalid_arg "Bits.mask";
  (1 lsl width) - 1

let get ~word ~pos ~width = (word lsr pos) land mask width

let fits ~width v = v >= 0 && v land lnot (mask width) = 0

let set ~word ~pos ~width v =
  if not (fits ~width v) then
    invalid_arg
      (Printf.sprintf "Bits.set: value %d does not fit in %d bits" v width);
  word land lnot (mask width lsl pos) lor (v lsl pos)

let[@inline] signed_of_unsigned ~width v =
  let v = v land mask width in
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

let unsigned_of_signed ~width v =
  let lo = -(1 lsl (width - 1)) and hi = (1 lsl (width - 1)) - 1 in
  if v < lo || v > hi then
    invalid_arg
      (Printf.sprintf "Bits.unsigned_of_signed: %d out of %d-bit range" v width);
  v land mask width

let word_mask = 0xFFFF
let[@inline] to_word v = v land word_mask
let byte_high w = (w lsr 8) land 0xFF
let byte_low w = w land 0xFF
let word_of_bytes ~high ~low = ((high land 0xFF) lsl 8) lor (low land 0xFF)
