let overhead_words = 4
let off_fsi = -4
let off_pc = -3
let off_return_link = -2
let off_global_frame = -1
let lf_of_block block = block + overhead_words
let block_of_lf lf = lf - overhead_words
let block_words_for_locals n = overhead_words + n

open Fpc_machine

let write_pc mem ~lf v = Memory.write mem (lf + off_pc) v
let write_return_link mem ~lf v = Memory.write mem (lf + off_return_link) v
let write_global_frame mem ~lf v = Memory.write mem (lf + off_global_frame) v
let peek_fsi mem ~lf = Memory.peek mem (lf + off_fsi)
