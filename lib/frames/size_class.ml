type t = { sizes : int array }

let round_up_quad n = (n + 3) land lnot 3

(* 16 bytes up to 4 KB, both already quad multiples *)
let min_words = 8
let max_words = 2048

let make ?(growth = 1.2) () =
  if growth <= 1.0 then invalid_arg "Size_class.make: growth must exceed 1";
  let rec build acc exact =
    let size = round_up_quad (int_of_float (ceil exact)) in
    let size = Int.max size (match acc with [] -> 0 | s :: _ -> s + 4) in
    if size >= max_words then List.rev (max_words :: acc)
    else build (size :: acc) (exact *. growth)
  in
  { sizes = Array.of_list (build [] (float_of_int min_words)) }

let default = make ()
let class_count t = Array.length t.sizes

(* On every frame allocation and free: inlined, range check included. *)
let[@inline] block_words t fsi =
  if fsi < 0 || fsi >= Array.length t.sizes then
    invalid_arg (Printf.sprintf "Size_class.block_words: index %d out of range" fsi);
  t.sizes.(fsi)

let index_for_block t words =
  let n = Array.length t.sizes in
  let rec find i =
    if i >= n then None else if t.sizes.(i) >= words then Some i else find (i + 1)
  in
  find 0

let sizes t = Array.copy t.sizes
let max_block_words t = t.sizes.(Array.length t.sizes - 1)
