(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let sorted_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest rank on a sorted array: the smallest sample with at least [p]
   percent of the samples at or below it. *)
let rank_of_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let percentile a p = rank_of_sorted (sorted_array a) p

let median_sorted a =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median xs = median_sorted (sorted xs)

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(values, n=4), so a spread computed here matches one
   computed from the same values there. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (cut 1, cut 3)

let ratio num den = if den = 0.0 then 0.0 else num /. den
let sum a = Array.fold_left ( +. ) 0.0 a
let mean xs = ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))

(* A growable float array: the request logs of a run reach a few hundred
   thousand entries, and a list would cost a cons cell per sample. *)
module Buf = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let total t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s
end
