(* Small non-negative values (call depths, run lengths, frame sizes) are
   counted in a dense array; everything else falls back to a hashtable of
   refs.  [add] on the dense path touches no allocator, so a trace
   listener can count every transfer event without allocating. *)

let dense_limit = 256

type t = {
  dense : int array; (* counts for values 0 .. dense_limit-1 *)
  sparse : (int, int ref) Hashtbl.t; (* everything else *)
  mutable count : int;
  mutable total : int;
}

let create () =
  { dense = Array.make dense_limit 0; sparse = Hashtbl.create 16; count = 0; total = 0 }

let add_many t v ~count =
  if count < 0 then invalid_arg "Histogram.add_many: negative count";
  (* Zero observations leave no trace: a sparse entry of count 0 would
     show in [to_sorted_list] and [min_value]/[max_value]. *)
  if count > 0 then begin
    if v >= 0 && v < dense_limit then t.dense.(v) <- t.dense.(v) + count
    else begin
      match Hashtbl.find_opt t.sparse v with
      | Some r -> r := !r + count
      | None -> Hashtbl.add t.sparse v (ref count)
    end;
    t.count <- t.count + count;
    t.total <- t.total + (v * count)
  end

(* Inlined into per-event listeners; the sparse fallback stays one
   out-of-line call. *)
let[@inline] add t v =
  if v >= 0 && v < dense_limit then begin
    t.dense.(v) <- t.dense.(v) + 1;
    t.count <- t.count + 1;
    t.total <- t.total + v
  end
  else add_many t v ~count:1

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let to_sorted_list t =
  let sparse = Hashtbl.fold (fun v r acc -> (v, !r) :: acc) t.sparse [] in
  let dense = ref [] in
  for v = dense_limit - 1 downto 0 do
    if t.dense.(v) > 0 then dense := (v, t.dense.(v)) :: !dense
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) (List.rev_append !dense sparse)

let min_value t =
  match to_sorted_list t with
  | [] -> invalid_arg "Histogram.min_value: empty"
  | (v, _) :: _ -> v

let max_value t =
  match List.rev (to_sorted_list t) with
  | [] -> invalid_arg "Histogram.max_value: empty"
  | (v, _) :: _ -> v

let percentile t p =
  if t.count = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: bad p";
  let threshold = p /. 100.0 *. float_of_int t.count in
  let rec scan seen = function
    | [] -> max_value t
    | (v, c) :: rest ->
      let seen = seen + c in
      if float_of_int seen >= threshold then v else scan seen rest
  in
  scan 0 (to_sorted_list t)

let fraction_le t v =
  if t.count = 0 then 0.0
  else begin
    let seen = ref 0 in
    for value = 0 to Int.min (dense_limit - 1) v do
      seen := !seen + t.dense.(value)
    done;
    Hashtbl.iter (fun value r -> if value <= v then seen := !seen + !r) t.sparse;
    float_of_int !seen /. float_of_int t.count
  end

