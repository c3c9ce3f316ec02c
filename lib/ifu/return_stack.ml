type entry = {
  mutable r_lf : int;
  mutable r_gf : int;
  mutable r_cb : int;
  mutable r_pc_abs : int;
  mutable r_bank : int;
}

let no_cb = -1
let no_bank = -1

(* Slots are preallocated records rewritten in place: a push/pop pair on
   the hot transfer path touches the OCaml allocator not at all.  A slot
   returned by [popped]/[drop_oldest_slot] stays valid until the next
   push reuses it. *)
type t = {
  entries : entry array;
  mutable top : int;
  mutable pushes : int;
  mutable fast_pops : int;
  mutable empty_pops : int;
  mutable flushes : int;
  mutable flushed_entries : int;
  mutable spills : int;
  mutable on_event : (Fpc_trace.Event.kind -> unit) option;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Return_stack.create: depth must be positive";
  {
    entries =
      Array.init depth (fun _ ->
          { r_lf = 0; r_gf = 0; r_cb = no_cb; r_pc_abs = 0; r_bank = no_bank });
    top = 0;
    pushes = 0;
    fast_pops = 0;
    empty_pops = 0;
    flushes = 0;
    flushed_entries = 0;
    spills = 0;
    on_event = None;
  }

let set_on_event t f = t.on_event <- f
let[@inline] fire t k = match t.on_event with Some f -> f k | None -> ()

let depth t = Array.length t.entries
let length t = t.top
let is_empty t = t.top = 0
let is_full t = t.top = Array.length t.entries

let reset t =
  t.top <- 0;
  t.pushes <- 0;
  t.fast_pops <- 0;
  t.empty_pops <- 0;
  t.flushes <- 0;
  t.flushed_entries <- 0;
  t.spills <- 0

let[@inline] push t ~lf ~gf ~cb ~pc_abs ~bank =
  if is_full t then invalid_arg "Return_stack.push: full (flush first)";
  let e = t.entries.(t.top) in
  e.r_lf <- lf;
  e.r_gf <- gf;
  e.r_cb <- cb;
  e.r_pc_abs <- pc_abs;
  e.r_bank <- bank;
  t.top <- t.top + 1;
  t.pushes <- t.pushes + 1;
  fire t Fpc_trace.Event.Rs_push

let push_entry t e = push t ~lf:e.r_lf ~gf:e.r_gf ~cb:e.r_cb ~pc_abs:e.r_pc_abs ~bank:e.r_bank

let[@inline] try_pop t =
  if t.top = 0 then begin
    t.empty_pops <- t.empty_pops + 1;
    false
  end
  else begin
    t.top <- t.top - 1;
    t.fast_pops <- t.fast_pops + 1;
    fire t Fpc_trace.Event.Rs_hit;
    true
  end

let popped t = t.entries.(t.top)
let pop t = if try_pop t then Some (popped t) else None
let peek t = if t.top = 0 then None else Some t.entries.(t.top - 1)

let copy_entry e =
  { r_lf = e.r_lf; r_gf = e.r_gf; r_cb = e.r_cb; r_pc_abs = e.r_pc_abs; r_bank = e.r_bank }

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (copy_entry t.entries.(i) :: acc) in
  go (t.top - 1) []

let second_oldest_slot t =
  if t.top < 2 then invalid_arg "Return_stack.second_oldest_slot: fewer than 2 entries";
  t.entries.(1)

let second_oldest t = if t.top < 2 then None else Some t.entries.(1)

(* Rotate the bottom record to just above the new top: it stays valid for
   the caller's deferred stores until the next push rewrites it. *)
let drop_oldest_slot t =
  let e = t.entries.(0) in
  for i = 0 to t.top - 2 do
    t.entries.(i) <- t.entries.(i + 1)
  done;
  t.top <- t.top - 1;
  t.entries.(t.top) <- e;
  t.spills <- t.spills + 1;
  fire t Fpc_trace.Event.Rs_spill;
  e

let drop_oldest t = if t.top = 0 then None else Some (drop_oldest_slot t)

let slot t i =
  if i < 0 || i >= t.top then invalid_arg "Return_stack.slot: no such entry";
  t.entries.(i)

let flushed t =
  if t.top > 0 then begin
    let n = t.top in
    t.flushes <- t.flushes + 1;
    t.flushed_entries <- t.flushed_entries + n;
    t.top <- 0;
    match t.on_event with
    | Some f -> f (Fpc_trace.Event.Rs_flush n)
    | None -> ()
  end

let pushes t = t.pushes
let fast_pops t = t.fast_pops
let empty_pops t = t.empty_pops
let flushes t = t.flushes
let flushed_entries t = t.flushed_entries
let spills t = t.spills
