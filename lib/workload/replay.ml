open Fpc_machine
open Fpc_frames

(* A round-robin set of [coroutines] activities, each owning a stack of
   frames.  Root frames are never popped, so every activity always has a
   current context. *)
type 'f activities = {
  mutable ring : 'f list list; (* head = current activity's stack, top first *)
}

let coroutines = 4

let current acts =
  match acts.ring with
  | (top :: _) :: _ -> top
  | _ -> invalid_arg "Replay: empty activity"

let push_frame acts f =
  match acts.ring with
  | stack :: rest -> acts.ring <- (f :: stack) :: rest
  | [] -> acts.ring <- [ [ f ] ]

let pop_frame acts =
  match acts.ring with
  | (top :: (_ :: _ as stack)) :: rest ->
    acts.ring <- stack :: rest;
    Some top
  | _ -> None (* keep the root frame *)

(* Rotate to the next activity, creating a fresh one (via [spawn]) until
   [coroutines] activities exist. *)
let rotate acts ~spawn =
  let n = List.length acts.ring in
  if n < coroutines then acts.ring <- [ spawn () ] :: acts.ring
  else
    match acts.ring with
    | first :: rest -> acts.ring <- rest @ [ first ]
    | [] -> ()

(* A recycling frame arena over simulated memory: quad-aligned blocks with
   a valid fsi word, so Bank_file.ensure_bank can size its shadow. *)
type arena = {
  mem : Memory.t;
  ladder : Size_class.t;
  mutable bump : int;
  free : (int, int list ref) Hashtbl.t; (* fsi -> free lfs *)
}

let make_arena ~mem ~ladder ~base = { mem; ladder; bump = base; free = Hashtbl.create 8 }

let arena_alloc a ~payload =
  let fsi =
    match Size_class.index_for_block a.ladder (Frame.block_words_for_locals payload) with
    | Some fsi -> fsi
    | None -> Size_class.class_count a.ladder - 1
  in
  match Hashtbl.find_opt a.free fsi with
  | Some ({ contents = lf :: rest } as cell) ->
    cell := rest;
    lf
  | Some _ | None ->
    let words = Size_class.block_words a.ladder fsi in
    let block = a.bump in
    if block + words > Memory.size a.mem then invalid_arg "Replay: arena exhausted";
    a.bump <- block + words;
    Memory.poke a.mem block fsi;
    Frame.lf_of_block block

let arena_free a ~lf =
  let fsi = Memory.peek a.mem (Frame.block_of_lf lf) in
  match Hashtbl.find_opt a.free fsi with
  | Some cell -> cell := lf :: !cell
  | None -> Hashtbl.add a.free fsi (ref [ lf ])

(* ------------------------------------------------------------------ *)

type bank_result = { bk_stats : Fpc_regbank.Bank_file.stats; bk_rate : float }

let replay_banks ~banks events =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let ladder = Size_class.default in
  let arena = make_arena ~mem ~ladder ~base:1024 in
  let config = { Fpc_regbank.Bank_file.default_config with bank_count = banks } in
  let bf = Fpc_regbank.Bank_file.create ~config ~mem ~cost ~ladder () in
  let spawn () =
    let lf = arena_alloc arena ~payload:8 in
    (lf, 8)
  in
  let acts = { ring = [ [ spawn () ] ] } in
  Fpc_regbank.Bank_file.ensure_bank bf ~lf:(fst (current acts));
  List.iter
    (fun (e : Synthetic.event) ->
      match e with
      | Synthetic.Call payload ->
        let lf = arena_alloc arena ~payload in
        Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:payload
          ~args:[||];
        push_frame acts (lf, payload)
      | Synthetic.Return -> (
        match pop_frame acts with
        | None -> ()
        | Some (lf, _) ->
          Fpc_regbank.Bank_file.release_frame bf ~lf;
          arena_free arena ~lf;
          Fpc_regbank.Bank_file.ensure_bank bf ~lf:(fst (current acts)))
      | Synthetic.Coroutine_switch ->
        Fpc_regbank.Bank_file.on_leave bf ~lf:(fst (current acts));
        rotate acts ~spawn;
        Fpc_regbank.Bank_file.ensure_bank bf ~lf:(fst (current acts))
      | Synthetic.Process_switch ->
        Fpc_regbank.Bank_file.flush_all bf;
        rotate acts ~spawn;
        Fpc_regbank.Bank_file.ensure_bank bf ~lf:(fst (current acts)))
    events;
  let stats = Fpc_regbank.Bank_file.stats bf in
  let rate =
    if stats.xfers = 0 then 0.0
    else
      float_of_int (stats.overflows + stats.underflows) /. float_of_int stats.xfers
  in
  { bk_stats = stats; bk_rate = rate }

(* ------------------------------------------------------------------ *)

type return_stack_result = {
  rs_fast_returns : int;
  rs_slow_returns : int;
  rs_flushes : int;
  rs_flushed_entries : int;
  rs_fast_fraction : float;
}

let replay_return_stack ~depth events =
  let open Fpc_ifu in
  let rs = Return_stack.create ~depth in
  let dummy =
    {
      Return_stack.r_lf = 4;
      r_gf = 0;
      r_cb = Return_stack.no_cb;
      r_pc_abs = 0;
      r_bank = Return_stack.no_bank;
    }
  in
  let flush () = Return_stack.flushed rs in
  let make_room () = ignore (Return_stack.drop_oldest rs) in
  (* Depth bookkeeping per activity so a Return beyond an activity's root
     is ignored, mirroring the other replayers. *)
  let acts = { ring = [ [ 0 ] ] } in
  List.iter
    (fun (e : Synthetic.event) ->
      match e with
      | Synthetic.Call _ ->
        if Return_stack.is_full rs then make_room ();
        Return_stack.push_entry rs dummy;
        push_frame acts 0
      | Synthetic.Return -> (
        match pop_frame acts with
        | None -> ()
        | Some _ -> ignore (Return_stack.pop rs))
      | Synthetic.Coroutine_switch | Synthetic.Process_switch ->
        flush ();
        rotate acts ~spawn:(fun () -> 0))
    events;
  let fast = Return_stack.fast_pops rs in
  let slow = Return_stack.empty_pops rs in
  {
    rs_fast_returns = fast;
    rs_slow_returns = slow;
    rs_flushes = Return_stack.flushes rs;
    rs_flushed_entries = Return_stack.flushed_entries rs;
    rs_fast_fraction =
      (if fast + slow = 0 then 1.0 else float_of_int fast /. float_of_int (fast + slow));
  }

(* ------------------------------------------------------------------ *)

type alloc_result = {
  al_stats : Alloc_vector.stats;
  al_fragmentation : float;
  al_mem_refs_per_alloc : float;
  al_mem_refs_per_free : float;
}

let replay_allocator ?(ladder = Size_class.default) events =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 18) () in
  let av_base = 16 in
  let heap_base = 1024 in
  let allocator =
    Alloc_vector.create ~mem ~ladder ~av_base ~heap_base ~heap_limit:(1 lsl 18) ()
  in
  let alloc payload = Alloc_vector.alloc_words allocator ~cost ~body_words:payload in
  let spawn () = alloc 8 in
  let acts = { ring = [ [ spawn () ] ] } in
  let allocs = ref 1 and frees = ref 0 in
  let alloc_reads = ref 0 and free_reads = ref 0 in
  List.iter
    (fun (e : Synthetic.event) ->
      match e with
      | Synthetic.Call payload ->
        let before = Cost.mem_refs cost in
        let lf = alloc (min payload (Size_class.max_block_words ladder - 8)) in
        alloc_reads := !alloc_reads + (Cost.mem_refs cost - before);
        incr allocs;
        push_frame acts lf
      | Synthetic.Return -> (
        match pop_frame acts with
        | None -> ()
        | Some lf ->
          let before = Cost.mem_refs cost in
          Alloc_vector.free allocator ~cost ~lf;
          free_reads := !free_reads + (Cost.mem_refs cost - before);
          incr frees)
      | Synthetic.Coroutine_switch | Synthetic.Process_switch ->
        rotate acts ~spawn)
    events;
  let stats = Alloc_vector.stats allocator in
  {
    al_stats = stats;
    al_fragmentation = Alloc_vector.internal_fragmentation allocator;
    al_mem_refs_per_alloc =
      (if !allocs = 0 then 0.0 else float_of_int !alloc_reads /. float_of_int !allocs);
    al_mem_refs_per_free =
      (if !frees = 0 then 0.0 else float_of_int !free_reads /. float_of_int !frees);
  }
