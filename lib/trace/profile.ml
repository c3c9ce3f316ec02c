type row = {
  r_name : string;
  mutable r_calls : int;
  mutable r_fast : int;
  mutable r_slow : int;
  mutable r_excl_cycles : int;
  mutable r_incl_cycles : int;
  mutable r_excl_refs : int;
  mutable r_incl_refs : int;
}

type totals = {
  mutable t_cycles : int;
  mutable t_mem_refs : int;
  mutable t_calls : int;
  mutable t_returns : int;
  mutable t_other_xfers : int;
  mutable t_traps : int;
  mutable t_fast_transfers : int;
  mutable t_slow_transfers : int;
}

type fastpath = {
  mutable fp_rs_pushes : int;
  mutable fp_rs_hits : int;
  mutable fp_rs_flushes : int;
  mutable fp_rs_flushed_entries : int;
  mutable fp_rs_spills : int;
  mutable fp_bank_loads : int;
  mutable fp_bank_load_words : int;
  mutable fp_bank_spills : int;
  mutable fp_bank_spill_words : int;
  mutable fp_frame_allocs : int;
  mutable fp_ff_allocs : int;
  mutable fp_sw_allocs : int;
  mutable fp_frame_frees : int;
  mutable fp_ff_frees : int;
}

(* One open activation on the shadow stack.  [f_recursive] marks re-entry
   of a procedure already on the stack: its inclusive time is already
   covered by the outer activation, so the inner one must not add to it. *)
type frame = {
  f_id : int;
  f_start_cycles : int;
  f_start_refs : int;
  f_recursive : bool;
}

let outside_id = -2

type t = {
  procs : Procmap.t;
  engine : string;
  rows : (int, row) Hashtbl.t;
  mutable stack : frame list;
  mutable last_cycles : int;
  mutable last_refs : int;
  totals : totals;
  fastpath : fastpath;
  call_depths : Fpc_util.Histogram.t;  (* depth at each call event *)
  mutable events : int;
  mutable finished : bool;
}

let create ~procs ~engine =
  {
    procs;
    engine;
    rows = Hashtbl.create 64;
    stack = [];
    last_cycles = 0;
    last_refs = 0;
    totals =
      {
        t_cycles = 0;
        t_mem_refs = 0;
        t_calls = 0;
        t_returns = 0;
        t_other_xfers = 0;
        t_traps = 0;
        t_fast_transfers = 0;
        t_slow_transfers = 0;
      };
    fastpath =
      {
        fp_rs_pushes = 0;
        fp_rs_hits = 0;
        fp_rs_flushes = 0;
        fp_rs_flushed_entries = 0;
        fp_rs_spills = 0;
        fp_bank_loads = 0;
        fp_bank_load_words = 0;
        fp_bank_spills = 0;
        fp_bank_spill_words = 0;
        fp_frame_allocs = 0;
        fp_ff_allocs = 0;
        fp_sw_allocs = 0;
        fp_frame_frees = 0;
        fp_ff_frees = 0;
      };
    call_depths = Fpc_util.Histogram.create ();
    events = 0;
    finished = false;
  }

let row t id =
  match Hashtbl.find_opt t.rows id with
  | Some r -> r
  | None ->
    let r_name =
      if id = outside_id then "(outside)" else Procmap.name t.procs id
    in
    let r =
      {
        r_name;
        r_calls = 0;
        r_fast = 0;
        r_slow = 0;
        r_excl_cycles = 0;
        r_incl_cycles = 0;
        r_excl_refs = 0;
        r_incl_refs = 0;
      }
    in
    Hashtbl.add t.rows id r;
    r

let cur_id t = match t.stack with f :: _ -> f.f_id | [] -> outside_id

let add_excl t id cycles refs =
  if cycles <> 0 || refs <> 0 then begin
    let r = row t id in
    r.r_excl_cycles <- r.r_excl_cycles + cycles;
    r.r_excl_refs <- r.r_excl_refs + refs
  end

let push t id ~start_cycles ~start_refs =
  let f_recursive = List.exists (fun f -> f.f_id = id) t.stack in
  t.stack <-
    { f_id = id; f_start_cycles = start_cycles; f_start_refs = start_refs; f_recursive }
    :: t.stack

let close_frame t f ~cycles ~refs =
  if not f.f_recursive then begin
    let r = row t f.f_id in
    r.r_incl_cycles <- r.r_incl_cycles + max 0 (cycles - f.f_start_cycles);
    r.r_incl_refs <- r.r_incl_refs + max 0 (refs - f.f_start_refs)
  end

let pop t ~cycles ~refs =
  match t.stack with
  | [] -> None
  | f :: rest ->
    close_frame t f ~cycles ~refs;
    t.stack <- rest;
    Some f

let close_all t ~cycles ~refs =
  List.iter (fun f -> close_frame t f ~cycles ~refs) t.stack;
  t.stack <- []

let enter t ~target ~fast ~count ~start_cycles ~start_refs =
  let id = Procmap.id_of_pc t.procs target in
  push t id ~start_cycles ~start_refs;
  if count then begin
    let r = row t id in
    r.r_calls <- r.r_calls + 1;
    if fast then r.r_fast <- r.r_fast + 1 else r.r_slow <- r.r_slow + 1
  end

let classify t fast =
  if fast then t.totals.t_fast_transfers <- t.totals.t_fast_transfers + 1
  else t.totals.t_slow_transfers <- t.totals.t_slow_transfers + 1

let record t (e : Event.t) =
  t.events <- t.events + 1;
  (* Partition the meter movement since the previous event into the
     straight-line span before this operation and the operation itself.
     Sub-events emitted mid-operation can leave the watermark past the
     operation's nominal start, hence the clamp: whatever the span cannot
     absorb belongs to the operation. *)
  let until_c = e.cycles - e.d_cycles and until_r = e.mem_refs - e.d_mem_refs in
  let span_c = max 0 (until_c - t.last_cycles) in
  let op_c = e.cycles - t.last_cycles - span_c in
  let span_r = max 0 (until_r - t.last_refs) in
  let op_r = e.mem_refs - t.last_refs - span_r in
  add_excl t (cur_id t) span_c span_r;
  let start_cycles = t.last_cycles + span_c and start_refs = t.last_refs + span_r in
  (match e.kind with
  | Event.Begin ->
    (* Boot cost (frame allocation, argument setup) lands on the entry
       procedure. *)
    enter t ~target:e.target ~fast:e.fast ~count:true ~start_cycles ~start_refs;
    add_excl t (cur_id t) op_c op_r
  | Event.Call ->
    t.totals.t_calls <- t.totals.t_calls + 1;
    classify t e.fast;
    Fpc_util.Histogram.add t.call_depths e.depth;
    enter t ~target:e.target ~fast:e.fast ~count:true ~start_cycles ~start_refs;
    add_excl t (cur_id t) op_c op_r
  | Event.Return ->
    t.totals.t_returns <- t.totals.t_returns + 1;
    classify t e.fast;
    (match pop t ~cycles:e.cycles ~refs:e.mem_refs with
    | Some f -> add_excl t f.f_id op_c op_r
    | None ->
      (* Stack underflow: the profiler attached mid-run, or control
         escaped through a path it does not model.  Charge the transfer
         where we stand and re-sync on the destination. *)
      add_excl t (cur_id t) op_c op_r;
      if e.target >= 0 then
        push t (Procmap.id_of_pc t.procs e.target) ~start_cycles:e.cycles
          ~start_refs:e.mem_refs)
  | Event.Coroutine | Event.Switch ->
    t.totals.t_other_xfers <- t.totals.t_other_xfers + 1;
    (* The departing context's frames are closed: inclusive time measures
       presence on the running stack, and a suspended coroutine or
       descheduled process is not running. *)
    close_all t ~cycles:start_cycles ~refs:start_refs;
    if e.target >= 0 then
      enter t ~target:e.target ~fast:e.fast ~count:false ~start_cycles ~start_refs;
    add_excl t (cur_id t) op_c op_r
  | Event.Fork ->
    t.totals.t_other_xfers <- t.totals.t_other_xfers + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Trap _ ->
    t.totals.t_traps <- t.totals.t_traps + 1;
    (* A handled trap enters its handler like a call (the handler RETURNs
       through the normal path); an unhandled one ends the run. *)
    if e.target >= 0 then
      enter t ~target:e.target ~fast:false ~count:false ~start_cycles ~start_refs;
    add_excl t (cur_id t) op_c op_r
  | Event.Frame_alloc { via_ff; software; _ } ->
    t.fastpath.fp_frame_allocs <- t.fastpath.fp_frame_allocs + 1;
    if via_ff then t.fastpath.fp_ff_allocs <- t.fastpath.fp_ff_allocs + 1;
    if software then t.fastpath.fp_sw_allocs <- t.fastpath.fp_sw_allocs + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Frame_free { to_ff; _ } ->
    t.fastpath.fp_frame_frees <- t.fastpath.fp_frame_frees + 1;
    if to_ff then t.fastpath.fp_ff_frees <- t.fastpath.fp_ff_frees + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Rs_push ->
    t.fastpath.fp_rs_pushes <- t.fastpath.fp_rs_pushes + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Rs_hit ->
    t.fastpath.fp_rs_hits <- t.fastpath.fp_rs_hits + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Rs_flush n ->
    t.fastpath.fp_rs_flushes <- t.fastpath.fp_rs_flushes + 1;
    t.fastpath.fp_rs_flushed_entries <- t.fastpath.fp_rs_flushed_entries + n;
    add_excl t (cur_id t) op_c op_r
  | Event.Rs_spill ->
    t.fastpath.fp_rs_spills <- t.fastpath.fp_rs_spills + 1;
    add_excl t (cur_id t) op_c op_r
  | Event.Bank_load n ->
    t.fastpath.fp_bank_loads <- t.fastpath.fp_bank_loads + 1;
    t.fastpath.fp_bank_load_words <- t.fastpath.fp_bank_load_words + n;
    add_excl t (cur_id t) op_c op_r
  | Event.Bank_spill n ->
    t.fastpath.fp_bank_spills <- t.fastpath.fp_bank_spills + 1;
    t.fastpath.fp_bank_spill_words <- t.fastpath.fp_bank_spill_words + n;
    add_excl t (cur_id t) op_c op_r);
  t.last_cycles <- e.cycles;
  t.last_refs <- e.mem_refs

let finish t ~cycles ~mem_refs =
  if not t.finished then begin
    t.finished <- true;
    add_excl t (cur_id t) (max 0 (cycles - t.last_cycles))
      (max 0 (mem_refs - t.last_refs));
    t.last_cycles <- max t.last_cycles cycles;
    t.last_refs <- max t.last_refs mem_refs;
    close_all t ~cycles:t.last_cycles ~refs:t.last_refs;
    t.totals.t_cycles <- t.last_cycles;
    t.totals.t_mem_refs <- t.last_refs
  end;
  t

let totals t = t.totals
let fastpath t = t.fastpath

let rows t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rows []
  |> List.sort (fun a b ->
         match compare b.r_excl_cycles a.r_excl_cycles with
         | 0 -> compare a.r_name b.r_name
         | c -> c)

type proc_stat = {
  ps_name : string;
  ps_calls : int;
  ps_fast : int;
  ps_slow : int;
  ps_excl_cycles : int;
  ps_incl_cycles : int;
  ps_excl_refs : int;
  ps_incl_refs : int;
}

type summary = {
  s_engine : string;
  s_cycles : int;
  s_mem_refs : int;
  s_calls : int;
  s_returns : int;
  s_other_xfers : int;
  s_traps : int;
  s_fast_transfers : int;
  s_slow_transfers : int;
  s_events : int;
  s_procs : proc_stat list;
  s_depth_max : int;
  s_depth_mean : float;
}

let summary t =
  {
    s_engine = t.engine;
    s_cycles = t.totals.t_cycles;
    s_mem_refs = t.totals.t_mem_refs;
    s_calls = t.totals.t_calls;
    s_returns = t.totals.t_returns;
    s_other_xfers = t.totals.t_other_xfers;
    s_traps = t.totals.t_traps;
    s_fast_transfers = t.totals.t_fast_transfers;
    s_slow_transfers = t.totals.t_slow_transfers;
    s_events = t.events;
    s_procs =
      List.map
        (fun r ->
          {
            ps_name = r.r_name;
            ps_calls = r.r_calls;
            ps_fast = r.r_fast;
            ps_slow = r.r_slow;
            ps_excl_cycles = r.r_excl_cycles;
            ps_incl_cycles = r.r_incl_cycles;
            ps_excl_refs = r.r_excl_refs;
            ps_incl_refs = r.r_incl_refs;
          })
        (rows t);
    s_depth_max =
      (if Fpc_util.Histogram.count t.call_depths = 0 then 0
       else Fpc_util.Histogram.max_value t.call_depths);
    s_depth_mean = Fpc_util.Histogram.mean t.call_depths;
  }

let summary_to_json s =
  let open Fpc_util.Jsonout in
  Obj
    [
      ("engine", String s.s_engine);
      ("cycles", Int s.s_cycles);
      ("mem_refs", Int s.s_mem_refs);
      ("calls", Int s.s_calls);
      ("returns", Int s.s_returns);
      ("other_xfers", Int s.s_other_xfers);
      ("traps", Int s.s_traps);
      ("fast_transfers", Int s.s_fast_transfers);
      ("slow_transfers", Int s.s_slow_transfers);
      ("events", Int s.s_events);
      ("depth_max", Int s.s_depth_max);
      ("depth_mean", Float s.s_depth_mean);
      ( "procs",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("name", String p.ps_name);
                   ("calls", Int p.ps_calls);
                   ("fast", Int p.ps_fast);
                   ("slow", Int p.ps_slow);
                   ("excl_cycles", Int p.ps_excl_cycles);
                   ("incl_cycles", Int p.ps_incl_cycles);
                   ("excl_refs", Int p.ps_excl_refs);
                   ("incl_refs", Int p.ps_incl_refs);
                 ])
             s.s_procs) );
    ]

let render ?dropped t =
  let open Fpc_util.Tablefmt in
  let tot = t.totals in
  let fp = t.fastpath in
  let table =
    create
      ~title:(Printf.sprintf "profile (%s)" t.engine)
      ~columns:
        [
          ("procedure", Left);
          ("calls", Right);
          ("excl cycles", Right);
          ("%", Right);
          ("incl cycles", Right);
          ("excl refs", Right);
          ("incl refs", Right);
          ("fast", Right);
        ]
  in
  List.iter
    (fun r ->
      let pct =
        if tot.t_cycles = 0 then 0.
        else float_of_int r.r_excl_cycles /. float_of_int tot.t_cycles
      in
      let fast =
        if r.r_calls = 0 then "-"
        else cell_pct (float_of_int r.r_fast /. float_of_int r.r_calls)
      in
      add_row table
        [
          r.r_name;
          cell_int r.r_calls;
          cell_int r.r_excl_cycles;
          cell_pct pct;
          cell_int r.r_incl_cycles;
          cell_int r.r_excl_refs;
          cell_int r.r_incl_refs;
          fast;
        ])
    (rows t);
  add_note table
    (Printf.sprintf "totals: %d cycles, %d storage refs, %d calls, %d returns, %d other xfers, %d traps"
       tot.t_cycles tot.t_mem_refs tot.t_calls tot.t_returns tot.t_other_xfers
       tot.t_traps);
  let transfers = tot.t_fast_transfers + tot.t_slow_transfers in
  if transfers > 0 then
    add_note table
      (Printf.sprintf "fast path: %d/%d call+return transfers with no storage reference (%s)"
         tot.t_fast_transfers transfers
         (cell_pct (float_of_int tot.t_fast_transfers /. float_of_int transfers)));
  add_note table
    (Printf.sprintf
       "return stack: %d pushes, %d hits, %d flushes (%d entries), %d spills"
       fp.fp_rs_pushes fp.fp_rs_hits fp.fp_rs_flushes fp.fp_rs_flushed_entries
       fp.fp_rs_spills);
  add_note table
    (Printf.sprintf "banks: %d loads (%d words), %d spills (%d words)"
       fp.fp_bank_loads fp.fp_bank_load_words fp.fp_bank_spills
       fp.fp_bank_spill_words);
  add_note table
    (Printf.sprintf
       "frames: %d allocs (%d via free-frame stack, %d software), %d frees (%d to free-frame stack)"
       fp.fp_frame_allocs fp.fp_ff_allocs fp.fp_sw_allocs fp.fp_frame_frees
       fp.fp_ff_frees);
  (if Fpc_util.Histogram.count t.call_depths > 0 then
     let h = t.call_depths in
     add_note table
       (Printf.sprintf "call depth: mean %.1f, p50 %d, p90 %d, max %d"
          (Fpc_util.Histogram.mean h)
          (Fpc_util.Histogram.percentile h 50.)
          (Fpc_util.Histogram.percentile h 90.)
          (Fpc_util.Histogram.max_value h)));
  (match dropped with
  | Some n when n > 0 ->
    add_note table
      (Printf.sprintf
         "warning: ring dropped %d events (profile is still exact; exports cover the tail only)"
         n)
  | _ -> ());
  Fpc_util.Tablefmt.render table
