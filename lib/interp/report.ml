open Fpc_machine
open Fpc_util

let render (st : Fpc_core.State.t) =
  let m = st.metrics in
  let t =
    Tablefmt.create
      ~title:(Printf.sprintf "machine statistics (%s)" (Fpc_core.Engine.name st.engine))
      ~columns:[ ("statistic", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  let row k v = Tablefmt.add_row t [ k; v ] in
  row "instructions" (Tablefmt.cell_int m.instructions);
  row "cycles" (Tablefmt.cell_int (Cost.cycles st.cost));
  row "storage reads / writes"
    (Printf.sprintf "%d / %d" (Cost.mem_reads st.cost) (Cost.mem_writes st.cost));
  row "bank references" (Tablefmt.cell_int (Cost.bank_refs st.cost));
  row "calls / returns / other XFERs"
    (Printf.sprintf "%d / %d / %d" m.calls m.returns m.other_xfers);
  let transfers = m.fast_transfers + m.slow_transfers in
  if transfers > 0 then
    row "transfers at jump speed"
      (Printf.sprintf "%d/%d (%s)" m.fast_transfers transfers
         (Tablefmt.cell_pct (float_of_int m.fast_transfers /. float_of_int transfers)));
  if m.calls + m.returns > 0 then
    row "instructions per call-or-return"
      (Tablefmt.cell_float
         (float_of_int m.instructions /. float_of_int (m.calls + m.returns)));
  row "frame allocations / frees"
    (Printf.sprintf "%d / %d" m.frame_allocs m.frame_frees);
  if m.ff_hits + m.ff_misses > 0 then
    row "free-frame stack hits"
      (Printf.sprintf "%d/%d" m.ff_hits (m.ff_hits + m.ff_misses));
  row "local / global / pointer data refs"
    (Printf.sprintf "%d / %d / %d" m.local_refs m.global_refs m.indirect_refs);
  if m.arg_words_stored > 0 then
    row "argument words stored by prologues" (Tablefmt.cell_int m.arg_words_stored);
  if m.arg_words_renamed > 0 then
    row "argument words delivered by renaming" (Tablefmt.cell_int m.arg_words_renamed);
  (match st.rstack with
  | None -> ()
  | Some rs ->
    row "return stack fast pops / slow / spills / flushes"
      (Printf.sprintf "%d / %d / %d / %d"
         (Fpc_ifu.Return_stack.fast_pops rs)
         (Fpc_ifu.Return_stack.empty_pops rs)
         (Fpc_ifu.Return_stack.spills rs)
         (Fpc_ifu.Return_stack.flushes rs)));
  (match st.banks with
  | None -> ()
  | Some bf ->
    let s = Fpc_regbank.Bank_file.stats bf in
    row "bank overflows / underflows / xfers"
      (Printf.sprintf "%d / %d / %d" s.overflows s.underflows s.xfers);
    if s.diversions > 0 then row "pointer diversions" (Tablefmt.cell_int s.diversions);
    if s.flagged_flushes > 0 then
      row "flagged-frame flushes" (Tablefmt.cell_int s.flagged_flushes));
  Tablefmt.render t
