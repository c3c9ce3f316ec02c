(** E6 — §7.1 and Figure 3: register-bank overflow/underflow rates.

    "Fragmentary Mesa statistics indicate that with 4 banks it happens on
    less than 5% of XFERs; and [Patterson] reports that with 4-8 banks the
    rate is less than 1%.  Intuitively, this means that long runs of calls
    nearly uninterrupted by returns, or vice versa, are quite rare."

    Three views: the rate vs bank count on synthetic traces and on the
    real compiled suite; the rate vs run-bias (manufacturing exactly the
    long runs the paper calls rare); and Figure 3's worked example of
    bank assignment. *)

open Fpc_util

let synthetic_table () =
  let trace = Fpc_workload.Synthetic.generate ~seed:7 ~length:120_000 () in
  let t =
    Tablefmt.create ~title:"Over/underflow rate vs bank count (synthetic trace)"
      ~columns:
        [
          ("banks", Tablefmt.Right);
          ("overflows", Tablefmt.Right);
          ("underflows", Tablefmt.Right);
          ("rate per XFER", Tablefmt.Right);
        ]
  in
  let rates = ref [] in
  List.iter
    (fun banks ->
      let r = Fpc_workload.Replay.replay_banks ~banks trace in
      rates := (banks, r.bk_rate) :: !rates;
      Tablefmt.add_row t
        [
          Tablefmt.cell_int banks;
          Tablefmt.cell_int r.bk_stats.overflows;
          Tablefmt.cell_int r.bk_stats.underflows;
          Tablefmt.cell_pct r.bk_rate;
        ])
    [ 2; 3; 4; 6; 8; 12; 16 ];
  (t, !rates)

let runs_table () =
  let t =
    Tablefmt.create
      ~title:"Rate at 4 banks vs run bias (long call runs made common)"
      ~columns:[ ("run bias", Tablefmt.Right); ("rate per XFER", Tablefmt.Right) ]
  in
  List.iter
    (fun bias ->
      let profile = { Fpc_workload.Synthetic.default_profile with run_bias = bias } in
      let trace = Fpc_workload.Synthetic.generate ~seed:11 ~profile ~length:120_000 () in
      let r = Fpc_workload.Replay.replay_banks ~banks:4 trace in
      Tablefmt.add_row t
        [ Printf.sprintf "%.2f" bias; Tablefmt.cell_pct r.bk_rate ])
    [ 0.0; 0.3; 0.6; 0.9 ];
  Tablefmt.add_note t
    "the scheme works because real programs have low run bias \xE2\x80\x94 long \
     uninterrupted runs of calls or returns are rare";
  t

let programs_table () =
  let t =
    Tablefmt.create ~title:"Rate on the compiled suite (engine I4)"
      ~columns:
        [
          ("program", Tablefmt.Left);
          ("banks", Tablefmt.Right);
          ("XFER events", Tablefmt.Right);
          ("rate per XFER", Tablefmt.Right);
        ]
  in
  let rate4 = ref [] in
  List.iter
    (fun program ->
      List.iter
        (fun banks ->
          let config =
            { Fpc_regbank.Bank_file.default_config with bank_count = banks }
          in
          let engine = Fpc_core.Engine.i4 ~bank_config:config () in
          let st = Harness.run_one ~engine ~program () in
          match st.Fpc_core.State.banks with
          | None -> ()
          | Some bf ->
            let s = Fpc_regbank.Bank_file.stats bf in
            let rate = Harness.ratio (s.overflows + s.underflows) s.xfers in
            if banks = 4 then rate4 := rate :: !rate4;
            Tablefmt.add_row t
              [
                program;
                Tablefmt.cell_int banks;
                Tablefmt.cell_int s.xfers;
                Tablefmt.cell_pct rate;
              ])
        [ 2; 4; 8 ])
    [ "fib"; "callchain"; "leafcalls"; "isort"; "mixed" ];
  let mean =
    match !rate4 with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  (t, mean)

(* Same-direction runs over a stream of calls (+1) and returns (-1).  A
   run is counted when the direction turns; [finish] counts the run still
   open when the stream ends and returns the histogram. *)
let run_fold () =
  let runs = Histogram.create () and dir = ref 0 and len = ref 0 in
  let step d =
    if d = !dir then incr len
    else begin
      if !len > 0 then Histogram.add runs !len;
      dir := d;
      len := 1
    end
  in
  let finish () =
    if !len > 0 then Histogram.add runs !len;
    runs
  in
  (step, finish)

(* A suite program's statistics, from its XFER event stream: every call
   and return event carries the call depth after it.  Unlike
   {!Fpc_trace.Profile}'s histogram, which counts calls only, the depth
   is sampled at returns too. *)
let machine_locality program =
  let engine = Fpc_core.Engine.i2 in
  let depth = Histogram.create () in
  let step, finish = run_fold () in
  let sink = Fpc_trace.Sink.create ~capacity:1 ~engine:(Fpc_core.Engine.name engine) () in
  Fpc_trace.Sink.set_listener sink
    (Some
       (fun (e : Fpc_trace.Event.t) ->
         match e.kind with
         | Call ->
           Histogram.add depth e.depth;
           step 1
         | Return ->
           Histogram.add depth e.depth;
           step (-1)
         | _ -> ()));
  ignore (Harness.run_one ~engine ~tracer:sink ~program ());
  (depth, finish ())

let synthetic_locality () =
  let trace = Fpc_workload.Synthetic.generate ~seed:7 ~length:120_000 () in
  let step, finish = run_fold () in
  List.iter
    (function
      | Fpc_workload.Synthetic.Call _ -> step 1
      | Fpc_workload.Synthetic.Return -> step (-1)
      | Fpc_workload.Synthetic.Coroutine_switch | Fpc_workload.Synthetic.Process_switch
        -> ())
    trace;
  (Fpc_workload.Synthetic.depth_profile trace, finish ())

(* The table's rows as printed: workload, depth p50 / p95 / max, run p95 /
   max and the share of runs of at most 4. *)
let locality_rows () =
  let row label (depth, runs) =
    if Histogram.count runs > 0 && Histogram.count depth > 0 then
      Some
        [
          label;
          Tablefmt.cell_int (Histogram.percentile depth 50.0);
          Tablefmt.cell_int (Histogram.percentile depth 95.0);
          Tablefmt.cell_int (Histogram.max_value depth);
          Tablefmt.cell_int (Histogram.percentile runs 95.0);
          Tablefmt.cell_int (Histogram.max_value runs);
          Tablefmt.cell_pct (Histogram.fraction_le runs 4);
        ]
    else None
  in
  List.filter_map
    (fun program -> row program (machine_locality program))
    Fpc_workload.Programs.sequential
  @ Option.to_list (row "synthetic (calibrated)" (synthetic_locality ()))

(* The paper's intuition, measured: "long runs of calls nearly
   uninterrupted by returns, or vice versa, are quite rare."  Run lengths
   and call-depth locality over the compiled suite (engine I2), with the
   calibrated synthetic trace for comparison. *)
let locality_table () =
  let t =
    Tablefmt.create ~title:"Transfer locality: depth and same-direction runs"
      ~columns:
        [
          ("workload", Tablefmt.Left);
          ("depth p50", Tablefmt.Right);
          ("depth p95", Tablefmt.Right);
          ("depth max", Tablefmt.Right);
          ("run p95", Tablefmt.Right);
          ("run max", Tablefmt.Right);
          ("runs <= 4", Tablefmt.Right);
        ]
  in
  List.iter (Tablefmt.add_row t) (locality_rows ());
  Tablefmt.add_note t
    "section 7.1's claim quantified: nearly all same-direction runs fit the bank window";
  t

(* Figure 3: the paper's worked sequence of bank assignments. *)
let figure () =
  let open Fpc_machine in
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let ladder = Fpc_frames.Size_class.default in
  let config = { Fpc_regbank.Bank_file.default_config with bank_count = 4 } in
  let bf = Fpc_regbank.Bank_file.create ~config ~mem ~cost ~ladder () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "== Figure 3: assignment of register banks ==\n";
  let bump = ref 4096 in
  let frames = Hashtbl.create 8 in
  let new_frame name =
    let block = !bump in
    bump := !bump + 16;
    Memory.poke mem block 2;
    let lf = Fpc_frames.Frame.lf_of_block block in
    Hashtbl.replace frames lf name;
    lf
  in
  let stack = ref [ new_frame "X" ] in
  Fpc_regbank.Bank_file.ensure_bank bf ~lf:(List.hd !stack);
  let show step =
    Buffer.add_string buf (Printf.sprintf "%-10s |" step);
    for id = 0 to 3 do
      let owner =
        Hashtbl.fold
          (fun lf name acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if Fpc_regbank.Bank_file.bank_id bf ~lf = Some id then Some name
              else None)
          frames None
      in
      let cell = match owner with Some n -> "L=F" ^ n | None -> "-" in
      Buffer.add_string buf (Printf.sprintf " bank%d:%-5s" id cell)
    done;
    Buffer.add_char buf '\n'
  in
  show "begin X";
  let call name =
    let lf = new_frame name in
    Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[||];
    stack := lf :: !stack;
    show ("call " ^ name)
  in
  let return () =
    match !stack with
    | top :: (next :: _ as rest) ->
      Fpc_regbank.Bank_file.release_frame bf ~lf:top;
      Hashtbl.remove frames top;
      stack := rest;
      Fpc_regbank.Bank_file.ensure_bank bf ~lf:next;
      show "return"
    | _ -> ()
  in
  call "A";
  return ();
  call "B";
  call "C";
  return ();
  call "D";
  return ();
  Buffer.add_string buf
    "(one bank always holds the evaluation stack; on each call it is \
     renamed to the callee's local bank, matching the paper's diagram)\n";
  Buffer.contents buf

let run () =
  let t1, rates = synthetic_table () in
  let t2 = runs_table () in
  let t3, program_rate4 = programs_table () in
  let t4 = locality_table () in
  {
    Exp.id = "E6";
    key = "bank_overflow";
    title = "Figure 3 and bank over/underflow rates";
    paper_claim =
      "<5% of XFERs over/underflow with 4 banks; <1% with 4-8 banks \
       (\xC2\xA77.1)";
    tables =
      [
        Tablefmt.render t1; Tablefmt.render t2; Tablefmt.render t3;
        Tablefmt.render t4; figure ();
      ];
    headlines =
      [
        ("synthetic_rate_4_banks", List.assoc 4 rates);
        ("synthetic_rate_8_banks", List.assoc 8 rates);
        ("program_mean_rate_4_banks", program_rate4);
      ];
  }
