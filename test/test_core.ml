(* Tests for the core transfer machinery: evaluation stack, return stack,
   bank file, simple links, engines. *)

open Fpc_machine

let qtest = QCheck_alcotest.to_alcotest

(* ---- Eval_stack ---- *)

let test_eval_stack_basic () =
  let s = Fpc_core.Eval_stack.create ~capacity:4 () in
  Fpc_core.Eval_stack.push s 1;
  Fpc_core.Eval_stack.push s 2;
  Alcotest.(check int) "peek" 2 (Fpc_core.Eval_stack.peek s);
  Alcotest.(check int) "pop" 2 (Fpc_core.Eval_stack.pop s);
  Alcotest.(check int) "depth" 1 (Fpc_core.Eval_stack.depth s);
  Alcotest.(check (array int)) "contents bottom-first" [| 1 |]
    (Fpc_core.Eval_stack.contents s)

let test_eval_stack_limits () =
  let s = Fpc_core.Eval_stack.create ~capacity:2 () in
  Fpc_core.Eval_stack.push s 1;
  Fpc_core.Eval_stack.push s 2;
  Alcotest.check_raises "overflow" Fpc_core.Eval_stack.Overflow (fun () ->
      Fpc_core.Eval_stack.push s 3);
  Fpc_core.Eval_stack.clear s;
  Alcotest.check_raises "underflow" Fpc_core.Eval_stack.Underflow (fun () ->
      ignore (Fpc_core.Eval_stack.pop s))

let test_eval_stack_truncates () =
  let s = Fpc_core.Eval_stack.create () in
  Fpc_core.Eval_stack.push s 0x1FFFF;
  Alcotest.(check int) "16-bit" 0xFFFF (Fpc_core.Eval_stack.pop s)

(* ---- Return_stack ---- *)

let entry lf =
  {
    Fpc_ifu.Return_stack.r_lf = lf;
    r_gf = 100;
    r_cb = 200;
    r_pc_abs = 300;
    r_bank = Fpc_ifu.Return_stack.no_bank;
  }

let test_return_stack_lifo () =
  let rs = Fpc_ifu.Return_stack.create ~depth:4 in
  Fpc_ifu.Return_stack.push_entry rs (entry 4);
  Fpc_ifu.Return_stack.push_entry rs (entry 8);
  (match Fpc_ifu.Return_stack.pop rs with
  | Some e -> Alcotest.(check int) "LIFO" 8 e.r_lf
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check int) "fast pops" 1 (Fpc_ifu.Return_stack.fast_pops rs);
  ignore (Fpc_ifu.Return_stack.pop rs);
  Alcotest.(check bool) "empty pop" true (Fpc_ifu.Return_stack.pop rs = None);
  Alcotest.(check int) "empty pops counted" 1 (Fpc_ifu.Return_stack.empty_pops rs)

let test_return_stack_flush_order () =
  let rs = Fpc_ifu.Return_stack.create ~depth:4 in
  List.iter (fun lf -> Fpc_ifu.Return_stack.push_entry rs (entry lf)) [ 4; 8; 12 ];
  (* Slots index oldest first: a flush walks them downwards, newest first. *)
  Alcotest.(check (list int)) "oldest first" [ 4; 8; 12 ]
    (List.init (Fpc_ifu.Return_stack.length rs) (fun i ->
         (Fpc_ifu.Return_stack.slot rs i).r_lf));
  Alcotest.check_raises "no slot past the top"
    (Invalid_argument "Return_stack.slot: no such entry") (fun () ->
      ignore (Fpc_ifu.Return_stack.slot rs 3));
  Fpc_ifu.Return_stack.flushed rs;
  Alcotest.(check bool) "empty after" true (Fpc_ifu.Return_stack.is_empty rs);
  Alcotest.(check int) "flush events" 1 (Fpc_ifu.Return_stack.flushes rs);
  Alcotest.(check int) "flushed entries" 3 (Fpc_ifu.Return_stack.flushed_entries rs)

let test_return_stack_spill () =
  let rs = Fpc_ifu.Return_stack.create ~depth:3 in
  List.iter (fun lf -> Fpc_ifu.Return_stack.push_entry rs (entry lf)) [ 4; 8; 12 ];
  Alcotest.(check bool) "full" true (Fpc_ifu.Return_stack.is_full rs);
  (match Fpc_ifu.Return_stack.second_oldest rs with
  | Some e -> Alcotest.(check int) "second oldest" 8 e.r_lf
  | None -> Alcotest.fail "expected entry");
  (match Fpc_ifu.Return_stack.drop_oldest rs with
  | Some e -> Alcotest.(check int) "oldest dropped" 4 e.r_lf
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check int) "spills counted" 1 (Fpc_ifu.Return_stack.spills rs);
  (* The hot top is untouched. *)
  match Fpc_ifu.Return_stack.pop rs with
  | Some e -> Alcotest.(check int) "top still newest" 12 e.r_lf
  | None -> Alcotest.fail "expected entry"

let prop_return_stack_matches_list_model =
  QCheck.Test.make ~count:200 ~name:"return stack: matches a list model"
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let rs = Fpc_ifu.Return_stack.create ~depth:6 in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            if Fpc_ifu.Return_stack.is_full rs then begin
              ignore (Fpc_ifu.Return_stack.drop_oldest rs);
              model := List.filteri (fun i _ -> i < List.length !model - 1) !model
            end;
            Fpc_ifu.Return_stack.push_entry rs (entry (4 * (1 + List.length !model)));
            model := 4 * (1 + List.length !model) :: !model;
            true
          | 1 -> (
            let got = Fpc_ifu.Return_stack.pop rs in
            match (got, !model) with
            | None, [] -> true
            | Some e, m :: rest ->
              model := rest;
              e.r_lf = m
            | _ -> false)
          | _ ->
            Fpc_ifu.Return_stack.flushed rs;
            model := [];
            true)
        ops)

(* ---- Bank_file ---- *)

let make_banks ?(count = 4) () =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let ladder = Fpc_frames.Size_class.default in
  let config = { Fpc_regbank.Bank_file.default_config with bank_count = count } in
  let bf = Fpc_regbank.Bank_file.create ~config ~mem ~cost ~ladder () in
  (bf, mem, cost)

(* Lay down a frame block at [block] with a ladder-true fsi for [payload]. *)
let plant_frame mem ~block ~payload =
  let ladder = Fpc_frames.Size_class.default in
  let fsi =
    Option.get
      (Fpc_frames.Size_class.index_for_block ladder
         (Fpc_frames.Frame.block_words_for_locals payload))
  in
  Memory.poke mem block fsi;
  Fpc_frames.Frame.lf_of_block block

let test_bank_rename_delivers_args () =
  let bf, mem, _ = make_banks () in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 7; 9 |];
  Alcotest.(check int) "arg0 = local0" 7 (Fpc_regbank.Bank_file.read_local bf ~lf ~index:0);
  Alcotest.(check int) "arg1 = local1" 9 (Fpc_regbank.Bank_file.read_local bf ~lf ~index:1);
  (* And no storage write happened for them. *)
  Alcotest.(check int) "memory copy stale" 0 (Memory.peek mem (lf + 0))

let test_bank_write_back_on_eviction () =
  let bf, mem, _ = make_banks ~count:2 () in
  (* One stack bank + one local bank: a second call must evict the first
     frame's bank, writing its dirty words back. *)
  let lf1 = plant_frame mem ~block:8192 ~payload:8 in
  let lf2 = plant_frame mem ~block:8256 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf1 ~payload_words:8 ~args:[| 42 |];
  Fpc_regbank.Bank_file.write_local bf ~lf:lf1 ~index:3 77;
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf2 ~payload_words:8 ~args:[||];
  let s = Fpc_regbank.Bank_file.stats bf in
  Alcotest.(check bool) "eviction happened" true (s.overflows >= 1);
  Alcotest.(check int) "dirty arg written back" 42 (Memory.peek mem (lf1 + 0));
  Alcotest.(check int) "dirty local written back" 77 (Memory.peek mem (lf1 + 3));
  (* Reads of the evicted frame now come from storage. *)
  Alcotest.(check int) "storage read" 42
    (Fpc_regbank.Bank_file.read_local bf ~lf:lf1 ~index:0)

let test_bank_underflow_reload () =
  let bf, mem, _ = make_banks () in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Memory.poke mem (lf + 2) 123;
  Fpc_regbank.Bank_file.ensure_bank bf ~lf;
  let s = Fpc_regbank.Bank_file.stats bf in
  Alcotest.(check int) "underflow counted" 1 s.underflows;
  Alcotest.(check int) "loaded from storage" 123
    (Fpc_regbank.Bank_file.read_local bf ~lf ~index:2)

let test_bank_release_discards () =
  let bf, mem, _ = make_banks () in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 5 |];
  Fpc_regbank.Bank_file.write_local bf ~lf ~index:1 99;
  Fpc_regbank.Bank_file.release_frame bf ~lf;
  Alcotest.(check bool) "bank freed" false (Fpc_regbank.Bank_file.has_bank bf ~lf);
  (* "its contents are unimportant, and never need to be saved" *)
  Alcotest.(check int) "nothing written back" 0 (Memory.peek mem (lf + 1))

let test_bank_flush_all () =
  let bf, mem, _ = make_banks () in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 11 |];
  Fpc_regbank.Bank_file.flush_all bf;
  Alcotest.(check int) "written back on process switch" 11 (Memory.peek mem (lf + 0));
  Alcotest.(check bool) "released" false (Fpc_regbank.Bank_file.has_bank bf ~lf)

let test_bank_flagged_flush_on_leave () =
  let bf, mem, _ = make_banks () in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 3 |];
  Fpc_regbank.Bank_file.on_leave bf ~lf;
  Alcotest.(check bool) "unflagged frames keep banks" true
    (Fpc_regbank.Bank_file.has_bank bf ~lf);
  Fpc_regbank.Bank_file.flag_frame bf ~lf;
  Fpc_regbank.Bank_file.on_leave bf ~lf;
  Alcotest.(check bool) "flagged frame flushed" false
    (Fpc_regbank.Bank_file.has_bank bf ~lf);
  Alcotest.(check int) "storage current" 3 (Memory.peek mem (lf + 0))

let test_bank_diversion () =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let config =
    { Fpc_regbank.Bank_file.default_config with pointer_policy = Fpc_regbank.Bank_file.Divert }
  in
  let bf =
    Fpc_regbank.Bank_file.create ~config ~mem ~cost ~ladder:Fpc_frames.Size_class.default ()
  in
  let lf = plant_frame mem ~block:8192 ~payload:8 in
  Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 21 |];
  (* A pointer dereference into the shadowed window reads the register. *)
  Alcotest.(check int) "diverted read" 21 (Fpc_regbank.Bank_file.data_read bf ~addr:lf);
  Fpc_regbank.Bank_file.data_write bf ~addr:(lf + 1) 63;
  Alcotest.(check int) "diverted write visible in bank" 63
    (Fpc_regbank.Bank_file.read_local bf ~lf ~index:1);
  let s = Fpc_regbank.Bank_file.stats bf in
  Alcotest.(check int) "diversions counted" 2 s.diversions;
  (* Outside any window: plain storage. *)
  Memory.poke mem 300 5;
  Alcotest.(check int) "storage fallthrough" 5
    (Fpc_regbank.Bank_file.data_read bf ~addr:300)

(* Property: under random call/return traffic, forcing a flush always
   leaves storage holding exactly what the banks held. *)
let prop_bank_flush_coherence =
  QCheck.Test.make ~count:100 ~name:"banks: flush restores storage coherence"
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 9))
    (fun ops ->
      let bf, mem, _ = make_banks () in
      let next_block = ref 8192 in
      let stack = ref [] in
      let model : (int, int array) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun op ->
          if op < 5 then begin
            let lf = plant_frame mem ~block:!next_block ~payload:8 in
            next_block := !next_block + 16;
            let args = [| op; op * 3 |] in
            Fpc_regbank.Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args;
            Hashtbl.replace model lf [| op; op * 3; 0; 0; 0; 0; 0; 0 |];
            stack := lf :: !stack
          end
          else if op < 8 then begin
            match !stack with
            | lf :: _ ->
              let idx = op mod 8 in
              Fpc_regbank.Bank_file.write_local bf ~lf ~index:idx (op * 11);
              (Hashtbl.find model lf).(idx) <- op * 11
            | [] -> ()
          end
          else
            match !stack with
            | lf :: rest ->
              (* Leave the frame alive (coroutine-style) and hop away. *)
              Fpc_regbank.Bank_file.on_leave bf ~lf;
              stack := rest
            | [] -> ())
        ops;
      Fpc_regbank.Bank_file.flush_all bf;
      (match Fpc_regbank.Bank_file.check_coherence bf with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_report m);
      Hashtbl.fold
        (fun lf expected acc ->
          acc
          && Array.for_all Fun.id
               (Array.mapi (fun i v -> Memory.peek mem (lf + i) = v) expected))
        model true)

(* ---- Engine ---- *)

let test_engine_names () =
  Alcotest.(check string) "i1" "I1" (Fpc_core.Engine.name Fpc_core.Engine.i1);
  Alcotest.(check string) "i2" "I2" (Fpc_core.Engine.name Fpc_core.Engine.i2);
  Alcotest.(check string) "i3" "I3(d=8)" (Fpc_core.Engine.name (Fpc_core.Engine.i3 ()));
  Alcotest.(check string) "i4" "I4(b=8x16,d=16)"
    (Fpc_core.Engine.name (Fpc_core.Engine.i4 ()));
  Alcotest.(check bool) "args in place" true
    (Fpc_core.Engine.args_in_place (Fpc_core.Engine.i4 ()));
  Alcotest.(check bool) "i2 not" false (Fpc_core.Engine.args_in_place Fpc_core.Engine.i2)

let () =
  Alcotest.run "core"
    [
      ( "eval_stack",
        [
          Alcotest.test_case "basics" `Quick test_eval_stack_basic;
          Alcotest.test_case "limits" `Quick test_eval_stack_limits;
          Alcotest.test_case "truncates" `Quick test_eval_stack_truncates;
        ] );
      ( "return_stack",
        [
          Alcotest.test_case "LIFO" `Quick test_return_stack_lifo;
          Alcotest.test_case "flush order" `Quick test_return_stack_flush_order;
          Alcotest.test_case "spill oldest" `Quick test_return_stack_spill;
          qtest prop_return_stack_matches_list_model;
        ] );
      ( "bank_file",
        [
          Alcotest.test_case "rename delivers args" `Quick test_bank_rename_delivers_args;
          Alcotest.test_case "eviction writes back" `Quick test_bank_write_back_on_eviction;
          Alcotest.test_case "underflow reload" `Quick test_bank_underflow_reload;
          Alcotest.test_case "release discards" `Quick test_bank_release_discards;
          Alcotest.test_case "flush_all" `Quick test_bank_flush_all;
          Alcotest.test_case "flagged flush" `Quick test_bank_flagged_flush_on_leave;
          Alcotest.test_case "diversion" `Quick test_bank_diversion;
          qtest prop_bank_flush_coherence;
        ] );
      ( "engine",
        [ Alcotest.test_case "names and pairing" `Quick test_engine_names ] );
    ]
