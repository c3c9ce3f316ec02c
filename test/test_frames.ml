(* Tests for the frame allocator: the size ladder and the AV fast heap. *)

open Fpc_machine
open Fpc_frames

let qtest = QCheck_alcotest.to_alcotest

(* ---- Size_class ---- *)

let test_ladder_shape () =
  let l = Size_class.default in
  let sizes = Size_class.sizes l in
  Alcotest.(check int) "min is 8 words (16 bytes)" 8 sizes.(0);
  Alcotest.(check bool) "reaches 4KB" true (Size_class.max_block_words l >= 2048);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "class %d quad-aligned" i) 0 (s land 3);
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (s > sizes.(i - 1)))
    sizes

let test_ladder_20_percent_steps () =
  let l = Size_class.make ~growth:1.2 () in
  let sizes = Size_class.sizes l in
  (* Steps track ~20% growth once past the quad-rounding regime. *)
  Array.iteri
    (fun i s ->
      if i > 0 && sizes.(i - 1) >= 40 && i < Array.length sizes - 1 then begin
        let step = float_of_int s /. float_of_int sizes.(i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "step %d in [1.05, 1.35] (%.3f)" i step)
          true
          (step >= 1.05 && step <= 1.35)
      end)
    sizes

let test_fewer_than_20_classes_at_135 () =
  (* The paper's "less than 20 steps ... up to several thousand bytes". *)
  let l = Size_class.make ~growth:1.35 () in
  Alcotest.(check bool) "<= 20 classes" true (Size_class.class_count l <= 20);
  Alcotest.(check bool) "covers 4KB" true (Size_class.max_block_words l >= 2048)

let test_index_for_block () =
  let l = Size_class.default in
  Alcotest.(check (option int)) "smallest serves 8" (Some 0) (Size_class.index_for_block l 8);
  Alcotest.(check (option int)) "1 word fits class 0" (Some 0) (Size_class.index_for_block l 1);
  Alcotest.(check (option int)) "too big" None
    (Size_class.index_for_block l (Size_class.max_block_words l + 1));
  match Size_class.index_for_block l 100 with
  | None -> Alcotest.fail "100 words should fit"
  | Some fsi ->
    Alcotest.(check bool) "granted >= request" true (Size_class.block_words l fsi >= 100);
    if fsi > 0 then
      Alcotest.(check bool) "smallest adequate class" true
        (Size_class.block_words l (fsi - 1) < 100)

let prop_index_smallest_adequate =
  QCheck.Test.make ~name:"ladder: index_for_block returns smallest adequate"
    QCheck.(int_range 1 2048)
    (fun request ->
      let l = Size_class.default in
      match Size_class.index_for_block l request with
      | None -> request > Size_class.max_block_words l
      | Some fsi ->
        Size_class.block_words l fsi >= request
        && (fsi = 0 || Size_class.block_words l (fsi - 1) < request))

let test_frame_layout () =
  Alcotest.(check int) "overhead" 4 Frame.overhead_words;
  Alcotest.(check int) "lf of block" 104 (Frame.lf_of_block 100);
  Alcotest.(check int) "block of lf" 100 (Frame.block_of_lf 104);
  Alcotest.(check int) "request for 10 locals" 14 (Frame.block_words_for_locals 10)

(* ---- Alloc_vector ---- *)

let make_av ?mode () =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let av =
    Alloc_vector.create ?mode ~mem ~ladder:Size_class.default ~av_base:16
      ~heap_base:1024 ~heap_limit:(1 lsl 16) ()
  in
  (av, cost, mem)

let test_alloc_is_3_refs_free_is_4 () =
  let av, cost, _ = make_av () in
  (* Warm the class so the free list is non-empty. *)
  let warm = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alloc_vector.free av ~cost ~lf:warm;
  let before = Cost.mem_refs cost in
  let lf = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alcotest.(check int) "allocate = 3 refs" 3 (Cost.mem_refs cost - before);
  let before = Cost.mem_refs cost in
  Alloc_vector.free av ~cost ~lf;
  Alcotest.(check int) "free = 4 refs" 4 (Cost.mem_refs cost - before)

let test_alloc_alignment_and_fsi () =
  let av, cost, mem = make_av () in
  let lf = Alloc_vector.alloc_words av ~cost ~body_words:10 in
  Alcotest.(check int) "quad aligned" 0 (lf land 3);
  let fsi = Frame.peek_fsi mem ~lf in
  Alcotest.(check bool) "fsi stored in block" true
    (Size_class.block_words Size_class.default fsi >= 14)

let test_double_free_rejected () =
  let av, cost, _ = make_av () in
  let lf = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alloc_vector.free av ~cost ~lf;
  Alcotest.(check bool) "double free raises" true
    (match Alloc_vector.free av ~cost ~lf with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_reuse_freed_frame () =
  let av, cost, _ = make_av () in
  let lf1 = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alloc_vector.free av ~cost ~lf:lf1;
  let lf2 = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alcotest.(check int) "same block reused (LIFO free list)" lf1 lf2

let test_software_only_mode () =
  let av, cost, _ = make_av ~mode:Alloc_vector.Software_only () in
  let before_cycles = Cost.cycles cost in
  let lf = Alloc_vector.alloc_words av ~cost ~body_words:8 in
  Alcotest.(check bool) "charged software cost" true
    (Cost.cycles cost - before_cycles >= Cost.params.software_alloc_cycles);
  Alcotest.(check int) "no fast-path refs" 0 (Cost.mem_refs cost);
  Alloc_vector.free av ~cost ~lf;
  let s = Alloc_vector.stats av in
  Alcotest.(check int) "no fast allocs" 0 s.fast_allocs;
  Alcotest.(check bool) "software traps counted" true (s.software_traps >= 2)

let test_fragmentation_accounting () =
  let av, cost, _ = make_av () in
  (* Request 9 payload words = 13-word block; the granted class is 16. *)
  let _lf = Alloc_vector.alloc_words av ~cost ~body_words:9 in
  let s = Alloc_vector.stats av in
  Alcotest.(check int) "requested" 13 s.requested_words;
  Alcotest.(check int) "granted" 16 s.live_words;
  Alcotest.(check (float 0.001)) "fragmentation" (3.0 /. 16.0)
    (Alloc_vector.internal_fragmentation av)

let test_heap_exhaustion () =
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:2048 () in
  let av =
    Alloc_vector.create ~mem ~ladder:Size_class.default ~av_base:16 ~heap_base:1024
      ~heap_limit:1152 ()
  in
  Alcotest.(check bool) "raises eventually" true
    (match
       for _ = 1 to 100 do
         ignore (Alloc_vector.alloc_words av ~cost ~body_words:8)
       done
     with
    | exception Alloc_vector.Out_of_frame_heap -> true
    | () -> false)

(* Random alloc/free interleavings keep the free lists well-formed and
   never hand out overlapping blocks — the central safety property. *)
let prop_alloc_free_invariants =
  QCheck.Test.make ~count:60 ~name:"allocator: invariants under random traffic"
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 120) (int_range 0 99)))
    (fun (seed, ops) ->
      ignore seed;
      let av, cost, mem = make_av () in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 60 || !live = [] then begin
            let payload = 1 + (op mod 50) in
            let lf = Alloc_vector.alloc_words av ~cost ~body_words:payload in
            (* No overlap with any live block. *)
            let fsi = Frame.peek_fsi mem ~lf in
            let words = Size_class.block_words Size_class.default fsi in
            let b1 = Frame.block_of_lf lf in
            List.iter
              (fun (lf', w') ->
                let b2 = Frame.block_of_lf lf' in
                if b1 < b2 + w' && b2 < b1 + words then ok := false)
              !live;
            live := (lf, words) :: !live
          end
          else begin
            match !live with
            | (lf, _) :: rest ->
              Alloc_vector.free av ~cost ~lf;
              live := rest
            | [] -> ()
          end)
        ops;
      (match Alloc_vector.check_invariants av with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_report msg);
      !ok)

let () =
  Alcotest.run "frames"
    [
      ( "size_class",
        [
          Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
          Alcotest.test_case "~20% steps" `Quick test_ladder_20_percent_steps;
          Alcotest.test_case "<20 classes at 1.35" `Quick test_fewer_than_20_classes_at_135;
          Alcotest.test_case "index_for_block" `Quick test_index_for_block;
          qtest prop_index_smallest_adequate;
          Alcotest.test_case "frame layout" `Quick test_frame_layout;
        ] );
      ( "alloc_vector",
        [
          Alcotest.test_case "3 refs alloc, 4 free" `Quick test_alloc_is_3_refs_free_is_4;
          Alcotest.test_case "alignment and fsi" `Quick test_alloc_alignment_and_fsi;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "freed frame reused" `Quick test_reuse_freed_frame;
          Alcotest.test_case "software-only mode (I1)" `Quick test_software_only_mode;
          Alcotest.test_case "fragmentation accounting" `Quick test_fragmentation_accounting;
          Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
          qtest prop_alloc_free_invariants;
        ] );
    ]
