(* Tests for the machine substrate: cost model, memory, cache. *)

open Fpc_machine

let qtest = QCheck_alcotest.to_alcotest

(* ---- Cost ---- *)

let counts c =
  [
    ("reads", Cost.mem_reads c);
    ("writes", Cost.mem_writes c);
    ("bank refs", Cost.bank_refs c);
    ("dispatches", Cost.dispatches c);
    ("jumps", Cost.jumps c);
    ("traps", Cost.traps c);
    ("software allocs", Cost.software_allocs c);
    ("diversions", Cost.diversions c);
  ]

(* Every charge moves counts only; cycles are the counts weighted by the
   cost table. *)
let test_cost_charges () =
  let c = Cost.create () in
  Cost.mem_read c;
  Cost.mem_read c;
  Cost.mem_write c;
  Cost.bank_ref c;
  Cost.dispatch c;
  Cost.bank_ref_n c 5;
  Cost.refs_n c ~reads:3 ~writes:2;
  Cost.block_bill c ~instrs:10 ~reads:4 ~writes:1;
  (* the tier undoes a declined batch by billing its negation *)
  Cost.block_bill c ~instrs:(-3) ~reads:(-1) ~writes:(-1);
  Cost.jump c;
  Cost.jump c;
  Cost.trap c;
  Cost.software_alloc c;
  Cost.divert c;
  Alcotest.(check (list (pair string int)))
    "counts"
    [
      ("reads", 8);
      ("writes", 3);
      ("bank refs", 6);
      ("dispatches", 8);
      ("jumps", 2);
      ("traps", 1);
      ("software allocs", 1);
      ("diversions", 1);
    ]
    (counts c);
  Alcotest.(check int) "refs" 11 (Cost.mem_refs c);
  let p = Cost.params in
  Alcotest.(check int) "cycles are the dot product"
    ((11 * p.mem_ref_cycles) + (6 * p.bank_ref_cycles) + (8 * p.dispatch_cycles)
    + (2 * p.jump_cycles) + p.trap_cycles + p.software_alloc_cycles + p.divert_cycles)
    (Cost.cycles c);
  Alcotest.(check int) "cycles under the documented table" 214 (Cost.cycles c);
  Cost.reset c;
  Alcotest.(check (list (pair string int)))
    "counts reset"
    (List.map (fun (what, _) -> (what, 0)) (counts c))
    (counts c);
  Alcotest.(check int) "cycles reset" 0 (Cost.cycles c)

(* Under the [Divert] policy a pointer read into a shadowed window costs
   one bank reference, like a local's, plus the diversion penalty. *)
let test_cost_divert () =
  let open Fpc_regbank in
  let cost = Cost.create () in
  let mem = Memory.create ~cost ~size_words:(1 lsl 16) () in
  let ladder = Fpc_frames.Size_class.default in
  let config = { Bank_file.default_config with pointer_policy = Bank_file.Divert } in
  let bf = Bank_file.create ~config ~mem ~cost ~ladder () in
  let block = 8192 in
  Memory.poke mem block
    (Option.get
       (Fpc_frames.Size_class.index_for_block ladder
          (Fpc_frames.Frame.block_words_for_locals 8)));
  let lf = Fpc_frames.Frame.lf_of_block block in
  Bank_file.on_call bf ~callee_lf:lf ~payload_words:8 ~args:[| 21 |];
  let charge f =
    let cycles = Cost.cycles cost and banks = Cost.bank_refs cost in
    let divs = Cost.diversions cost in
    ignore (f ());
    (Cost.cycles cost - cycles, Cost.bank_refs cost - banks, Cost.diversions cost - divs)
  in
  let plain, plain_banks, plain_divs =
    charge (fun () -> Bank_file.read_local bf ~lf ~index:0)
  in
  let diverted, diverted_banks, diverted_divs =
    charge (fun () -> Bank_file.data_read bf ~addr:lf)
  in
  Alcotest.(check (list int)) "plain bank ref" [ 1; 0 ] [ plain_banks; plain_divs ];
  Alcotest.(check (list int)) "diverted read" [ 1; 1 ] [ diverted_banks; diverted_divs ];
  Alcotest.(check int) "penalty" 4 (diverted - plain)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.mem_read c;
  Cost.reset c;
  Alcotest.(check int) "cycles zero" 0 (Cost.cycles c);
  Alcotest.(check int) "refs zero" 0 (Cost.mem_refs c)

(* ---- Memory ---- *)

let test_memory_rw () =
  let c = Cost.create () in
  let m = Memory.create ~cost:c ~size_words:256 () in
  Memory.write m 10 0x1234;
  Alcotest.(check int) "read back" 0x1234 (Memory.read m 10);
  Alcotest.(check int) "metered" 2 (Cost.mem_refs c);
  Memory.poke m 11 0xFFFF;
  Alcotest.(check int) "peek unmetered" 0xFFFF (Memory.peek m 11);
  Alcotest.(check int) "still 2 refs" 2 (Cost.mem_refs c)

let test_memory_truncates () =
  let m = Memory.create ~size_words:16 () in
  Memory.poke m 0 0x1FFFF;
  Alcotest.(check int) "16-bit truncation" 0xFFFF (Memory.peek m 0)

let test_memory_bounds () =
  let m = Memory.create ~size_words:16 () in
  Alcotest.check_raises "oob" (Invalid_argument "Memory.peek: address 16 out of range")
    (fun () -> ignore (Memory.peek m 16))

let test_code_bytes () =
  let m = Memory.create ~size_words:64 () in
  let code = Bytes.of_string "\x01\x02\x03\x04\x05" in
  Memory.blit_bytes m ~code_base:8 code;
  for i = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "byte %d" i)
      (i + 1)
      (Memory.peek_code_byte m ~code_base:8 ~pc:i)
  done;
  (* Bytes pack two per word, high byte first. *)
  Alcotest.(check int) "word 8" 0x0102 (Memory.peek m 8);
  Alcotest.(check int) "word 9" 0x0304 (Memory.peek m 9);
  Alcotest.(check int) "word 10 high" 0x0500 (Memory.peek m 10)

let test_poke_code_byte () =
  let m = Memory.create ~size_words:64 () in
  Memory.poke m 4 0xAABB;
  Memory.poke_code_byte m ~code_base:4 ~pc:0 0x11;
  Alcotest.(check int) "high replaced" 0x11BB (Memory.peek m 4);
  Memory.poke_code_byte m ~code_base:4 ~pc:1 0x22;
  Alcotest.(check int) "low replaced" 0x1122 (Memory.peek m 4)

let prop_code_byte_roundtrip =
  QCheck.Test.make ~name:"memory: code byte roundtrip"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_bound 255))
    (fun bytes ->
      let m = Memory.create ~size_words:64 () in
      List.iteri (fun i b -> Memory.poke_code_byte m ~code_base:0 ~pc:i b) bytes;
      List.for_all2
        (fun i b -> Memory.peek_code_byte m ~code_base:0 ~pc:i = b)
        (List.mapi (fun i _ -> i) bytes)
        bytes)

let test_words_for_bytes () =
  Alcotest.(check int) "0" 0 (Memory.words_for_bytes 0);
  Alcotest.(check int) "1" 1 (Memory.words_for_bytes 1);
  Alcotest.(check int) "2" 1 (Memory.words_for_bytes 2);
  Alcotest.(check int) "3" 2 (Memory.words_for_bytes 3)

(* ---- Memory against a reference model ----

   Random operation sequences run against a [Memory.t] pair (a working
   store [cur] and a [pristine] it can be reset from) and against a plain
   model: an [int array] of words and a [bool array] of dirty pages per
   store, plus read/write counters for the one meter both stores share.
   After every step the two must agree on every word of both stores, on
   [dirty_pages], on the meter, and on the result — a value or the exact
   [Invalid_argument] message. *)

let model_words = 600 (* two full 256-word pages and a partial third *)
let model_pages = (model_words + 255) / 256

type model = { words : int array; dirty : bool array }

let model_create () =
  { words = Array.make model_words 0; dirty = Array.make model_pages false }

let model_copy m = { words = Array.copy m.words; dirty = Array.make model_pages false }

type mem_op =
  | Peek of int
  | Poke of int * int
  | Read of int
  | Write of int * int
  | Prepaid_read of int
  | Prepaid_write of int * int
  | Peek_code_byte of int * int
  | Read_code_byte of int * int
  | Poke_code_byte of int * int * int
  | Blit_bytes of int * string
  | Clone_to_pristine
  | Clone_from_pristine
  | Reset

let show_mem_op = function
  | Peek a -> Printf.sprintf "peek %d" a
  | Poke (a, v) -> Printf.sprintf "poke %d %d" a v
  | Read a -> Printf.sprintf "read %d" a
  | Write (a, v) -> Printf.sprintf "write %d %d" a v
  | Prepaid_read a -> Printf.sprintf "prepaid_read %d" a
  | Prepaid_write (a, v) -> Printf.sprintf "prepaid_write %d %d" a v
  | Peek_code_byte (cb, pc) -> Printf.sprintf "peek_code_byte %d %d" cb pc
  | Read_code_byte (cb, pc) -> Printf.sprintf "read_code_byte %d %d" cb pc
  | Poke_code_byte (cb, pc, b) -> Printf.sprintf "poke_code_byte %d %d %d" cb pc b
  | Blit_bytes (cb, s) -> Printf.sprintf "blit_bytes %d %S" cb s
  | Clone_to_pristine -> "clone cur -> pristine"
  | Clone_from_pristine -> "clone pristine -> cur"
  | Reset -> "reset_from cur ~pristine"

let gen_mem_op =
  let open QCheck.Gen in
  let in_range = int_range 0 (model_words - 1) in
  let addr =
    frequency
      [
        (8, in_range);
        ( 2,
          oneofl
            [ -1; 0; model_words - 1; model_words; model_words + 1000; max_int; min_int ]
        );
      ]
  in
  let value =
    frequency
      [
        (4, int_range 0 0xFFFF);
        (1, int_range (-70000) (-1));
        (1, int_range 0x10000 0x3FFFF);
        (1, oneofl [ max_int; min_int; -1; 0xFFFF; 0x10000 ]);
      ]
  in
  let code_base = int_range (-3) (model_words + 3) in
  let pc = int_range 0 (2 * model_words) in
  frequency
    [
      (3, map (fun a -> Peek a) addr);
      (4, map2 (fun a v -> Poke (a, v)) addr value);
      (3, map (fun a -> Read a) addr);
      (4, map2 (fun a v -> Write (a, v)) addr value);
      (2, map (fun a -> Prepaid_read a) in_range);
      (3, map2 (fun a v -> Prepaid_write (a, v)) in_range value);
      (2, map2 (fun cb pc -> Peek_code_byte (cb, pc)) code_base pc);
      (2, map2 (fun cb pc -> Read_code_byte (cb, pc)) code_base pc);
      (3, map3 (fun cb pc b -> Poke_code_byte (cb, pc, b)) code_base pc (int_range 0 255));
      (2, map2 (fun cb s -> Blit_bytes (cb, s)) code_base (string_size (int_range 0 12)));
      (1, return Clone_to_pristine);
      (1, return Clone_from_pristine);
      (2, return Reset);
    ]

let prop_memory_matches_model =
  QCheck.Test.make ~count:300 ~name:"memory: matches an int-array model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_mem_op))
    (fun ops ->
      let cost = Cost.create () in
      let cur = ref (Memory.create ~cost ~size_words:model_words ()) in
      let pristine = ref (Memory.create ~cost ~size_words:model_words ()) in
      let mcur = ref (model_create ()) and mpristine = ref (model_create ()) in
      let reads = ref 0 and writes = ref 0 in
      let out_of_range what a =
        invalid_arg (Printf.sprintf "Memory.%s: address %d out of range" what a)
      in
      let m_peek a =
        if a < 0 || a >= model_words then out_of_range "peek" a;
        !mcur.words.(a)
      in
      let m_poke a v =
        if a < 0 || a >= model_words then out_of_range "poke" a;
        !mcur.dirty.(a / 256) <- true;
        !mcur.words.(a) <- v land 0xFFFF
      in
      let m_byte ~pc w = if pc land 1 = 0 then w lsr 8 else w land 0xFF in
      let m_peek_code_byte cb pc = m_byte ~pc (m_peek (cb + (pc lsr 1))) in
      let m_poke_code_byte cb pc b =
        let a = cb + (pc lsr 1) in
        let w = m_peek a in
        m_poke a
          (if pc land 1 = 0 then ((b land 0xFF) lsl 8) lor (w land 0xFF)
           else (w land 0xFF00) lor (b land 0xFF))
      in
      (* Each op returns [Ok v] (0 for unit ops) or [Error msg]. *)
      let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      let step op =
        Memory.(match op with
          | Peek a -> (attempt (fun () -> peek !cur a), attempt (fun () -> m_peek a))
          | Poke (a, v) ->
            ( attempt (fun () -> poke !cur a v; 0),
              attempt (fun () -> m_poke a v; 0) )
          | Read a ->
            ( attempt (fun () -> read !cur a),
              attempt (fun () -> incr reads; m_peek a) )
          | Write (a, v) ->
            ( attempt (fun () -> write !cur a v; 0),
              attempt (fun () -> incr writes; m_poke a v; 0) )
          | Prepaid_read a -> (Ok (prepaid_read !cur a), Ok (m_peek a))
          | Prepaid_write (a, v) ->
            prepaid_write !cur a v;
            m_poke a v;
            (Ok 0, Ok 0)
          | Peek_code_byte (cb, pc) ->
            ( attempt (fun () -> peek_code_byte !cur ~code_base:cb ~pc),
              attempt (fun () -> m_peek_code_byte cb pc) )
          | Read_code_byte (cb, pc) ->
            ( attempt (fun () -> read_code_byte !cur ~code_base:cb ~pc),
              attempt (fun () -> incr reads; m_peek_code_byte cb pc) )
          | Poke_code_byte (cb, pc, b) ->
            ( attempt (fun () -> poke_code_byte !cur ~code_base:cb ~pc b; 0),
              attempt (fun () -> m_poke_code_byte cb pc b; 0) )
          | Blit_bytes (cb, s) ->
            ( attempt (fun () -> blit_bytes !cur ~code_base:cb (Bytes.of_string s); 0),
              attempt (fun () ->
                  String.iteri (fun i c -> m_poke_code_byte cb i (Char.code c)) s;
                  0) )
          | Clone_to_pristine ->
            pristine := clone !cur;
            mpristine := model_copy !mcur;
            (Ok 0, Ok 0)
          | Clone_from_pristine ->
            cur := clone !pristine;
            mcur := model_copy !mpristine;
            (Ok 0, Ok 0)
          | Reset ->
            reset_from !cur ~pristine:!pristine;
            Array.iteri
              (fun page d ->
                if d then begin
                  let base = page * 256 in
                  let len = min 256 (model_words - base) in
                  Array.blit !mpristine.words base !mcur.words base len;
                  !mcur.dirty.(page) <- false
                end)
              !mcur.dirty;
            (Ok 0, Ok 0))
      in
      let same_store mem model =
        let ok = ref true in
        for a = 0 to model_words - 1 do
          if Memory.peek mem a <> model.words.(a) then ok := false
        done;
        !ok
        && Memory.dirty_pages mem
           = Array.fold_left (fun n d -> if d then n + 1 else n) 0 model.dirty
      in
      List.for_all
        (fun op ->
          let got, want = step op in
          got = want
          && same_store !cur !mcur
          && same_store !pristine !mpristine
          && Cost.mem_reads cost = !reads
          && Cost.mem_writes cost = !writes)
        ops)

let test_memory_reset_size_mismatch () =
  let a = Memory.create ~size_words:512 () and b = Memory.create ~size_words:600 () in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Memory.reset_from: size mismatch")
    (fun () -> Memory.reset_from a ~pristine:b)

(* ---- Cache ---- *)

let test_cache_hit_after_miss () =
  let c = Cache.create () in
  Alcotest.(check bool) "first is miss" true (Cache.access c ~address:100 ~write:false = `Miss);
  Alcotest.(check bool) "second is hit" true (Cache.access c ~address:100 ~write:false = `Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c ~address:101 ~write:false = `Hit)

let test_cache_lru_eviction () =
  (* 1 set x 2 ways x 1-word lines: third distinct block evicts the LRU. *)
  let c = Cache.create ~config:{ Cache.line_words = 1; sets = 1; ways = 2 } () in
  ignore (Cache.access c ~address:0 ~write:false);
  ignore (Cache.access c ~address:1 ~write:false);
  ignore (Cache.access c ~address:0 ~write:false);
  (* 0 is MRU; inserting 2 evicts 1. *)
  ignore (Cache.access c ~address:2 ~write:false);
  Alcotest.(check bool) "0 still resident" true (Cache.access c ~address:0 ~write:false = `Hit);
  Alcotest.(check bool) "1 evicted" true (Cache.access c ~address:1 ~write:false = `Miss)

let test_cache_rates_and_cycles () =
  let c = Cache.create () in
  for _ = 1 to 4 do
    for a = 0 to 63 do
      ignore (Cache.access c ~address:a ~write:false)
    done
  done;
  Alcotest.(check bool) "looping working set mostly hits" true (Cache.hit_rate c > 0.9);
  Alcotest.(check bool) "cycles positive" true (Cache.cycles c > 0);
  Cache.reset c;
  Alcotest.(check int) "reset" 0 (Cache.accesses c)

let test_cache_rejects_bad_config () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Cache.create: line_words and sets must be powers of two")
    (fun () -> ignore (Cache.create ~config:{ Cache.line_words = 3; sets = 4; ways = 1 } ()))

let () =
  Alcotest.run "machine"
    [
      ( "cost",
        [
          Alcotest.test_case "charges" `Quick test_cost_charges;
          Alcotest.test_case "divert charge" `Quick test_cost_divert;
          Alcotest.test_case "reset" `Quick test_cost_reset;
        ] );
      ( "memory",
        [
          Alcotest.test_case "read/write metered" `Quick test_memory_rw;
          Alcotest.test_case "16-bit truncation" `Quick test_memory_truncates;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "code bytes" `Quick test_code_bytes;
          Alcotest.test_case "poke code byte" `Quick test_poke_code_byte;
          Alcotest.test_case "words_for_bytes" `Quick test_words_for_bytes;
          qtest prop_code_byte_roundtrip;
          qtest prop_memory_matches_model;
          Alcotest.test_case "reset size mismatch" `Quick test_memory_reset_size_mismatch;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "rates and cycles" `Quick test_cache_rates_and_cycles;
          Alcotest.test_case "rejects bad config" `Quick test_cache_rejects_bad_config;
        ] );
    ]
