(* Unit and property tests for Fpc_util. *)

open Fpc_util

let qtest = QCheck_alcotest.to_alcotest

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* ---- Bits ---- *)

let test_mask () =
  Alcotest.(check int) "mask 0" 0 (Bits.mask 0);
  Alcotest.(check int) "mask 1" 1 (Bits.mask 1);
  Alcotest.(check int) "mask 8" 255 (Bits.mask 8);
  Alcotest.(check int) "mask 16" 65535 (Bits.mask 16)

let test_get_set () =
  let w = Bits.set ~word:0 ~pos:6 ~width:10 513 in
  Alcotest.(check int) "get back" 513 (Bits.get ~word:w ~pos:6 ~width:10);
  Alcotest.(check int) "low bits clear" 0 (Bits.get ~word:w ~pos:0 ~width:6);
  let w2 = Bits.set ~word:w ~pos:0 ~width:6 33 in
  Alcotest.(check int) "field 1 kept" 513 (Bits.get ~word:w2 ~pos:6 ~width:10);
  Alcotest.(check int) "field 2 set" 33 (Bits.get ~word:w2 ~pos:0 ~width:6)

let test_set_rejects () =
  Alcotest.check_raises "overflow"
    (Invalid_argument "Bits.set: value 16 does not fit in 4 bits") (fun () ->
      ignore (Bits.set ~word:0 ~pos:0 ~width:4 16))

let test_signed_roundtrip () =
  List.iter
    (fun v ->
      let u = Bits.unsigned_of_signed ~width:16 v in
      Alcotest.(check int) (string_of_int v) v (Bits.signed_of_unsigned ~width:16 u))
    [ 0; 1; -1; 32767; -32768; 1234; -9999 ]

let test_bytes () =
  Alcotest.(check int) "high" 0xAB (Bits.byte_high 0xABCD);
  Alcotest.(check int) "low" 0xCD (Bits.byte_low 0xABCD);
  Alcotest.(check int) "reassemble" 0xABCD (Bits.word_of_bytes ~high:0xAB ~low:0xCD)

let prop_field_roundtrip =
  QCheck.Test.make ~name:"bits: set/get roundtrip"
    QCheck.(triple (int_bound 50) (int_bound 12) (int_bound 4095))
    (fun (pos, width, v) ->
      let width = max 1 width in
      let pos = min pos (60 - width) in
      let v = v land Bits.mask width in
      Bits.get ~word:(Bits.set ~word:0 ~pos ~width v) ~pos ~width = v)

let prop_signed_roundtrip =
  QCheck.Test.make ~name:"bits: signed/unsigned roundtrip"
    QCheck.(int_range (-32768) 32767)
    (fun v ->
      Bits.signed_of_unsigned ~width:16 (Bits.unsigned_of_signed ~width:16 v) = v)

(* ---- Prng ---- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_differs () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.next a = Prng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_prng_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17);
    let w = Prng.int_in rng ~lo:5 ~hi:9 in
    Alcotest.(check bool) "int_in" true (w >= 5 && w <= 9)
  done

let test_prng_weighted () =
  let rng = Prng.create ~seed:3 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.weighted rng [ (1.0, `A); (9.0, `B) ] in
    Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
  done;
  let b = Hashtbl.find counts `B in
  Alcotest.(check bool) "B dominates ~9:1" true (b > 8500 && b < 9500)

let test_prng_geometric_mean () =
  let rng = Prng.create ~seed:11 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Prng.geometric rng ~p:0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean ~1.0" true (mean > 0.9 && mean < 1.1)

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:5 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 Fun.id) sorted

let test_prng_copy_independent () =
  let a = Prng.create ~seed:42 in
  ignore (Prng.next a);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.next a) (Prng.next b);
  ignore (Prng.next a);
  Alcotest.(check bool) "then diverges only by use" true (Prng.next a <> Prng.next a)

(* ---- Histogram ---- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 5; 1; 5; 9; 5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "total" 25 (Histogram.total h);
  Alcotest.(check (float 0.001)) "mean" 5.0 (Histogram.mean h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 9 (Histogram.max_value h);
  Alcotest.(check int) "median" 5 (Histogram.percentile h 50.0)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  Alcotest.(check int) "p95" 95 (Histogram.percentile h 95.0);
  Alcotest.(check int) "p1" 1 (Histogram.percentile h 1.0);
  Alcotest.(check (float 0.001)) "fraction <= 40" 0.4 (Histogram.fraction_le h 40)

let test_histogram_add_many () =
  let h = Histogram.create () in
  Histogram.add_many h 7 ~count:10;
  Alcotest.(check int) "count" 10 (Histogram.count h);
  Alcotest.(check int) "total" 70 (Histogram.total h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram: percentile monotone"
    QCheck.(list_of_size (Gen.int_range 1 50) (int_bound 1000))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      Histogram.percentile h 25.0 <= Histogram.percentile h 75.0)

(* ---- Tablefmt ---- *)

let test_table_render () =
  let t =
    Tablefmt.create ~title:"demo"
      ~columns:[ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "22" ];
  Tablefmt.add_note t "a note";
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has title" true (contains ~needle:"== demo ==" s);
  Alcotest.(check bool) "has note" true (contains ~needle:"a note" s);
  Alcotest.(check bool) "rows in order" true (contains ~needle:"alpha" s)

let test_table_mismatch () =
  let t = Tablefmt.create ~title:"x" ~columns:[ ("a", Tablefmt.Left) ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Tablefmt.add_row: expected 1 cells, got 2") (fun () ->
      Tablefmt.add_row t [ "1"; "2" ])

let test_cells () =
  Alcotest.(check string) "pct" "95.0%" (Tablefmt.cell_pct 0.95);
  Alcotest.(check string) "ratio" "1.33x" (Tablefmt.cell_ratio 1.3333);
  Alcotest.(check string) "float" "2.50" (Tablefmt.cell_float 2.5)

(* The host clock is monotonic: no read is earlier than the one before
   it, and a sleep shows up in full. *)
let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now () in
    if t < !prev then Alcotest.failf "clock went back: %.9f after %.9f" t !prev;
    prev := t
  done;
  let t0 = Clock.now () in
  Unix.sleepf 0.010;
  let dt = Clock.now () -. t0 in
  if dt < 0.010 then Alcotest.failf "a 10 ms sleep advanced the clock by %.6f s" dt

(* A model of every query over a plain list of observations. *)
let prop_histogram_model =
  QCheck.Test.make ~name:"histogram: matches a list model" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 80) (int_range (-5) 600))
        (list_of_size (Gen.int_range 0 6) (pair (int_range (-5) 600) (int_range 0 4))))
    (fun (values, many) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      List.iter (fun (v, count) -> Histogram.add_many h v ~count) many;
      let model =
        List.sort compare
          (values @ List.concat_map (fun (v, c) -> List.init c (fun _ -> v)) many)
      in
      let n = List.length model in
      let total = List.fold_left ( + ) 0 model in
      let grouped =
        List.fold_left
          (fun acc v ->
            match acc with
            | (w, c) :: rest when w = v -> (w, c + 1) :: rest
            | _ -> (v, 1) :: acc)
          [] model
        |> List.rev
      in
      (* smallest v with at least p% of observations <= v *)
      let model_percentile p =
        let threshold = p /. 100.0 *. float_of_int n in
        let rec scan seen = function
          | [] -> List.nth model (n - 1)
          | (v, c) :: rest ->
            if float_of_int (seen + c) >= threshold then v else scan (seen + c) rest
        in
        scan 0 grouped
      in
      let fraction_le v =
        if n = 0 then 0.0
        else float_of_int (List.length (List.filter (fun x -> x <= v) model)) /. float_of_int n
      in
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      Histogram.count h = n
      && Histogram.total h = total
      && Histogram.mean h
         = (if n = 0 then 0.0 else float_of_int total /. float_of_int n)
      && Histogram.to_sorted_list h = grouped
      && List.for_all (fun v -> Histogram.fraction_le h v = fraction_le v) [ -6; -5; 0; 7; 255; 256; 600 ]
      && (if n = 0 then
            raises (fun () -> Histogram.min_value h)
            && raises (fun () -> Histogram.max_value h)
            && raises (fun () -> Histogram.percentile h 50.0)
          else
            Histogram.min_value h = List.hd model
            && Histogram.max_value h = List.nth model (n - 1)
            && List.for_all
                 (fun p -> Histogram.percentile h p = model_percentile p)
                 [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]))

(* ---- Jsonout ---- *)

(* The [Printf] rendering [Jsonout] used before it called the C
   primitive directly: the output must not change by a byte. *)
let printf_float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let gen_float =
  QCheck.Gen.(
    oneof
      [
        float;
        map Int64.float_of_bits ui64;
        (* subnormals *)
        map (fun i -> Int64.float_of_bits (Int64.of_int i)) (int_bound 0xFFFFFFF);
        map float_of_int int;
        map (fun (m, e) -> Float.ldexp m e) (pair float (int_range (-1100) 1100));
        oneofl
          [
            0.0; -0.0; 1.0; -1.0; 0.1; 1.0 /. 3.0; 1e21; 1e22; 123456789012.0;
            Float.max_float; -.Float.max_float; Float.min_float; 5e-324;
            Float.infinity; Float.neg_infinity; Float.nan;
          ];
      ])

let prop_float_repr =
  QCheck.Test.make ~name:"jsonout: floats render as Printf did" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun f -> Jsonout.to_string (Jsonout.Float f) = printf_float_repr f)

let () =
  Alcotest.run "util"
    [
      ( "bits",
        [
          Alcotest.test_case "mask" `Quick test_mask;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "set rejects oversize" `Quick test_set_rejects;
          Alcotest.test_case "signed roundtrip" `Quick test_signed_roundtrip;
          Alcotest.test_case "byte split" `Quick test_bytes;
          qtest prop_field_roundtrip;
          qtest prop_signed_roundtrip;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seed_differs;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "weighted" `Quick test_prng_weighted;
          Alcotest.test_case "geometric mean" `Quick test_prng_geometric_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basic;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "add_many" `Quick test_histogram_add_many;
          qtest prop_histogram_percentile_monotone;
          qtest prop_histogram_model;
        ] );
      ("jsonout", [ qtest prop_float_repr ]);
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "cell formatting" `Quick test_cells;
        ] );
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
    ]
