(* bench/prof — a PC-sampling profiler for the serving job mixes.

   It runs the request shapes of bench/serve's serve-hot or
   serve-sessions workload on the main thread, through the worker's own
   code: [Job.parse_request], [Pool.execute] with the arena a worker
   creates ([Pool.worker_arena]), and the reply render.  No domains and
   no sockets are involved.  After an untimed warm-up, a POSIX timer
   samples the instruction pointer every 100 us (prof_stubs.c), and the
   samples are mapped to functions with [nm -n] and to source files
   with [addr2line].

     dune build bench/prof/prof.exe
     ./_build/default/bench/prof/prof.exe --workload serve-hot --seed 1

   It prints CPU us/job, the timed phase's arena hits and misses and its
   minor and direct-major words per job, then the top functions and
   source files as percentages of samples.
   With [--no-sample] it only times the jobs.  Linux x86-64 only. *)

open Fpc_svc

external supported : unit -> bool = "fpc_prof_supported"
external start : int -> unit = "fpc_prof_start"
external stop : unit -> unit = "fpc_prof_stop"
external count : unit -> int = "fpc_prof_count"
external dropped : unit -> int = "fpc_prof_dropped"
external sample : int -> int = "fpc_prof_sample"

(* ---- the job mixes: bench/serve's request shapes ---- *)

let shapes ~engines workload =
  let product sources =
    List.concat_map
      (fun source ->
        List.map (fun engine -> Job.request_of_spec (Job.spec ~engine source)) engines)
      sources
  in
  match workload with
  | "serve-hot" ->
    product (List.map (fun p -> Job.Suite p) Fpc_workload.Programs.call_intensive)
  | "serve-sessions" ->
    product
      (List.map
         (fun seed ->
           Job.Sessions { (Fpc_workload.Sessions.default ~total:250) with seed })
         [ 0; 1; 2; 3 ])
  | w -> failwith (Printf.sprintf "unknown workload %S (serve-hot, serve-sessions)" w)

(* Line [i] of a seeded uniform stream over the shapes, picked the way
   bench/serve picks it. *)
let pick shapes ~seed i =
  let rng = Fpc_util.Prng.create ~seed:((seed * 1_000_003) + i) in
  shapes.(Fpc_util.Prng.int rng ~bound:(Array.length shapes))

(* One job as a worker runs it; a failed job stops the run, since its
   profile would not be the mix's. *)
let run_job cache arena id line =
  match Job.parse_request line with
  | Error m -> failwith (Printf.sprintf "bad request %S: %s" line m)
  | Ok spec -> (
    let r = Pool.execute ~arena cache id spec in
    ignore (Fpc_util.Jsonout.to_string (Job.result_to_json ~times:true r));
    match r.Job.outcome with
    | Job.Output _ -> ()
    | Job.Failed (_, m) -> failwith (Printf.sprintf "job %S failed: %s" line m))

(* ---- symbolization ---- *)

let lines_of_command cmd =
  let ic = Unix.open_process_in cmd in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith ("command failed: " ^ cmd)

let lines_of_file path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* The executable's mappings: (start, end, offset, path) for every
   mapping with a path. *)
let mappings () =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | range :: _perms :: offset :: _dev :: _inode :: path :: _ -> (
        (* [vsyscall] sits above OCaml's int range; it is never sampled
           while OCaml code runs, so it may be skipped *)
        let hex x = int_of_string_opt ("0x" ^ x) in
        match String.split_on_char '-' range with
        | [ a; b ] -> (
          match (hex a, hex b, hex offset) with
          | Some a, Some b, Some off -> Some (a, b, off, path)
          | _ -> None)
        | _ -> None)
      | _ -> None)
    (lines_of_file "/proc/self/maps")

(* A position-independent executable's symbols are relative to where it
   was loaded: the start of its mapping at file offset 0. *)
let load_base exe maps =
  let is_pie =
    In_channel.with_open_bin exe (fun ic ->
        let h = really_input_string ic 18 in
        Char.code h.[16] = 3 (* ET_DYN *))
  in
  if not is_pie then 0
  else
    match List.find_opt (fun (_, _, off, p) -> p = exe && off = 0) maps with
    | Some (start, _, _, _) -> start
    | None -> failwith "no mapping of the executable at offset 0"

(* OCaml symbols lose their "caml" prefix, library path and stamp:
   camlFpc_tier__Tier.load_1234 -> Tier.load. *)
let clean_symbol s =
  let n = String.length s in
  let s =
    if n > 4 && String.sub s 0 4 = "caml" && s.[4] >= 'A' && s.[4] <= 'Z' then
      String.sub s 4 (n - 4)
    else s
  in
  let s =
    match String.index_opt s '.' with
    | None -> s
    | Some dot ->
      let modpath = String.sub s 0 dot in
      let rec last_sep i =
        if i < 1 then None
        else if modpath.[i] = '_' && modpath.[i - 1] = '_' then Some (i + 1)
        else last_sep (i - 1)
      in
      (match last_sep (dot - 1) with
      | Some k -> String.sub s k (String.length s - k)
      | None -> s)
  in
  let n = String.length s in
  let rec digits i = if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then digits (i - 1) else i in
  let d = digits n in
  if d < n && d > 0 && s.[d - 1] = '_' && String.contains s '.' then String.sub s 0 (d - 1)
  else s

let text_symbols exe =
  let syms =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ addr; ("t" | "T" | "W" | "w"); name ] ->
          Some (int_of_string ("0x" ^ addr), name)
        | _ -> None)
      (lines_of_command (Printf.sprintf "nm -n --defined-only %s" (Filename.quote exe)))
  in
  Array.of_list syms

(* The symbol containing [addr]: the last one starting at or below it. *)
let symbol_at syms addr =
  let rec go lo hi =
    (* invariant: syms.(lo) <= addr < syms.(hi) *)
    if hi - lo <= 1 then lo else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= addr then go mid hi else go lo mid
  in
  let n = Array.length syms in
  if n = 0 || addr < fst syms.(0) then None
  else Some (snd syms.(go 0 n))

(* addr2line over every distinct address at once. *)
let files_of exe addrs =
  let tmp = Filename.temp_file "fpc-prof" ".addrs" in
  Out_channel.with_open_text tmp (fun oc ->
      Array.iter (fun a -> Printf.fprintf oc "0x%x\n" a) addrs);
  let out =
    lines_of_command
      (Printf.sprintf "addr2line -e %s < %s" (Filename.quote exe) (Filename.quote tmp))
  in
  Sys.remove tmp;
  Array.of_list
    (List.map
       (fun l ->
         match String.rindex_opt l ':' with
         | Some i -> Filename.basename (String.sub l 0 i)
         | None -> l)
       out)

let bump tbl k c = Hashtbl.replace tbl k (c + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let print_top ~title ~total ~n tbl =
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl)) in
  Printf.printf "top %d %s (%% of %d samples):\n" n title total;
  List.iteri
    (fun i (k, c) ->
      if i < n then
        Printf.printf "  %6.2f%%  %7d  %s\n" (100.0 *. float_of_int c /. float_of_int total) c k)
    rows

let report ~top =
  let n = count () in
  if n = 0 then print_endline "no samples"
  else begin
    let exe = Unix.realpath Sys.executable_name in
    let maps = mappings () in
    let base = load_base exe maps in
    let syms = text_symbols exe in
    let in_exe = Hashtbl.create 4096 in
    let funcs = Hashtbl.create 1024 and files = Hashtbl.create 256 in
    for i = 0 to n - 1 do
      let pc = sample i in
      match List.find_opt (fun (a, b, _, _) -> pc >= a && pc < b) maps with
      | Some (_, _, _, p) when p = exe -> bump in_exe (pc - base) 1
      | Some (_, _, _, p) ->
        let k = "[" ^ Filename.basename p ^ "]" in
        bump funcs k 1;
        bump files k 1
      | None ->
        bump funcs "[unknown]" 1;
        bump files "[unknown]" 1
    done;
    let addrs = Array.of_seq (Hashtbl.to_seq_keys in_exe) in
    let file_names = files_of exe addrs in
    Array.iteri
      (fun i a ->
        let c = Hashtbl.find in_exe a in
        let f = match symbol_at syms a with Some s -> clean_symbol s | None -> "[no symbol]" in
        bump funcs f c;
        bump files (if i < Array.length file_names then file_names.(i) else "??") c)
      addrs;
    print_top ~title:"functions" ~total:n ~n:top funcs;
    print_top ~title:"files" ~total:n ~n:top files
  end

(* ---- main ---- *)

(* Every shape runs this often before the clock starts: the first pass
   compiles, translates and fills the arena; the second runs warm. *)
let warmup_passes = 2

(* ITIMER_PROF ticks at the kernel's HZ (4 ms on a 250 Hz kernel); a
   POSIX timer on CLOCK_MONOTONIC gives 40 times the samples. *)
let interval_us = 100

let () =
  let workload = ref "serve-hot"
  and seed = ref 1
  and jobs = ref 0
  and top = ref 30
  and engines = ref "i1,i2,i3,i4"
  and sampling = ref true in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W serve-hot (default) or serve-sessions");
      ("--engines", Arg.Set_string engines, "E,.. only these engines' shapes (default i1,i2,i3,i4)");
      ("--seed", Arg.Set_int seed, "N seed of the request order (default 1)");
      ("--jobs", Arg.Set_int jobs, "N timed jobs (default 4000 serve-hot, 1000 serve-sessions)");
      ("--top", Arg.Set_int top, "N functions and files to print (default 30)");
      ("--no-sample", Arg.Clear sampling, " time the jobs only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "prof.exe [options]: PC-sampling profile of a serving job mix";
  if not (supported ()) then begin
    prerr_endline "bench/prof: PC sampling needs Linux on x86-64; refusing to run";
    exit 2
  end;
  let engines = String.split_on_char ',' !engines in
  let shapes = Array.of_list (shapes ~engines !workload) in
  let jobs =
    if !jobs > 0 then !jobs else if !workload = "serve-sessions" then 1000 else 4000
  in
  let cache = Image_cache.create () in
  let arena = Pool.worker_arena cache in
  for _ = 1 to warmup_passes do
    Array.iteri (fun i line -> run_job cache arena i line) shapes
  done;
  let lines = Array.init jobs (pick shapes ~seed:!seed) in
  Gc.full_major ();
  if !sampling then start (interval_us * 1000);
  let a0 = Arena.stats arena in
  let g0 = Gc.quick_stat () in
  let t0 = Sys.time () in
  Array.iteri (fun i line -> run_job cache arena i line) lines;
  let cpu = Sys.time () -. t0 in
  if !sampling then stop ();
  (* brings the domain's major-heap counters up to date *)
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let a1 = Arena.stats arena in
  (* Words allocated straight into the major heap (blocks too large for
     the minor heap) are the major words that were not promoted. *)
  let direct (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  Printf.printf "%s seed %d: %d jobs over %d shapes after %d warm-up pass(es)\n" !workload
    !seed jobs (Array.length shapes) warmup_passes;
  Printf.printf "cpu_s %.3f  us_per_job %.1f\n" cpu (1e6 *. cpu /. float_of_int jobs);
  Printf.printf "arena hits %d misses %d images %d states %d\n"
    (a1.Arena.hits - a0.Arena.hits)
    (a1.Arena.misses - a0.Arena.misses)
    a1.Arena.images a1.Arena.states;
  Printf.printf "gc minor_words_per_job %.1f  direct_major_words_per_job %.1f\n"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int jobs)
    ((direct g1 -. direct g0) /. float_of_int jobs);
  if !sampling then begin
    Printf.printf "samples %d every %d us (%d dropped)\n" (count ()) interval_us (dropped ());
    report ~top:!top
  end
