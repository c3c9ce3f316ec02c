(** E9 — §7.3: why register banks rather than just a cache.

    "A register bank is faster than a cache... it is possible to read one
    register and write another in a single cycle, while two cycles are
    needed for a cache access"; "Half or more of all data memory
    references may be to local variables.  Removing this burden from the
    cache effectively doubles its bandwidth."

    We collect the data-reference stream of the compiled suite (engine I2,
    every local/global/pointer reference with its address), classify
    frame-region references, and replay the stream through a cache model
    twice: all references through the cache, and local-frame references
    diverted to one-cycle banks. *)

open Fpc_util
open Fpc_machine

let collect program =
  let engine = { Fpc_core.Engine.i2 with collect_data_trace = true } in
  let st = Harness.run_one ~engine ~program () in
  let layout = st.Fpc_core.State.image.Fpc_mesa.Image.layout in
  let refs =
    match st.Fpc_core.State.data_trace with
    | Some q -> List.of_seq (Queue.to_seq q)
    | None -> []
  in
  (layout, refs)

let run () =
  let params = Cost.params in
  let t =
    Tablefmt.create ~title:"Data references: cache alone vs banks + cache"
      ~columns:
        [
          ("program", Tablefmt.Left);
          ("data refs", Tablefmt.Right);
          ("frame-region share", Tablefmt.Right);
          ("cache-only cycles", Tablefmt.Right);
          ("banks+cache cycles", Tablefmt.Right);
          ("speedup", Tablefmt.Right);
          ("cache load shed", Tablefmt.Right);
        ]
  in
  let shares = ref [] and speedups = ref [] in
  List.iter
    (fun program ->
      let layout, refs = collect program in
      let total = List.length refs in
      let locals =
        List.length
          (List.filter (fun (a, _) -> Fpc_mesa.Layout.in_frame_region layout a) refs)
      in
      let share = Harness.ratio locals total in
      (* Pass 1: everything through one cache. *)
      let cache_all = Cache.create () in
      List.iter (fun (a, w) -> ignore (Cache.access cache_all ~address:a ~write:w)) refs;
      let cycles_all = Cache.cycles cache_all in
      (* Pass 2: frame-region references served by banks at one cycle. *)
      let cache_rest = Cache.create () in
      let bank_cycles = ref 0 in
      List.iter
        (fun (a, w) ->
          if Fpc_mesa.Layout.in_frame_region layout a then
            bank_cycles := !bank_cycles + params.bank_ref_cycles
          else ignore (Cache.access cache_rest ~address:a ~write:w))
        refs;
      let cycles_banked = Cache.cycles cache_rest + !bank_cycles in
      let speedup = Harness.ratio cycles_all cycles_banked in
      shares := share :: !shares;
      speedups := speedup :: !speedups;
      Tablefmt.add_row t
        [
          program;
          Tablefmt.cell_int total;
          Tablefmt.cell_pct share;
          Tablefmt.cell_int cycles_all;
          Tablefmt.cell_int cycles_banked;
          Tablefmt.cell_ratio speedup;
          Tablefmt.cell_pct share;
        ])
    Fpc_workload.Programs.sequential;
  Tablefmt.add_note t
    (Printf.sprintf
       "bank reference = %d cycle, cache hit = %d cycles (\xC2\xA77.3's \
        relationship); shed load = cache accesses eliminated"
       params.bank_ref_cycles params.cache_hit_cycles);
  let mean l =
    match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  {
    Exp.id = "E9";
    key = "bank_vs_cache";
    title = "Register banks vs a data cache";
    paper_claim =
      "half or more of data references are to locals; serving them from \
       banks frees the cache and wins on latency (\xC2\xA77.3)";
    tables = [ Tablefmt.render t ];
    headlines =
      [
        ("mean_local_share", mean !shares);
        ("mean_speedup", mean !speedups);
      ];
  }
