(* The traced run: the workload's request stream driven in-process through
   the same public functions the server calls, in the server's order, with
   a span around each call.  Layers are measured from outside; nothing in
   the libraries is instrumented. *)

open Fpc_svc
module Stream = Workload.Stream

(* ---- spans ---- *)

type span = {
  sid : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** -1 for a root *)
  req : int;  (** stream index of the request the span belongs to *)
}

type recorder = {
  mutable spans : span list;  (** the first [max_kept] spans, newest first *)
  mutable kept : int;
  mutable next : int;
  durations : (string, Stat.Buf.t) Hashtbl.t;  (** seconds, per span name *)
}

(* Durations feed the metrics from every span; the trace file keeps the
   first spans of each workload, which is enough to read a request's path
   and keeps the file to a few megabytes. *)
let max_kept = 50_000

let recorder () = { spans = []; kept = 0; next = 0; durations = Hashtbl.create 32 }

let fresh r =
  let id = r.next in
  r.next <- id + 1;
  id

let durations r name =
  match Hashtbl.find_opt r.durations name with
  | Some b -> b
  | None ->
    let b = Stat.Buf.create () in
    Hashtbl.replace r.durations name b;
    b

let record r ?(sid = fresh r) ~name ~parent ~req t0 t1 =
  if r.kept < max_kept then begin
    r.spans <- { sid; name; t0; t1; parent; req } :: r.spans;
    r.kept <- r.kept + 1
  end;
  Stat.Buf.add (durations r name) (t1 -. t0)

(* [timed r ~name ~parent ~req f]: run [f] inside a span; returns its result
   and duration in seconds. *)
let timed r ~name ~parent ~req f =
  let t0 = Clock.now () in
  let x = f () in
  let t1 = Clock.now () in
  record r ~name ~parent ~req t0 t1;
  (x, t1 -. t0)

(* Chrome trace-event JSON: one complete ("X") event per kept span, one
   track per workload, timestamps in microseconds from [origin].  Appends
   the events, comma-separated, to [buf]. *)
let chrome_events buf ~origin ~tid r =
  List.iter
    (fun s ->
      if Buffer.length buf > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name ((s.t0 -. origin) *. 1e6) ((s.t1 -. s.t0) *. 1e6) tid s.sid s.parent s.req)
    (List.rev r.spans)

(* What one span costs the traced run: two clock reads and a record. *)
let span_cost_s () =
  let r = recorder () in
  let n = 20_000 in
  let t0 = Clock.now () in
  for i = 1 to n do
    ignore (timed r ~name:"calibrate" ~parent:(-1) ~req:i (fun () -> ()))
  done;
  (Clock.now () -. t0) /. float_of_int n

(* ---- the traced request path ---- *)

type totals = {
  mutable jobs : int;
  mutable failed : int;
  mutable wrong : int;
  mutable instructions : int;  (** on the compiled tier *)
  mutable interp_instructions : int;
  mutable calls : int;
  mutable xfers : int;
  mutable fast_xfers : int;
  mutable slow_xfers : int;
  mutable lazy_translations : int;
  mutable fused_calls : int;
  mutable deopts : int;
  mutable switches : int;
  mutable dv_sites : int;
  mutable dv_rewritten : int;
  mutable dv_abstained : int;
  mutable expected_misses : int;  (** first sight of a (source, convention) *)
}

type traced = {
  rec_ : recorder;
  t : totals;
  requests : int;
  t_start : float;
  wall_s : float;
  cache : Image_cache.stats;
  arena : Arena.stats;
  run_per_job : Stat.Buf.t;  (** Tier.run time summed over a job's slices *)
  render_bytes : Stat.Buf.t;
}

let ok_or_fail what = function Ok x -> x | Error m -> failwith (what ^ ": " ^ m)

let run_traced ~(ck : Load.checker) ~budget_s =
  let r = recorder () in
  let t =
    {
      jobs = 0; failed = 0; wrong = 0; instructions = 0; interp_instructions = 0;
      calls = 0; xfers = 0; fast_xfers = 0; slow_xfers = 0; lazy_translations = 0;
      fused_calls = 0; deopts = 0; switches = 0; dv_sites = 0; dv_rewritten = 0;
      dv_abstained = 0; expected_misses = 0;
    }
  in
  (* The server's state for one worker: a cache, the worker's arena and a
     push-mode framing.  The interpreter reference gets its own cache and
     arena so it moves none of their counters. *)
  let cache = Image_cache.create () in
  let arena = Arena.create () in
  let ref_cache = Image_cache.create () in
  let ref_arena = Arena.create () in
  let fr = Fpc_net.Framing.pushable () in
  let run_per_job = Stat.Buf.create () and render_bytes = Stat.Buf.create () in
  let seen = Hashtbl.create 1024 in
  let one idx =
    let req = idx in
    let root = fresh r in
    let t_root = Clock.now () in
    let span name f = fst (timed r ~name ~parent:root ~req f) in
    let line = Stream.line ck.Load.stream idx in
    let line =
      span "framing" (fun () ->
          Fpc_net.Framing.feed fr line 0 (String.length line);
          Fpc_net.Framing.feed fr "\n" 0 1;
          match Fpc_net.Framing.poll fr with
          | Some (Fpc_net.Framing.Line l) -> l
          | _ -> failwith "framing lost a request line")
    in
    (* the server's defaults: tier left to the service (compiled, as no
       job is traced), devirt on *)
    let spec, engine, source =
      span "job.parse" (fun () ->
          let spec = ok_or_fail "request" (Job.parse_request line) in
          let spec = { spec with Job.devirt = Some true } in
          ( spec,
            ok_or_fail "engine" (Job.engine_of_name spec.Job.engine),
            ok_or_fail "source" (Job.source_text spec.Job.source) ))
    in
    let convention = Fpc_compiler.Convention.for_engine engine in
    (* A miss again, piece by piece, beside the request: the pieces of
       Compile.image with devirtualization on, as the cache runs them.
       Whichever of the two compiles runs second finds warm caches, so
       every other expected miss runs its side compile first. *)
    let side_compile () =
      let side = fresh r in
      let t_side = Clock.now () in
      let piece name f = fst (timed r ~name ~parent:side ~req f) in
      let prog =
        ok_or_fail "parse" (piece "lang.parse" (fun () -> Fpc_lang.Parser.parse source))
      in
      let env =
        ok_or_fail "typecheck"
          (piece "lang.typecheck" (fun () -> Fpc_lang.Typecheck.check prog))
      in
      let lowered = piece "compiler.lower" (fun () -> Fpc_compiler.Lower.program prog) in
      let compiled =
        piece "compiler.codegen" (fun () ->
            List.map
              (Fpc_compiler.Codegen.module_decl ~env ~convention ~devirt:true)
              lowered)
      in
      let image =
        ok_or_fail "link"
          (piece "mesa.link" (fun () ->
               Fpc_mesa.Linker.link ~linkage:convention.Fpc_compiler.Convention.linkage
                 ~devirt:true compiled))
      in
      let dv = piece "cfa.devirt" (fun () -> Fpc_cfa.Cfa.devirtualize image) in
      t.dv_sites <- t.dv_sites + dv.Fpc_mesa.Image.dv_sites;
      t.dv_rewritten <- t.dv_rewritten + dv.Fpc_mesa.Image.dv_rewritten;
      t.dv_abstained <- t.dv_abstained + dv.Fpc_mesa.Image.dv_abstained;
      record r ~sid:side ~name:"compile.side" ~parent:root ~req t_side (Clock.now ())
    in
    let side_first =
      (not (Hashtbl.mem seen (source, convention)))
      && begin
           Hashtbl.replace seen (source, convention) ();
           t.expected_misses <- t.expected_misses + 1;
           t.expected_misses mod 2 = 0
         end
    in
    if side_first then side_compile ();
    let found, cache_s =
      timed r ~name:"cache" ~parent:root ~req (fun () ->
          Image_cache.find_pristine cache ~tier:"compiled" ~devirt:true ~convention
            ~source)
    in
    let pristine, key, hit, compile_s = ok_or_fail "compile" found in
    Stat.Buf.add (durations r (if hit then "cache.hit" else "cache.miss")) cache_s;
    if (not hit) && not side_first then side_compile ();
    let slot, st =
      span "arena.reset" (fun () ->
          let slot =
            Arena.acquire arena ~key ~engine ~engine_name:spec.Job.engine
              ~tier_name:"compiled" ~pristine ()
          in
          let st = Arena.checkout slot in
          Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
          (slot, st))
    in
    let (tr, tr_hit), attach_s =
      timed r ~name:"tier.attach" ~parent:root ~req (fun () ->
          Fpc_tier.Tier.of_image (Arena.image slot))
    in
    let mw0 = Gc.minor_words () in
    let t_run = Clock.now () in
    let tier_s = ref 0.0 in
    let sched_policy = Job.effective_sched spec in
    let report =
      match sched_policy with
      | None ->
        let (), d =
          timed r ~name:"tier.run" ~parent:root ~req (fun () ->
              Fpc_tier.Tier.run ~max_steps:spec.Job.fuel tr st)
        in
        tier_s := d;
        None
      | Some policy ->
        let sid = fresh r in
        let t0 = Clock.now () in
        let step n st =
          let (), d =
            timed r ~name:"tier.slice" ~parent:sid ~req (fun () ->
                Fpc_tier.Tier.run ~max_steps:n tr st)
          in
          tier_s := !tier_s +. d
        in
        let stats = Fpc_sched.Sched.run ~policy ~step ~fuel:spec.Job.fuel st in
        record r ~sid ~name:"sched.run" ~parent:root ~req t0 (Clock.now ());
        Some (Fpc_sched.Sched.report ~stats st)
    in
    let run_s = Clock.now () -. t_run in
    Stat.Buf.add run_per_job !tier_s;
    let o = Fpc_interp.Interp.outcome st in
    let m = st.Fpc_core.State.metrics in
    t.jobs <- t.jobs + 1;
    t.instructions <- t.instructions + m.Fpc_core.State.instructions;
    t.calls <- t.calls + m.Fpc_core.State.calls;
    t.xfers <-
      t.xfers + m.Fpc_core.State.calls + m.Fpc_core.State.returns
      + m.Fpc_core.State.other_xfers;
    t.fast_xfers <- t.fast_xfers + m.Fpc_core.State.fast_transfers;
    t.slow_xfers <- t.slow_xfers + m.Fpc_core.State.slow_transfers;
    t.lazy_translations <-
      t.lazy_translations + m.Fpc_core.State.tier_lazy_translations;
    t.fused_calls <- t.fused_calls + m.Fpc_core.State.tier_fused_calls;
    t.deopts <- t.deopts + m.Fpc_core.State.tier_deopts;
    (match report with
    | Some rp -> t.switches <- t.switches + rp.Fpc_sched.Sched.switch_xfers
    | None -> ());
    (* The interpreter on a slot of its own: the reference the tier is
       measured against, off the request path. *)
    let ipristine, ikey, _, _ =
      ok_or_fail "compile"
        (Image_cache.find_pristine ref_cache ~tier:"interp" ~devirt:true ~convention
           ~source)
    in
    let ist =
      let islot =
        Arena.acquire ref_arena ~key:ikey ~engine ~engine_name:spec.Job.engine
          ~tier_name:"interp" ~pristine:ipristine ()
      in
      let ist = Arena.checkout islot in
      Fpc_core.Transfer.start ist ~instance:"Main" ~proc:"main" ~args:[];
      ist
    in
    ignore
      (timed r ~name:"interp.run" ~parent:root ~req (fun () ->
           let step n st = Fpc_interp.Interp.run ~max_steps:n st in
           match sched_policy with
           | None -> step spec.Job.fuel ist
           | Some policy ->
             ignore (Fpc_sched.Sched.run ~policy ~step ~fuel:spec.Job.fuel ist)));
    t.interp_instructions <-
      t.interp_instructions + ist.Fpc_core.State.metrics.Fpc_core.State.instructions;
    let outcome =
      match o.Fpc_interp.Interp.o_status with
      | Fpc_core.State.Halted -> Job.Output o.Fpc_interp.Interp.o_output
      | s ->
        Job.Failed
          ( Job.Internal,
            match s with
            | Fpc_core.State.Trapped tr -> Fpc_core.State.trap_reason_to_string tr
            | _ -> "still running" )
    in
    let result =
      {
        Job.id = idx;
        spec;
        outcome;
        stats =
          {
            Job.cache_hit = hit;
            compile_s;
            run_s;
            minor_words = int_of_float (Gc.minor_words () -. mw0);
            translation =
              Job.Translated
                {
                  hit = tr_hit;
                  translate_s = attach_s;
                  lazy_translated = m.Fpc_core.State.tier_lazy_translations;
                  fused_calls = m.Fpc_core.State.tier_fused_calls;
                  procs = Fpc_tier.Tier.procs tr;
                  procs_translated = Fpc_tier.Tier.procs_translated tr;
                  invalidations = Fpc_tier.Tier.invalidations tr;
                };
            instructions = o.Fpc_interp.Interp.o_instructions;
            cycles = o.Fpc_interp.Interp.o_cycles;
            mem_refs = o.Fpc_interp.Interp.o_mem_refs;
            fastpath = o.Fpc_interp.Interp.o_fastpath;
            devirt_stats = pristine.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt;
          };
        profile = None;
        sched = report;
      }
    in
    let reply =
      span "job.render" (fun () ->
          Fpc_util.Jsonout.to_string (Job.result_to_json ~times:true result))
    in
    Stat.Buf.add render_bytes (float_of_int (String.length reply));
    (match Load.classify ck idx reply with
    | Load.Ok -> ()
    | Load.Wrong -> t.wrong <- t.wrong + 1
    | _ -> t.failed <- t.failed + 1);
    record r ~sid:root ~name:"request" ~parent:(-1) ~req t_root (Clock.now ())
  in
  let t0 = Clock.now () in
  let stop = t0 +. budget_s in
  let i = ref 0 in
  while Clock.now () < stop do
    Stream.prefill ck.Load.stream (!i + 1);
    one !i;
    incr i
  done;
  {
    rec_ = r;
    t;
    requests = !i;
    t_start = t0;
    wall_s = Clock.now () -. t0;
    cache = Image_cache.stats cache;
    arena = Arena.stats arena;
    run_per_job;
    render_bytes;
  }

(* ---- the pool, fed open-loop ---- *)

type pool_run = {
  queue_wait_s : float array;  (** per job: sojourn - compile - run *)
  busy_s : float;  (** summed compile + run *)
  pool_wall_s : float;
  pool_jobs : int;
  pool_failed : int;
  pool_wrong : int;
}

(* An in-process Pool of one worker in deliver mode, the server's mode, fed
   with Poisson arrivals at [rate] for [dur] seconds.  Queue wait is each
   job's submit-to-deliver time less the compile and run time the result
   reports. *)
let run_pool ~(ck : Load.checker) ~base ~rng ~rate ~dur r =
  let dues = Stat.Buf.create () in
  let t0 = Clock.now () +. 0.002 in
  let t = ref t0 in
  while !t < t0 +. dur do
    Stat.Buf.add dues !t;
    t := !t +. Load.exponential rng rate
  done;
  let dues = Stat.Buf.to_array dues in
  let n = Array.length dues in
  Stream.prefill ck.Load.stream (base + n);
  let specs =
    Array.init n (fun k ->
        let line = Stream.line ck.Load.stream (base + k) in
        let spec = ok_or_fail "request" (Job.parse_request line) in
        { spec with Job.devirt = Some true })
  in
  let submitted = Array.make n Float.nan and delivered = Array.make n Float.nan in
  let busy = Array.make n 0.0 and outcomes = Array.make n None in
  let deliver (res : Job.result) =
    let k = res.Job.id in
    delivered.(k) <- Clock.now ();
    busy.(k) <- res.Job.stats.Job.compile_s +. res.Job.stats.Job.run_s;
    outcomes.(k) <- Some res.Job.outcome
  in
  let pool = Pool.create ~domains:1 ~deliver () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      Array.iteri
        (fun k due ->
          Clock.sleep_until due;
          submitted.(k) <- Clock.now ();
          ignore (Pool.submit pool specs.(k)))
        dues;
      Pool.drain pool);
  let last = Array.fold_left Float.max t0 delivered in
  let queue_wait_s =
    Array.init n (fun k -> delivered.(k) -. submitted.(k) -. busy.(k))
  in
  Array.iteri
    (fun k s ->
      record r ~name:"pool.sojourn" ~parent:(-1) ~req:(base + k) s delivered.(k))
    submitted;
  (* Check the answers the way replies are checked, from the fragment the
     server would render. *)
  let failed = ref 0 and wrong = ref 0 in
  Array.iteri
    (fun k o ->
      match o with
      | Some (Job.Output words) -> (
        let reply = "{" ^ Workload.fragment_of_output words ^ "}" in
        match Load.classify ck (base + k) reply with
        | Load.Ok -> ()
        | Load.Wrong -> incr wrong
        | _ -> incr failed)
      | Some (Job.Failed _) | None -> incr failed)
    outcomes;
  {
    queue_wait_s;
    busy_s = Array.fold_left ( +. ) 0.0 busy;
    pool_wall_s = last -. t0;
    pool_jobs = n;
    pool_failed = !failed;
    pool_wrong = !wrong;
  }
