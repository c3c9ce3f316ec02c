(* The host-side benchmark harness: host time, and nothing else.  The
   simulated meters (cycles, storage references, transfers, frame
   footprints) are exact, so they live in the tables `fpc experiment`
   prints, which test/experiments.t pins byte for byte; serving latency
   is bench/serve's.  What is left is how fast this host runs the
   simulator, and that is a distribution, so every key is sampled at
   least 11 times and recorded as median, p25, p75 and n.  Five layers:

   1. `micro`: the whole suite under the interpreter and the compiled
      tier per engine; the frame allocator, the return stack and the
      bank file; tier translation of the fib image; cross-call fusion on
      the call-dense kernels; link-time devirtualization on the
      cross-module ones.

   2. `svc`: the suite x all four engines pushed through an
      Fpc_svc.Pool at 1 and 2 worker domains (no more than the host
      recommends), widths sampled alternately, both tiers.  The cache is
      warmed and the domains are spawned before the clock starts; only
      submit->await is timed.

   3. `trace`: the call-heavy fib run with the XFER tracer absent (the
      null-sink path every ordinary run takes) versus attached with a
      streaming profile.

   4. `sched`: the generated session workload streamed through the
      lib/sched green-thread scheduler at 100/1k/10k sessions under both
      execution tiers.

   5. `net [--conns N] [--pipeline K]`: the reactor's claim.  A spawned
      `fpc serve --tcp` is driven at 100 and 1000 connections (capped at
      N, default 1000) by this process's one thread, while a poller
      samples the server's /proc thread and fd tables.  Every round trip
      must answer ok, and the server's OS threads must stay within the
      reactor's constant bound.  Each round is one sample.

   With no layer argument all five run.  `--smoke` shrinks them to a
   CI sanity pass: 3 samples a key, tiny job sets, net capped at 100
   connections.  `--json` writes BENCH_results.json, replacing it whole:
   one host block and every key the run recorded; it is accepted only on
   a full run (no layer argument, no --smoke, --conns or --pipeline), so
   the file always comes from one run of one build. *)

let samples = ref 11

(* Seconds [f] takes. *)
let time f =
  let t0 = Fpc_util.Clock.now () in
  f ();
  Fpc_util.Clock.now () -. t0

(* One sample: seconds per call over [runs] back-to-back calls. *)
let per_call ?(runs = 1) f () =
  time (fun () ->
      for _ = 1 to runs do
        f ()
      done)
  /. float_of_int runs

(* The one sampler.  [!samples] rounds, each taking one sample of every
   measure in [ms] in turn, so the host's drift falls on all of them
   alike instead of on whichever ran last; an untimed warm-up round goes
   first.  A measure returns one sample, in seconds; the result holds
   each measure's samples, in order. *)
let sample ms =
  let ms = Array.of_list ms in
  Array.iter (fun m -> ignore (m () : float)) ms;
  let out = Array.map (fun _ -> Array.make !samples 0.0) ms in
  for i = 0 to !samples - 1 do
    Array.iteri (fun k m -> out.(k).(i) <- m ()) ms
  done;
  Array.to_list (Array.map Array.to_list out)

let sample2 a b =
  match sample [ a; b ] with [ xa; xb ] -> (xa, xb) | _ -> assert false

(* Measurements destined for BENCH_results.json, newest first: each
   key's median and quartiles over its samples, in its metric's unit. *)
type entry = {
  name : string;
  metric : string;
  median : float;
  p25 : float;
  p75 : float;
  n : int;
}

let recorded : entry list ref = ref []

let record name metric xs =
  let p25, p75 = Stat.quartiles xs in
  recorded :=
    { name; metric; median = Stat.median xs; p25; p75; n = List.length xs }
    :: !recorded
let ns xs = List.map (fun s -> s *. 1e9) xs
let per_sec count xs = List.map (fun s -> float_of_int count /. s) xs

(* Run one layer and print what it recorded, median (p25-p75) per key. *)
let layer title f =
  let skip = List.length !recorded in
  f ();
  let fresh = List.filteri (fun i _ -> i >= skip) (List.rev !recorded) in
  let open Fpc_util.Tablefmt in
  let tb =
    create ~title
      ~columns:
        [ ("key", Left); ("metric", Left); ("median", Right); ("p25", Right);
          ("p75", Right); ("n", Right) ]
  in
  let g x =
    if Float.abs x >= 100.0 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.3g" x
  in
  List.iter
    (fun e -> add_row tb [ e.name; e.metric; g e.median; g e.p25; g e.p75; cell_int e.n ])
    fresh;
  print tb;
  print_newline ()

(* The first line [cmd] prints, if it exits 0. *)
let command_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None)

let write_json path =
  let open Fpc_util.Jsonout in
  let nproc =
    match Option.bind (command_line "nproc") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let host =
    Obj
      [ ("nproc", Int nproc); ("ocaml", String Sys.ocaml_version);
        ("word_size", Int Sys.word_size);
        ( "commit",
          match command_line "git describe --always --dirty" with
          | Some c -> String c
          | None -> Null ) ]
  in
  let entries =
    List.rev_map
      (fun e ->
        Obj
          [ ("name", String e.name); ("metric", String e.metric);
            ("median", Float e.median); ("p25", Float e.p25);
            ("p75", Float e.p75); ("n", Int e.n) ])
      !recorded
  in
  let oc = open_out path in
  output_string oc (pretty (Obj [ ("host", host); ("results", List entries) ]));
  close_out oc;
  Printf.printf "wrote %d measurements to %s\n" (List.length entries) path

(* ------------------------------------------------------------------ *)

let engines =
  [ ("i1", Fpc_core.Engine.i1); ("i2", Fpc_core.Engine.i2);
    ("i3", Fpc_core.Engine.i3 ()); ("i4", Fpc_core.Engine.i4 ()) ]

let compile ?devirt ~engine source =
  let convention = Fpc_compiler.Convention.for_engine engine in
  match Fpc_compiler.Compile.image ~convention ?devirt source with
  | Ok image -> image
  | Error m -> failwith ("bench compile: " ^ m)

let image_of ?devirt ~engine prog =
  compile ?devirt ~engine (Fpc_workload.Programs.find prog)

let boot ~engine image =
  Fpc_interp.Interp.boot ~image:(Fpc_mesa.Image.clone image) ~engine
    ~instance:"Main" ~proc:"main" ~args:[] ()

let must_halt (st : Fpc_core.State.t) =
  if st.Fpc_core.State.status <> Fpc_core.State.Halted then
    failwith "bench: a run did not halt"

let run_interp ~engine image () =
  let st = boot ~engine image in
  Fpc_interp.Interp.run st;
  must_halt st

let run_tier ~engine image tier () =
  let st = boot ~engine image in
  Fpc_tier.Tier.run tier st;
  must_halt st

(* The whole suite under each tier, per engine: the host time the
   compiled tier saves (E16 checks that it changes no meter).  A sample
   is one run of every program, boots and translation excluded. *)
let run_suite () =
  List.iter
    (fun (ename, engine) ->
      let progs =
        List.map
          (fun p ->
            let image = image_of ~engine p in
            (image, Fpc_tier.Tier.translate image))
          Fpc_workload.Programs.names
      in
      let suite run () =
        List.fold_left
          (fun acc (image, tr) ->
            let st = boot ~engine image in
            let s = time (fun () -> run tr st) in
            must_halt st;
            acc +. s)
          0.0 progs
      in
      let interp, tier =
        sample2
          (suite (fun _ st -> Fpc_interp.Interp.run st))
          (suite (fun tr st -> Fpc_tier.Tier.run tr st))
      in
      let name = "micro/fpc/suite/" ^ ename in
      record name "interp_ns_per_suite" (ns interp);
      record name "tier_ns_per_suite" (ns tier))
    engines

(* The machine's structures alone, 1000 operations a call. *)
let run_structures () =
  let open Fpc_machine in
  let allocator () =
    let cost = Cost.create () in
    let mem = Memory.create ~cost ~size_words:65536 () in
    let av =
      Fpc_frames.Alloc_vector.create ~mem ~ladder:Fpc_frames.Size_class.default
        ~av_base:16 ~heap_base:1024 ~heap_limit:65536 ()
    in
    for _ = 1 to 1000 do
      let lf = Fpc_frames.Alloc_vector.alloc_words av ~cost ~body_words:8 in
      Fpc_frames.Alloc_vector.free av ~cost ~lf
    done
  in
  let return_stack () =
    let rs = Fpc_ifu.Return_stack.create ~depth:16 in
    for _ = 1 to 1000 do
      Fpc_ifu.Return_stack.push rs ~lf:8192 ~gf:4096 ~cb:32768 ~pc_abs:65536
        ~bank:Fpc_ifu.Return_stack.no_bank;
      ignore (Fpc_ifu.Return_stack.try_pop rs)
    done
  in
  let banks () =
    let cost = Cost.create () in
    let mem = Memory.create ~cost ~size_words:65536 () in
    let bf =
      Fpc_regbank.Bank_file.create ~mem ~cost ~ladder:Fpc_frames.Size_class.default ()
    in
    Memory.poke mem 8192 0;
    for _ = 1 to 1000 do
      Fpc_regbank.Bank_file.on_call bf ~callee_lf:8196 ~payload_words:8
        ~args:[| 1; 2 |];
      Fpc_regbank.Bank_file.release_frame bf ~lf:8196
    done
  in
  let keys =
    [ "micro/fpc/allocator/alloc+free"; "micro/fpc/return_stack/push+pop";
      "micro/fpc/bank_file/call+return" ]
  in
  List.iter2
    (fun name xs -> record name "ns_per_run" (ns xs))
    keys
    (sample (List.map (per_call ~runs:10) [ allocator; return_stack; banks ]))

(* Translation time: what attaching the compiled tier to a freshly
   linked image costs, on the call-heavy fib image.  One-time per cached
   image, but it sits on the first-request path. *)
let run_translate () =
  let images = List.map (fun (_, engine) -> image_of ~engine "fib") engines in
  List.iter2
    (fun (ename, _) xs ->
      record
        ("compile/fib/" ^ String.uppercase_ascii ename)
        "translate_ms" (List.map (fun s -> s *. 1e3) xs))
    engines
    (sample
       (List.map
          (fun image ->
            per_call ~runs:20 (fun () -> ignore (Fpc_tier.Tier.translate image)))
          images))

(* Cross-call fusion on the call-dense kernels: interpreter versus the
   lazily attached compiled tier, per engine (E18 counts what fuses). *)
let run_tier_calls () =
  List.iter
    (fun prog ->
      List.iter
        (fun (ename, engine) ->
          let image = image_of ~engine prog in
          let tier, _ = Fpc_tier.Tier.of_image image in
          let interp, tier =
            sample2
              (per_call ~runs:5 (run_interp ~engine image))
              (per_call ~runs:5 (run_tier ~engine image tier))
          in
          let name = Printf.sprintf "micro/fpc/tier/calls/%s/%s" prog ename in
          record name "interp_ns_per_run" (ns interp);
          record name "tier_ns_per_run" (ns tier))
        engines)
    Fpc_workload.Programs.call_dense

(* Link-time devirtualization on the cross-module kernels: the
   late-bound image versus the devirtualized one, interpreted under
   I1/I2 (the externally linked pairings; E19 counts the references and
   cycles it saves). *)
let run_devirt () =
  List.iter
    (fun prog ->
      List.iter
        (fun (ename, engine) ->
          let base = image_of ~devirt:false ~engine prog in
          let dv = image_of ~devirt:true ~engine prog in
          let b, d =
            sample2
              (per_call ~runs:5 (run_interp ~engine base))
              (per_call ~runs:5 (run_interp ~engine dv))
          in
          let name = Printf.sprintf "micro/fpc/devirt/%s/%s" prog ename in
          record name "interp_ns_per_run_base" (ns b);
          record name "interp_ns_per_run_devirt" (ns d))
        [ ("i1", Fpc_core.Engine.i1); ("i2", Fpc_core.Engine.i2) ])
    [ "callchain"; "leafcalls"; "xleaf" ]

let run_micro () =
  run_suite ();
  run_structures ();
  run_translate ();
  run_tier_calls ();
  run_devirt ()

(* ------------------------------------------------------------------ *)

(* Pool scaling: the suite x all four engines (twice over on a full
   run), at 1 and 2 domains, no wider than the host recommends: a width
   beyond the core count measures oversubscription.  One image cache,
   warmed before any clock starts, serves every width; the pools are
   created (domains spawned) off the clock, and a sample is exactly
   submit -> await of the whole job set.  Every job must succeed.
   `svc/scaling/*` is the interpreter, `svc/scaling/tier/*` the compiled
   tier. *)
let run_svc ~smoke () =
  let programs = if smoke then [ "fib"; "hanoi" ] else Fpc_workload.Programs.names in
  let check_all_ok results =
    List.iter
      (fun (r : Fpc_svc.Job.result) ->
        match r.Fpc_svc.Job.outcome with
        | Fpc_svc.Job.Output _ -> ()
        | Fpc_svc.Job.Failed (_, m) ->
          failwith (Printf.sprintf "svc bench job %d failed: %s" r.Fpc_svc.Job.id m))
      results
  in
  let widths =
    List.filter (fun w -> w <= Fpc_svc.Pool.recommended_domains ()) [ 1; 2 ]
  in
  List.iter
    (fun (tier, key_prefix) ->
      let specs =
        List.concat_map
          (fun name ->
            List.map
              (fun (engine, _) -> Fpc_svc.Job.spec ~engine ~tier (Fpc_svc.Job.Suite name))
              engines)
          programs
      in
      let specs = if smoke then specs else specs @ specs in
      let njobs = List.length specs in
      let cache = Fpc_svc.Image_cache.create () in
      check_all_ok (fst (Fpc_svc.Pool.run_jobs ~domains:1 ~cache specs));
      let pools = List.map (fun domains -> Fpc_svc.Pool.create ~domains ~cache ()) widths in
      let measure pool () =
        let results = ref [] in
        let s =
          time (fun () ->
              List.iter (fun spec -> ignore (Fpc_svc.Pool.submit pool spec)) specs;
              results := Fpc_svc.Pool.await pool)
        in
        check_all_ok !results;
        if List.length !results <> njobs then
          failwith "svc bench: not every job came back";
        s
      in
      let xs = sample (List.map measure pools) in
      List.iter Fpc_svc.Pool.shutdown pools;
      List.iter2
        (fun domains xs ->
          record (Printf.sprintf "%s/%dd" key_prefix domains) "jobs_per_sec"
            (per_sec njobs xs))
        widths xs)
    [ (Fpc_svc.Job.Interp, "svc/scaling"); (Fpc_svc.Job.Compiled, "svc/scaling/tier") ]

(* ------------------------------------------------------------------ *)

(* Tracing overhead, off and on.  The off side is the path every
   untraced run takes — instrumentation reduces to one match on
   [State.tracer] per transfer.  The on side attaches a full streaming
   profile, the worst case [trace=1] pays. *)
let run_trace ~smoke () =
  List.iter
    (fun (ename, engine) ->
      let image = image_of ~engine "fib" in
      (* both sides run on a fresh clone *)
      let on () =
        let image = Fpc_mesa.Image.clone image in
        let p = Fpc_interp.Profiler.create ~capacity:1024 ~image ~engine () in
        let st, _ =
          Fpc_interp.Profiler.run p ~image ~engine ~instance:"Main" ~proc:"main"
            ~args:[]
        in
        must_halt st
      in
      let off, on =
        sample2 (per_call ~runs:5 (run_interp ~engine image)) (per_call ~runs:5 on)
      in
      let name = "trace/fib/" ^ String.uppercase_ascii ename in
      record name "off_ns_per_run" (ns off);
      record name "on_ns_per_run" (ns on))
    (if smoke then [ List.hd engines ] else engines)

(* ------------------------------------------------------------------ *)

(* Session-scheduler throughput: the generated session workload
   (Fpc_workload.Sessions) streamed through the green-thread scheduler
   on I2, run-to-yield, under both execution tiers, the image compiled
   once per scale (E17 reports its footprint, exactly). *)
let run_sched ~smoke () =
  let engine = Fpc_core.Engine.i2 in
  let scales =
    if smoke then [ ("64", 64) ] else [ ("100", 100); ("1k", 1_000); ("10k", 10_000) ]
  in
  List.iter
    (fun (label, total) ->
      let image =
        compile ~engine (Fpc_workload.Sessions.program (Fpc_workload.Sessions.default ~total))
      in
      let translation = Fpc_tier.Tier.translate image in
      let drive step () =
        let st = boot ~engine image in
        let s = time (fun () -> ignore (Fpc_sched.Sched.run ~step ~fuel:50_000_000 st)) in
        must_halt st;
        s
      in
      let interp, tier =
        sample2
          (drive (fun n st -> Fpc_interp.Interp.run ~max_steps:n st))
          (drive (fun n st -> Fpc_tier.Tier.run ~max_steps:n translation st))
      in
      let name = "sched/sessions/" ^ label in
      record name "sessions_per_sec_interp" (per_sec total interp);
      record name "sessions_per_sec_tier" (per_sec total tier))
    scales

(* ------------------------------------------------------------------ *)

(* The high-concurrency ladder: the reactor's claim that a server's OS
   threads stay constant while its connections scale.  The server runs
   as a spawned `fpc serve --tcp` subprocess rather than in-process, for
   two reasons: its fd numbers stay small (the select backend caps fds
   at FD_SETSIZE, and the bench's own 1000 client sockets would blow
   through that in a shared process), and /proc/<pid> then describes the
   server alone — the thread and fd tables ARE the claim under test. *)

let fpc_binary () =
  (* bench runs from _build/default/bench/main.exe; fpc sits next door. *)
  let dir = Filename.dirname Sys.executable_name in
  let candidate =
    Filename.concat (Filename.dirname dir) (Filename.concat "bin" "fpc.exe")
  in
  if Sys.file_exists candidate then candidate
  else failwith ("net bench: cannot find the fpc binary at " ^ candidate)

let spawn_server ~domains ~max_conns ~max_pending =
  let fpc = fpc_binary () in
  let err_rd, err_wr = Unix.pipe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process fpc
      [| fpc; "serve"; "--tcp"; "0"; "--no-times";
         "-j"; string_of_int domains;
         "--max-conns"; string_of_int max_conns;
         "--max-pending"; string_of_int max_pending |]
      devnull devnull err_wr
  in
  Unix.close err_wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr err_rd in
  (* The server announces "serving on HOST:PORT" on stderr once the
     listener is live; wait for it, then keep draining stderr in the
     background so the drain-time metrics dump cannot wedge the server
     on a full pipe. *)
  let port = ref None in
  (try
     while !port = None do
       let line = input_line ic in
       try
         Scanf.sscanf line "fpc: serving on %s@:%d" (fun _ p ->
             port := Some p)
       with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> ());
  ignore
    (Thread.create
       (fun () ->
         try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ())
       ());
  match !port with
  | Some p -> (pid, p)
  | None ->
    ignore (Unix.waitpid [] pid);
    failwith "net bench: spawned server never announced its port"

(* The "Threads:" line of a /proc status file; 0 if it cannot be read. *)
let proc_threads status =
  match open_in status with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line -> (
        try Scanf.sscanf line "Threads: %d" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
    in
    let n = scan () in
    close_in ic;
    n

let proc_fds pid =
  try Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid))
  with Sys_error _ -> 0

(* Peak OS-thread and open-fd counts for [pid], sampled from /proc
   every few milliseconds until [stop] flips.  Plain int refs are fine:
   systhreads serialize on the runtime lock. *)
let proc_poller pid stop peak_threads peak_fds =
  let status = Printf.sprintf "/proc/%d/status" pid in
  let sample () =
    peak_threads := max !peak_threads (proc_threads status);
    peak_fds := max !peak_fds (proc_fds pid)
  in
  while not (Atomic.get stop) do
    sample ();
    Thread.delay 0.01
  done;
  sample ()

(* One rung, driven from this thread over [Fpc_net.Client]: open
   [connections] connections, then run [rounds] rounds, each writing
   [pipeline] request lines on every connection (one write per
   connection) and then reading [pipeline] replies from each.  The
   server answers a connection's jobs in request order, and a reply is
   ok iff it carries "status":"ok".  Returns (ok, failed, shed, walls):
   each round's wall clock, the connects not included. *)
let drive_rung ~host ~port ~connections ~rounds ~pipeline ~request_line =
  let clients =
    Array.init connections (fun _ -> Fpc_net.Client.connect ~host ~port ())
  in
  let batch = String.concat "\n" (List.init pipeline (fun _ -> request_line)) in
  let ok = ref 0 and failed = ref 0 and shed = ref 0 in
  let has sub line =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let round () =
    Array.iter (fun c -> Fpc_net.Client.send_line c batch) clients;
    Array.iter
      (fun c ->
        for _ = 1 to pipeline do
          match Fpc_net.Client.recv_line c with
          | Some line when has {|"status":"ok"|} line -> incr ok
          | Some line when has {|"status":"shed"|} line -> incr shed
          | Some _ -> incr failed
          | None -> failwith "net bench: the server closed a connection"
        done)
      clients
  in
  let walls = List.init rounds (fun _ -> time round) in
  Array.iter Fpc_net.Client.close clients;
  (!ok, !failed, !shed, walls)

let run_net_conns ?(pipeline = 4) ~conns () =
  if conns < 1 || pipeline < 1 then
    failwith "net bench: --conns and --pipeline must be positive";
  let domains = 2 in
  let host = "127.0.0.1" in
  let ladder =
    List.sort_uniq compare
      (conns :: List.filter (fun c -> c < conns) [ 100; 1000 ])
  in
  (* Every connection keeps [pipeline] requests outstanding, and all of
     them must be admitted: a shed round trip is a bench failure. *)
  let max_conns = conns + 100 in
  let max_pending = max 256 (2 * conns * pipeline) in
  let pid, port = spawn_server ~domains ~max_conns ~max_pending in
  let stop = Atomic.make false in
  let peak_threads = ref 0 and peak_fds = ref 0 in
  let poller =
    Thread.create (fun () -> proc_poller pid stop peak_threads peak_fds) ()
  in
  let request_line = "prog=fib engine=i2" in
  let finish () =
    Atomic.set stop true;
    Thread.join poller;
    (try
       let c = Fpc_net.Client.connect ~host ~port () in
       Fpc_net.Client.send_line c "shutdown";
       ignore (Fpc_net.Client.recv_line c);
       Fpc_net.Client.close c
     with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  Fun.protect ~finally:finish @@ fun () ->
  (* A rung starts once the server has closed the previous rung's
     connections: until then they count against its connection limit
     and its select set. *)
  let idle_fds = proc_fds pid in
  let await_idle () =
    let deadline = Fpc_util.Clock.now () +. 10.0 in
    while proc_fds pid > idle_fds do
      if Fpc_util.Clock.now () > deadline then
        failwith "net bench: the server kept the previous rung's connections";
      Thread.delay 0.01
    done
  in
  (* Warm the server's image cache before any measured round trip. *)
  (match
     drive_rung ~host ~port ~connections:1 ~rounds:3 ~pipeline:1 ~request_line
   with
  | 3, _, _, _ -> ()
  | _ -> failwith "net bench: warmup round trips did not all come back ok");
  (* The reactor's whole point: OS threads stay constant while
     connections scale.  The OCaml-level count is domains + 3 (main,
     signal waiter, loop); the runtime adds a tick thread and at most one
     backup thread per domain, hence the bound. *)
  let thread_bound = (2 * domains) + 5 in
  List.iter
    (fun connections ->
      await_idle ();
      peak_threads := 0;
      peak_fds := 0;
      let rounds = max !samples (5_000 / connections) in
      let ok, failed, shed, walls =
        drive_rung ~host ~port ~connections ~rounds ~pipeline ~request_line
      in
      let expected = connections * rounds * pipeline in
      if ok <> expected then
        failwith
          (Printf.sprintf
             "net bench: %d pipelined connections: %d of %d round trips ok \
              (%d shed, %d failed)"
             connections ok expected shed failed);
      if !peak_threads > thread_bound then
        failwith
          (Printf.sprintf
             "net bench: server used %d OS threads at %d connections \
              (bound %d): the reactor is leaking threads"
             !peak_threads connections thread_bound);
      record
        (Printf.sprintf "net/conns/%dc" connections)
        "jobs_per_sec"
        (per_sec (connections * pipeline) walls);
      Printf.printf
        "net %d conns (fib/i2, pipeline %d, %d-domain spawned server): %d \
         round trips ok; server peaks %d OS threads (bound %d), %d fds\n"
        connections pipeline domains ok !peak_threads thread_bound !peak_fds)
    ladder

let usage =
  "usage: main.exe [micro] [svc] [trace] [sched] [net] [--smoke] [--conns N] \
   [--pipeline K] [--json]"

let () =
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail (Printf.sprintf "%s expects an integer, got %s" flag v)
  in
  let layers = ref [] and smoke = ref false and json = ref false in
  let conns = ref None and pipeline = ref None in
  let rec parse = function
    | [] -> ()
    | ("micro" | "svc" | "trace" | "sched" | "net") as l :: rest ->
      layers := l :: !layers;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--conns" :: v :: rest ->
      conns := Some (int_arg "--conns" v);
      parse rest
    | "--pipeline" :: v :: rest ->
      pipeline := Some (int_arg "--pipeline" v);
      parse rest
    | a :: _ -> fail ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke in
  let full = !layers = [] in
  if !json && not (full && (not smoke) && !conns = None && !pipeline = None)
  then
    fail
      "--json replaces BENCH_results.json whole, so it takes a full run: no \
       layer argument, --smoke, --conns or --pipeline";
  if smoke then samples := 3;
  let t0 = Fpc_util.Clock.now () in
  let wants l = full || List.mem l !layers in
  if wants "micro" then layer "micro (host ns)" run_micro;
  if wants "svc" then layer "svc pool scaling (warmed cache, submit->await)" (run_svc ~smoke);
  if wants "trace" then layer "tracing overhead (fib)" (run_trace ~smoke);
  if wants "sched" then layer "sched session throughput (i2, run-to-yield)" (run_sched ~smoke);
  if wants "net" then
    layer "net high-concurrency ladder (per round)"
      (run_net_conns ?pipeline:!pipeline
         ~conns:(Option.value !conns ~default:(if smoke then 100 else 1000)));
  Printf.printf "bench: %.1f s wall on %d recommended domain(s)\n"
    (Fpc_util.Clock.now () -. t0)
    (Fpc_svc.Pool.recommended_domains ());
  if !json then write_json "BENCH_results.json"
