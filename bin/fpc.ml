(* The fpc command-line tool: compile, run, disassemble and measure
   mini-Mesa programs on the Fast Procedure Calls machine. *)

open Cmdliner

let read_source path_or_name =
  if Sys.file_exists path_or_name then
    let ic = open_in_bin path_or_name in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  else
    match Fpc_workload.Programs.find path_or_name with
    | src -> src
    | exception Not_found ->
      failwith
        (Printf.sprintf
           "%s: not a file and not a suite program (suite: %s)" path_or_name
           (String.concat ", " Fpc_workload.Programs.names))

(* A service-side parse result, or the command's one-line error. *)
let ok_or_fail = function Ok v -> v | Error m -> failwith m

let engine_arg =
  Arg.(value & opt string "i2" & info [ "e"; "engine" ] ~docv:"ENGINE"
         ~doc:"Transfer engine: i1 (simple), i2 (Mesa), i3 (+IFU return \
               stack), i4 (+register banks).")

let tier_arg =
  Arg.(value & opt string "auto" & info [ "tier" ] ~docv:"TIER"
         ~doc:"Execution tier: interp (the dispatch-loop interpreter), \
               compiled (threaded code; every simulated meter is \
               bit-identical), or auto (compiled except under a tracer).")

let source_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE"
         ~doc:"A mini-Mesa source file, or the name of a built-in suite \
               program (e.g. fib, coroutine).")

let devirt_arg =
  Arg.(value & opt bool true & info [ "devirt" ] ~docv:"BOOL"
         ~doc:"Run the link-time devirtualization pass (rewrite provably \
               single-target external calls to DIRECTCALL).  On by \
               default; outputs never change, only the meters.  \
               $(b,--devirt=false) keeps the late-bound baseline.")

let handle f = try `Ok (f ()) with Failure m | Invalid_argument m -> `Error (false, m)

(* ---- run ---- *)

let run_cmd =
  let action source engine_name tier_name devirt steps stats =
    handle (fun () ->
        let engine = ok_or_fail (Fpc_svc.Job.engine_of_name engine_name) in
        let tier = ok_or_fail (Fpc_svc.Job.tier_of_name tier_name) in
        let convention = Fpc_compiler.Convention.for_engine engine in
        let src = read_source source in
        let image =
          ok_or_fail (Fpc_compiler.Compile.image ~convention ~devirt src)
        in
        let st =
          Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
            ~args:[] ()
        in
        (match tier with
        | Fpc_svc.Job.Interp -> Fpc_interp.Interp.run ~max_steps:steps st
        | Fpc_svc.Job.Compiled | Fpc_svc.Job.Auto ->
          let tr, _hit = Fpc_tier.Tier.of_image image in
          Fpc_tier.Tier.run ~max_steps:steps tr st);
        let o = Fpc_interp.Interp.outcome st in
        List.iter (fun v -> Printf.printf "%d\n" v) o.o_output;
        (match o.o_status with
        | Fpc_core.State.Halted -> ()
        | Fpc_core.State.Running -> failwith "still running"
        | Fpc_core.State.Trapped r ->
          failwith ("trapped: " ^ Fpc_core.State.trap_reason_to_string r));
        (* What the pass did, but only for images that had any late-bound
           sites at all — single-module programs keep their historical
           stderr shape. *)
        (match image.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt with
        | Some d when d.Fpc_mesa.Image.dv_sites > 0 ->
          Printf.eprintf
            "devirt: sites=%d proven=%d rewritten=%d short=%d abstained=%d\n"
            d.Fpc_mesa.Image.dv_sites d.dv_proven d.dv_rewritten d.dv_short
            d.dv_abstained
        | _ -> ());
        if stats then prerr_string (Fpc_interp.Report.render st)
        else
          Printf.eprintf "engine=%s instructions=%d cycles=%d storage-refs=%d\n"
            engine_name o.o_instructions o.o_cycles o.o_mem_refs)
  in
  let steps =
    Arg.(value & opt int 20_000_000 & info [ "max-steps" ] ~docv:"N"
           ~doc:"Step limit before the run is abandoned.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the full machine-statistics table (to stderr).")
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and execute Main.main, printing OUTPUT words.")
    Term.(ret (const action $ source_arg $ engine_arg $ tier_arg $ devirt_arg
               $ steps $ stats))

(* ---- disasm ---- *)

let disasm_cmd =
  let action source =
    handle (fun () ->
        let src = read_source source in
        match Fpc_compiler.Compile.modules src with
        | Error m -> failwith m
        | Ok modules ->
          List.iter
            (fun (m : Fpc_mesa.Compiled.t) ->
              Printf.printf "MODULE %s (globals %d words, %d imports)\n"
                m.m_name m.m_globals_words (Array.length m.m_imports);
              Array.iteri
                (fun i (tm, tp) -> Printf.printf "  LV[%d] = %s.%s\n" i tm tp)
                m.m_imports;
              List.iter
                (fun (p : Fpc_mesa.Compiled.proc) ->
                  Printf.printf "PROC %s (args %d, frame payload %d words, \
                                 %d bytes)\n%s\n"
                    p.p_name p.p_nargs p.p_locals_words (Bytes.length p.p_body)
                    (Fpc_isa.Disasm.of_bytes p.p_body))
                m.m_procs)
            modules)
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Compile and print the byte-code listing.")
    Term.(ret (const action $ source_arg))

(* ---- trace ---- *)

let trace_cmd =
  let action source engine_name steps =
    handle (fun () ->
        let engine = ok_or_fail (Fpc_svc.Job.engine_of_name engine_name) in
        let convention = Fpc_compiler.Convention.for_engine engine in
        let src = read_source source in
        let image =
          ok_or_fail (Fpc_compiler.Compile.image ~convention src)
        in
        (* A tiny sink whose listener prints the architectural events
           interleaved with the instruction listing; the noisy per-call
           sub-events are elided. *)
        let sink = Fpc_trace.Sink.create ~capacity:1 ~engine:engine_name () in
        Fpc_trace.Sink.set_listener sink
          (Some
             (fun (e : Fpc_trace.Event.t) ->
               match e.kind with
               | Fpc_trace.Event.Rs_push | Fpc_trace.Event.Rs_hit
               | Fpc_trace.Event.Frame_alloc _ | Fpc_trace.Event.Frame_free _
                 ->
                 ()
               | _ -> Printf.printf "      * %s\n" (Fpc_trace.Event.to_string e)));
        let st =
          Fpc_interp.Interp.boot ~tracer:sink ~image ~engine ~instance:"Main"
            ~proc:"main" ~args:[] ()
        in
        Printf.printf "%6s %7s %6s %5s %5s  %s\n" "step" "pc" "LF" "GF" "stk"
          "instruction";
        let n = ref 0 in
        Fpc_interp.Interp.run_traced ~max_steps:steps st
          ~on_step:(fun ~pc_abs op (s : Fpc_core.State.t) ->
            incr n;
            Printf.printf "%6d %7d %6d %5d %5d  %s\n" !n pc_abs s.lf s.gf
              (Fpc_core.Eval_stack.depth s.stack)
              (Fpc_isa.Opcode.to_string op));
        (match st.Fpc_core.State.status with
        | Fpc_core.State.Running ->
          Printf.printf "... stopped after %d steps (still running)\n" steps
        | Fpc_core.State.Halted -> Printf.printf "halted\n"
        | Fpc_core.State.Trapped r ->
          Printf.printf "trapped: %s\n" (Fpc_core.State.trap_reason_to_string r));
        match Fpc_core.State.output st with
        | [] -> ()
        | out ->
          Printf.printf "output: %s\n"
            (String.concat " " (List.map string_of_int out)))
  in
  let steps =
    Arg.(value & opt int 200 & info [ "n"; "steps" ] ~docv:"N"
           ~doc:"Maximum instructions to trace.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Execute Main.main printing every instruction with the machine \
             registers (LF, GF, stack depth).")
    Term.(ret (const action $ source_arg $ engine_arg $ steps))

(* ---- profile ---- *)

let profile_cmd =
  let action source engine_name steps capacity chrome_out folded_out =
    handle (fun () ->
        let engine = ok_or_fail (Fpc_svc.Job.engine_of_name engine_name) in
        let convention = Fpc_compiler.Convention.for_engine engine in
        let src = read_source source in
        let image =
          ok_or_fail (Fpc_compiler.Compile.image ~convention src)
        in
        let p = Fpc_interp.Profiler.create ~capacity ~image ~engine () in
        let _st, o =
          Fpc_interp.Profiler.run ~max_steps:steps p ~image ~engine
            ~instance:"Main" ~proc:"main" ~args:[]
        in
        print_string (Fpc_interp.Profiler.render p);
        (match chrome_out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Fpc_util.Jsonout.to_string
               (Fpc_interp.Profiler.chrome ~final_cycles:o.o_cycles p));
          output_char oc '\n';
          close_out oc;
          Printf.eprintf "wrote Chrome trace-event JSON to %s\n" path);
        (match folded_out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Fpc_interp.Profiler.folded ~final_cycles:o.o_cycles p);
          close_out oc;
          Printf.eprintf "wrote folded flamegraph stacks to %s\n" path);
        match o.o_status with
        | Fpc_core.State.Halted -> ()
        | Fpc_core.State.Running -> failwith "still running (raise --max-steps)"
        | Fpc_core.State.Trapped r ->
          failwith ("trapped: " ^ Fpc_core.State.trap_reason_to_string r))
  in
  let steps =
    Arg.(value & opt int 20_000_000 & info [ "max-steps" ] ~docv:"N"
           ~doc:"Step limit before the run is abandoned.")
  in
  let capacity =
    Arg.(value & opt int 65536 & info [ "capacity" ] ~docv:"N"
           ~doc:"Event ring capacity for the exports; the profile table \
                 itself streams and never drops.")
  in
  let chrome_out =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Also write a Chrome trace-event JSON file (load it in \
                 chrome://tracing or Perfetto).")
  in
  let folded_out =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Also write collapsed flamegraph stacks (feed to \
                 flamegraph.pl).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Execute Main.main under the XFER tracer and print the \
             per-procedure cost profile; cycle and storage-reference \
             totals match the run's meters exactly.")
    Term.(
      ret
        (const action $ source_arg $ engine_arg $ steps $ capacity
        $ chrome_out $ folded_out))

(* ---- image ---- *)

let image_cmd =
  let action source linkage_name =
    handle (fun () ->
        let convention =
          match linkage_name with
          | "external" -> Fpc_compiler.Convention.external_
          | "direct" -> Fpc_compiler.Convention.direct
          | "short" -> Fpc_compiler.Convention.short_direct
          | s -> failwith (Printf.sprintf "unknown linkage %s" s)
        in
        let src = read_source source in
        let image =
          ok_or_fail (Fpc_compiler.Compile.image ~convention src)
        in
        let open Fpc_mesa in
        let l = image.Image.layout in
        Printf.printf "memory map (%d words):\n" l.Layout.memory_words;
        Printf.printf "  %6d..%6d  reserved (trap handler word at %d)\n" 0 15
          l.trap_handler_addr;
        Printf.printf "  %6d..%6d  global frame table (%d entries used)\n"
          l.gft_base (l.av_base - 1) (image.Image.dir.Image.gfi_cursor - 1);
        Printf.printf "  %6d..%6d  allocation vector\n" l.av_base (l.static_base - 1);
        Printf.printf "  %6d..%6d  static (global frames, link vectors); used to %d\n"
          l.static_base (l.heap_base - 1) image.static_cursor;
        Printf.printf "  %6d..%6d  frame heap\n" l.heap_base (l.heap_limit - 1);
        Printf.printf "  %6d..%6d  code; used to %d\n" l.code_region_base
          (l.memory_words - 1) image.Image.dir.Image.code_cursor;
        Printf.printf "\ninstances:\n";
        List.iter
          (fun (ii : Image.instance_info) ->
            Printf.printf
              "  %-12s gfi=%d..%d  GF@%d  LV@%d (%d imports)  code base %d\n"
              ii.ii_name ii.ii_gfi
              (ii.ii_gfi + ii.ii_gfi_count - 1)
              ii.ii_gf_addr ii.ii_lv_base
              (Array.length ii.ii_imports)
              ii.ii_code_base;
            Array.iteri
              (fun i (tm, tp) ->
                let word =
                  Fpc_machine.Memory.peek image.mem (ii.ii_gf_addr - 1 - i)
                in
                Printf.printf "      LV[%d] = %s.%s  (0x%04X %s)\n" i tm tp word
                  (Descriptor.to_string (Descriptor.unpack word)))
              ii.ii_imports)
          image.Image.dir.Image.instances;
        Printf.printf "\nprocedures:\n";
        Hashtbl.iter
          (fun (inst, proc) (pi : Image.proc_info) ->
            Printf.printf
              "  %-12s.%-10s ev=%-3d entry@%-5d fsi=%-2d payload=%-3d body=%dB%s\n"
              inst proc pi.pi_ev pi.pi_entry_offset pi.pi_fsi pi.pi_locals_words
              pi.pi_body_bytes
              (match pi.pi_direct_offset with
              | Some off -> Printf.sprintf "  direct-header@%d" off
              | None -> ""))
          image.Image.dir.Image.procs;
        print_newline ();
        print_string (Space.render ~title:"space report" (Space.measure image)))
  in
  let linkage =
    Arg.(value & opt string "external" & info [ "l"; "linkage" ] ~docv:"LINKAGE"
           ~doc:"external, direct or short.")
  in
  Cmd.v
    (Cmd.info "image"
       ~doc:"Compile and link, then dump the memory map, tables and space \
             report of the resulting image.")
    Term.(ret (const action $ source_arg $ linkage))

(* ---- experiment ---- *)

let experiment_cmd =
  let action name =
    handle (fun () ->
        match name with
        | None ->
          List.iter
            (fun (key, f) ->
              print_string (Fpc_experiments.Exp.render (f ()));
              print_newline ();
              ignore key)
            Fpc_experiments.Registry.all
        | Some name -> (
          match Fpc_experiments.Registry.find name with
          | Some f -> print_string (Fpc_experiments.Exp.render (f ()))
          | None ->
            failwith
              (Printf.sprintf "unknown experiment %s (known: %s)" name
                 (String.concat ", " Fpc_experiments.Registry.keys))))
  in
  let exp_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Experiment key (fastpath, bank_overflow, ...) or id \
                 (E1..E18).  Omit to run all.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce a paper table/figure (or all of them).")
    Term.(ret (const action $ exp_name))

(* ---- suite ---- *)

let suite_cmd =
  let action () =
    handle (fun () ->
        List.iter
          (fun name -> Printf.printf "%s\n" name)
          Fpc_workload.Programs.names)
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the built-in benchmark programs.")
    Term.(ret (const action $ const ()))

(* ---- batch ---- *)

let domains_arg =
  Arg.(value & opt int 0 & info [ "j"; "domains" ] ~docv:"N"
         ~doc:"Worker domains in the pool; 0 (the default) picks the \
               host's recommended domain count.")

let resolve_domains n = if n <= 0 then Fpc_svc.Pool.recommended_domains () else n

let suite_specs ~engines ~tier ~fuel =
  List.concat_map
    (fun name ->
      List.map
        (fun engine ->
          Fpc_svc.Job.spec ~engine ~tier ~fuel (Fpc_svc.Job.Suite name))
        engines)
    Fpc_workload.Programs.names

(* The command-line tier is the default for requests that left the tier
   to the service; an explicit tier= in the jobfile line wins.  Same
   story for --devirt and devirt=. *)
let apply_tier_default tier (spec : Fpc_svc.Job.spec) =
  match spec.tier with
  | Fpc_svc.Job.Auto -> { spec with Fpc_svc.Job.tier }
  | _ -> spec

let apply_devirt_default devirt (spec : Fpc_svc.Job.spec) =
  match spec.devirt with
  | None -> { spec with Fpc_svc.Job.devirt = Some devirt }
  | Some _ -> spec

let read_jobfile path =
  let ic = open_in path in
  let specs = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let trimmed = String.trim line in
       if trimmed <> "" && trimmed.[0] <> '#' then
         match Fpc_svc.Job.parse_request trimmed with
         | Ok spec -> specs := spec :: !specs
         | Error m ->
           close_in ic;
           failwith (Printf.sprintf "%s:%d: %s" path !lineno m)
     done
   with End_of_file -> close_in ic);
  List.rev !specs

let batch_cmd =
  let action jobfile domains engines_csv tier_name devirt fuel json =
    handle (fun () ->
        let engines =
          String.split_on_char ',' engines_csv
          |> List.map String.trim
          |> List.filter (fun e -> e <> "")
        in
        List.iter
          (fun e -> ignore (ok_or_fail (Fpc_svc.Job.engine_of_name e)))
          engines;
        let tier = ok_or_fail (Fpc_svc.Job.tier_of_name tier_name) in
        let specs =
          (match jobfile with
          | Some path when Sys.file_exists path ->
            List.map (apply_tier_default tier) (read_jobfile path)
          | Some path -> failwith (Printf.sprintf "%s: no such jobfile" path)
          | None -> suite_specs ~engines ~tier ~fuel)
          |> List.map (apply_devirt_default devirt)
        in
        if specs = [] then failwith "no jobs to run";
        let results, metrics =
          Fpc_svc.Pool.run_jobs ~domains:(resolve_domains domains) specs
        in
        List.iter
          (fun r ->
            if json then
              print_endline
                (Fpc_util.Jsonout.to_string
                   (Fpc_svc.Job.result_to_json ~times:false r))
            else print_endline (Fpc_svc.Job.result_line r))
          results;
        prerr_string (Fpc_svc.Metrics.render metrics))
  in
  let jobfile =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"JOBFILE"
           ~doc:"A file of job request lines (prog=NAME or src=TEXT, plus \
                 optional engine= and fuel=; blank lines and # comments \
                 ignored).  Omit to run the whole built-in suite.")
  in
  let engines =
    Arg.(value & opt string "i1,i2,i3,i4" & info [ "engines" ] ~docv:"LIST"
           ~doc:"Comma-separated engines used when running the built-in \
                 suite (ignored with a JOBFILE).")
  in
  let fuel =
    Arg.(value & opt int Fpc_svc.Job.default_fuel & info [ "fuel" ] ~docv:"N"
           ~doc:"Step budget for suite jobs (ignored with a JOBFILE).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Print each result as a JSON line (deterministic fields \
                 only) instead of the text summary.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run many jobs across a pool of worker domains, with a shared \
             compilation cache; per-job results (stdout, in submission \
             order) are byte-identical at any domain count and across \
             execution tiers.  Pool metrics go to stderr.")
    Term.(
      ret
        (const action $ jobfile $ domains_arg $ engines $ tier_arg
        $ devirt_arg $ fuel $ json))

(* ---- serve ---- *)

(* The stdin transport: same request lines, same refusal shapes
   (Fpc_net.Protocol) and same line-length discipline (Fpc_net.Framing)
   as the TCP server, but single-connection and order-relaxed: results
   stream out as jobs complete. *)
let serve_stdin ~domains ~times ~tier ~devirt ~max_line =
  let pool = Fpc_svc.Pool.create ~domains:(resolve_domains domains) () in
  let emit line =
    print_endline line;
    flush stdout
  in
  let print_result r =
    emit (Fpc_util.Jsonout.to_string (Fpc_svc.Job.result_to_json ~times r))
  in
  let drain_ready () = List.iter print_result (Fpc_svc.Pool.poll pool) in
  let framing = Fpc_net.Framing.of_fd ~max_line Unix.stdin in
  let stop = ref false in
  while not !stop do
    (match Fpc_net.Framing.next framing with
    | Fpc_net.Framing.Eof -> stop := true
    | Fpc_net.Framing.Overlong n ->
      emit
        (Fpc_net.Protocol.error_line ~error:"overlong-line"
           ~message:
             (Fpc_net.Protocol.overlong_message ~bytes_discarded:n
                ~limit:max_line))
    | Fpc_net.Framing.Line line ->
      let s = String.trim line in
      if s <> "" && s.[0] <> '#' then (
        match Fpc_net.Protocol.admin_of_line s with
        | Some Fpc_net.Protocol.Stats ->
          emit
            (Fpc_util.Jsonout.to_string
               (Fpc_svc.Metrics.to_json (Fpc_svc.Pool.metrics pool)))
        | Some Fpc_net.Protocol.Shutdown ->
          emit Fpc_net.Protocol.draining_line;
          stop := true
        | None -> (
          match Fpc_svc.Job.parse_request s with
          | Ok spec ->
            ignore
              (Fpc_svc.Pool.submit pool
                 (apply_devirt_default devirt (apply_tier_default tier spec)))
          | Error m ->
            emit (Fpc_net.Protocol.error_line ~error:"bad-request" ~message:m))));
    drain_ready ()
  done;
  List.iter print_result (Fpc_svc.Pool.await pool);
  let metrics = Fpc_svc.Pool.metrics pool in
  Fpc_svc.Pool.shutdown pool;
  prerr_string (Fpc_svc.Metrics.render metrics)

let serve_tcp ~domains ~times ~tier ~devirt ~host ~port ~max_connections
    ~max_pending ~max_line =
  (* Every server thread blocks in C (select, cond_wait), where a
     Sys.Signal_handle closure may never get to run.  Instead: block the
     drain signals before any thread is spawned (threads inherit the
     mask) and sigwait for them on a dedicated thread. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
  let server =
    Fpc_net.Server.create ~host ~port ~domains:(resolve_domains domains)
      ~max_connections ~max_pending ~max_line ~times ~tier ~devirt ()
  in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        match Thread.wait_signal [ Sys.sigterm; Sys.sigint ] with
        | _ -> Fpc_net.Server.request_drain server
        | exception _ -> ())
      ()
  in
  Printf.eprintf "fpc: serving on %s:%d (%d domains); SIGTERM or a \
                  'shutdown' line drains gracefully\n%!"
    host
    (Fpc_net.Server.port server)
    (resolve_domains domains);
  let stats = Fpc_net.Server.wait server in
  (* the drain protocol's final stats line (the /stats object), then the
     pool's human table *)
  Printf.eprintf "%s\n"
    (Fpc_util.Jsonout.to_string (Fpc_net.Server.stats_to_json stats));
  prerr_string (Fpc_svc.Metrics.render stats.Fpc_net.Server.pool)

let serve_cmd =
  let action domains no_times tier_name devirt tcp host max_connections
      max_pending max_line =
    handle (fun () ->
        let times = not no_times in
        let tier = ok_or_fail (Fpc_svc.Job.tier_of_name tier_name) in
        match tcp with
        | Some port ->
          serve_tcp ~domains ~times ~tier ~devirt ~host ~port ~max_connections
            ~max_pending ~max_line
        | None ->
          if host <> "127.0.0.1" then
            failwith "--host only makes sense with --tcp";
          serve_stdin ~domains ~times ~tier ~devirt ~max_line)
  in
  let no_times =
    Arg.(value & flag & info [ "no-times" ]
           ~doc:"Omit host timing and cache-hit fields from responses, \
                 leaving only deterministic ones.")
  in
  let tcp =
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT"
           ~doc:"Serve over TCP on $(docv) (0 picks an ephemeral port, \
                 printed to stderr) instead of stdin.  Connections carry \
                 the same newline-delimited requests; per-connection \
                 results come back in request order.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Address to bind with --tcp.")
  in
  let max_connections =
    Arg.(value & opt int 16 & info [ "max-conns" ] ~docv:"N"
           ~doc:"With --tcp: connection cap; further connections are shed \
                 with a structured JSON line and closed.")
  in
  let max_pending =
    Arg.(value & opt int 64 & info [ "max-pending" ] ~docv:"N"
           ~doc:"With --tcp: bound on jobs admitted but not yet answered; \
                 over it, requests are shed instead of queued.")
  in
  let max_line =
    Arg.(value & opt int Fpc_net.Framing.default_max_line
           & info [ "max-line" ] ~docv:"BYTES"
               ~doc:"Longest accepted request line; longer lines are \
                     discarded up to the next newline and reported with a \
                     structured error.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve job requests (prog=NAME or src=TEXT, optional engine=, \
             tier=, fuel=, trace= and deadline_ms=) over stdin or --tcp, \
             executing them on a worker-domain pool with admission \
             control; one JSON result line per job.  Admin lines: /stats \
             (counters as JSON), shutdown (graceful drain).")
    Term.(ret
            (const action $ domains_arg $ no_times $ tier_arg $ devirt_arg
             $ tcp $ host $ max_connections $ max_pending $ max_line))

(* ---- request ---- *)

(* A pipelined client for a running [fpc serve --tcp]: write every
   request line up front, then read exactly one response line per
   request, in order.  What the cram tests (and quick manual pokes) use
   to prove the serve path against [fpc batch]. *)
let request_cmd =
  let action host port lines =
    handle (fun () ->
        if lines = [] then failwith "request: no request lines given";
        match Fpc_net.Client.connect ~host ~port () with
        | exception Unix.Unix_error (e, _, _) ->
          failwith
            (Printf.sprintf "request: cannot connect to %s:%d (%s)" host port
               (Unix.error_message e))
        | client ->
          List.iter (Fpc_net.Client.send_line client) lines;
          List.iter
            (fun line ->
              match Fpc_net.Client.recv_line client with
              | Some resp -> print_endline resp
              | None ->
                failwith
                  (Printf.sprintf
                     "request: connection closed before %S was answered" line))
            lines;
          Fpc_net.Client.close client)
  in
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Server address.")
  in
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Server port (from the 'serving on' line).")
  in
  let lines =
    Arg.(value & pos_all string [] & info [] ~docv:"LINE"
           ~doc:"Request lines (jobs or admin commands), sent pipelined in \
                 the order given.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send request lines to a running fpc serve --tcp, pipelined on \
             one connection, and print the response lines in order.")
    Term.(ret (const action $ host $ port $ lines))

(* ---- sched ---- *)

let sched_cmd =
  let action sessions window seed engine_name tier_name policy_name fuel =
    handle (fun () ->
        let engine = ok_or_fail (Fpc_svc.Job.engine_of_name engine_name) in
        let tier = ok_or_fail (Fpc_svc.Job.tier_of_name tier_name) in
        let policy =
          ok_or_fail (Fpc_sched.Sched.policy_of_string policy_name)
        in
        let config =
          let c = Fpc_workload.Sessions.default ~total:sessions in
          { c with Fpc_workload.Sessions.window; seed }
        in
        let src = Fpc_workload.Sessions.program config in
        let convention = Fpc_compiler.Convention.for_engine engine in
        let image =
          ok_or_fail (Fpc_compiler.Compile.image ~convention src)
        in
        let st =
          Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main"
            ~args:[] ()
        in
        let step =
          match tier with
          | Fpc_svc.Job.Interp ->
            fun n st -> Fpc_interp.Interp.run ~max_steps:n st
          | Fpc_svc.Job.Compiled | Fpc_svc.Job.Auto ->
            let tr, _hit = Fpc_tier.Tier.of_image image in
            fun n st -> Fpc_tier.Tier.run ~max_steps:n tr st
        in
        let t0 = Fpc_util.Clock.now () in
        let stats = Fpc_sched.Sched.run ~policy ~step ~fuel st in
        let run_s = Fpc_util.Clock.now () -. t0 in
        let o = Fpc_interp.Interp.outcome st in
        (match o.o_status with
        | Fpc_core.State.Halted -> ()
        | Fpc_core.State.Running -> failwith "still running"
        | Fpc_core.State.Trapped r ->
          failwith ("trapped: " ^ Fpc_core.State.trap_reason_to_string r));
        let lifo_reserved =
          st.Fpc_core.State.metrics.peak_live_procs
          * Fpc_workload.Sessions.worst_extent_words config ~image
        in
        let report = Fpc_sched.Sched.report ~lifo_reserved ~stats st in
        (* stdout stays deterministic (simulated meters only, cram-safe);
           host throughput goes to stderr like run's timing line *)
        Printf.printf "output=%s\n"
          (String.concat "," (List.map string_of_int o.o_output));
        List.iter print_endline (Fpc_sched.Sched.report_lines report);
        Printf.eprintf
          "engine=%s policy=%s instructions=%d cycles=%d sessions/s=%.0f\n"
          engine_name
          (Fpc_sched.Sched.policy_to_string policy)
          o.o_instructions o.o_cycles
          (float_of_int sessions /. max run_s 1e-9))
  in
  let sessions =
    Arg.(value & opt int 256 & info [ "sessions" ] ~docv:"N"
           ~doc:"Total sessions streamed through the machine.")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"N"
           ~doc:"Admission window: at most $(docv) sessions live at once.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Perturbs every session's think-time and call-depth draw.")
  in
  let policy =
    Arg.(value & opt string "yield" & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Switching policy: yield (sessions run to their own switch \
                 points; outputs are engine-independent) or preempt[:N] \
                 (inject a round-robin switch about every N steps, default \
                 1000, at the next statement boundary).")
  in
  let fuel =
    Arg.(value & opt int Fpc_svc.Job.default_fuel & info [ "fuel" ] ~docv:"N"
           ~doc:"Total step budget for the whole workload.")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run a generated session workload (thousands of green-thread \
             sessions multiplexed over one machine by coroutine XFER) under \
             the scheduler, printing the deterministic scheduling report; \
             host throughput goes to stderr.")
    Term.(
      ret
        (const action $ sessions $ window $ seed $ engine_arg $ tier_arg
        $ policy $ fuel))

let main_cmd =
  let doc = "the Fast Procedure Calls (Lampson, ASPLOS 1982) reproduction" in
  Cmd.group (Cmd.info "fpc" ~doc)
    [ run_cmd; disasm_cmd; trace_cmd; profile_cmd; image_cmd; experiment_cmd;
      suite_cmd; batch_cmd; serve_cmd; request_cmd; sched_cmd ]

let () = exit (Cmd.eval main_cmd)
