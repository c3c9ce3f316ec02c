type source =
  | Suite of string
  | Inline of string
  | Sessions of Fpc_workload.Sessions.config

type tier = Interp | Compiled | Auto

type spec = {
  source : source;
  engine : string;
  tier : tier;
  fuel : int;
  trace : bool;
  deadline_ms : int option;
  sched : Fpc_sched.Sched.policy option;
  devirt : bool option;
}

let default_fuel = 20_000_000

let spec ?(engine = "i2") ?(tier = Auto) ?(fuel = default_fuel)
    ?(trace = false) ?deadline_ms ?sched ?devirt source =
  { source; engine; tier; fuel; trace; deadline_ms; sched; devirt }

(* A job runs under the scheduler iff it asked for a policy or its source
   is a session workload (which defaults to run-to-yield, the policy whose
   outputs are engine-independent). *)
let effective_sched s =
  match (s.sched, s.source) with
  | (Some _ as p), _ -> p
  | None, Sessions _ -> Some Fpc_sched.Sched.Run_to_yield
  | None, (Suite _ | Inline _) -> None

let tier_of_name name =
  match String.lowercase_ascii name with
  | "interp" -> Ok Interp
  | "compiled" -> Ok Compiled
  | "auto" -> Ok Auto
  | s -> Error (Printf.sprintf "unknown tier %s (use interp, compiled or auto)" s)

let tier_to_string = function
  | Interp -> "interp"
  | Compiled -> "compiled"
  | Auto -> "auto"

type error_kind =
  | Bad_request
  | Compile_error
  | Trapped of string
  | Fuel_exhausted
  | Deadline_exceeded
  | Internal

let error_kind_to_string = function
  | Bad_request -> "bad-request"
  | Compile_error -> "compile-error"
  | Trapped r -> Printf.sprintf "trapped(%s)" r
  | Fuel_exhausted -> "fuel-exhausted"
  | Deadline_exceeded -> "deadline-exceeded"
  | Internal -> "internal"

type outcome = Output of int list | Failed of error_kind * string

type translation =
  | No_translation
  | Translated of {
      hit : bool;  (** the image's translation was already attached *)
      translate_s : float;
      lazy_translated : int;  (** procedures this run translated on entry *)
      fused_calls : int;  (** calls retired through fused call sites *)
      procs : int;  (** procedure bodies the translation covers *)
      procs_translated : int;  (** of those, translated so far (shared) *)
      invalidations : int;  (** always 0: the tier bakes no link word *)
    }

type stats = {
  cache_hit : bool;
  compile_s : float;
  run_s : float;
  minor_words : int;
  translation : translation;
  instructions : int;
  cycles : int;
  mem_refs : int;
  fastpath : Fpc_interp.Interp.fastpath;
  devirt_stats : Fpc_mesa.Image.devirt_stats option;
}

let no_stats =
  {
    cache_hit = false;
    compile_s = 0.0;
    run_s = 0.0;
    minor_words = 0;
    translation = No_translation;
    instructions = 0;
    cycles = 0;
    mem_refs = 0;
    fastpath = Fpc_interp.Interp.no_fastpath;
    devirt_stats = None;
  }

type result = {
  id : int;
  spec : spec;
  outcome : outcome;
  stats : stats;
  profile : Fpc_trace.Profile.summary option;
  sched : Fpc_sched.Sched.report option;
}

let engine_of_name name =
  match String.lowercase_ascii name with
  | "i1" -> Ok Fpc_core.Engine.i1
  | "i2" -> Ok Fpc_core.Engine.i2
  | "i3" -> Ok (Fpc_core.Engine.i3 ())
  | "i4" -> Ok (Fpc_core.Engine.i4 ())
  | s -> Error (Printf.sprintf "unknown engine %s (use i1, i2, i3 or i4)" s)

(* A session program's text is a pure function of its config, and at
   ~2 KB it is too large for the minor heap: built per request, it went
   straight into the major heap, where OCaml 5 collects it only slowly.
   So each config's text is built once and its [Ok] kept, shared by every
   worker domain; a hit allocates nothing.  The table is bounded: when
   full it starts over, which only costs a rebuild. *)
let session_texts : (Fpc_workload.Sessions.config, (string, string) Stdlib.result) Hashtbl.t =
  Hashtbl.create 16

let session_texts_mutex = Mutex.create ()
let session_texts_max = 64

let session_text c =
  Mutex.lock session_texts_mutex;
  match Hashtbl.find session_texts c with
  | text ->
    Mutex.unlock session_texts_mutex;
    text
  | exception Not_found -> (
    Mutex.unlock session_texts_mutex;
    match Fpc_workload.Sessions.program c with
    | exception Invalid_argument m -> Error m
    | src ->
      let text = Ok src in
      Mutex.lock session_texts_mutex;
      if Hashtbl.length session_texts >= session_texts_max then
        Hashtbl.reset session_texts;
      Hashtbl.replace session_texts c text;
      Mutex.unlock session_texts_mutex;
      text)

let source_text = function
  | Inline src -> Ok src
  | Sessions c -> session_text c
  | Suite name -> (
    match Fpc_workload.Programs.find name with
    | src -> Ok src
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown suite program %s (suite: %s)" name
           (String.concat ", " Fpc_workload.Programs.names)))

let source_label = function
  | Suite name -> name
  | Sessions c -> Printf.sprintf "sessions:%d" c.Fpc_workload.Sessions.total
  | Inline src ->
    "inline:" ^ String.sub (Digest.to_hex (Digest.string src)) 0 8

let outcome_equal a b =
  match (a, b) with
  | Output xs, Output ys -> xs = ys
  | Failed (ka, ma), Failed (kb, mb) -> ka = kb && String.equal ma mb
  | _ -> false

(* ---- request lines ---- *)

let escape_src s =
  let buf = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | ' ' -> Buffer.add_string buf "\\s"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_src s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then (
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 's' -> Buffer.add_char buf ' '
       | c -> Buffer.add_char buf c);
       incr i)
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let parse_request line =
  let fields =
    String.split_on_char ' ' (String.trim line)
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")
  in
  let ( let* ) = Result.bind in
  (* Twelve independent keys: refs beat a twelve-tuple accumulator. *)
  let src = ref None and engine = ref "i2" and tier = ref Auto in
  let fuel = ref None and trace = ref false and deadline = ref None in
  let sessions = ref None and window = ref None and seed = ref None in
  let sched = ref None and quantum = ref None and devirt = ref None in
  let pos_int key value store =
    match int_of_string_opt value with
    | Some n when n > 0 ->
      store n;
      Ok ()
    | Some _ | None ->
      Error (Printf.sprintf "%s=%s is not a positive integer" key value)
  in
  let parse_field field =
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "malformed field %S (want key=value)" field)
    | Some eq -> (
      let key = String.sub field 0 eq in
      let value = String.sub field (eq + 1) (String.length field - eq - 1) in
      match key with
      | "prog" ->
        src := Some (Suite value);
        Ok ()
      | "src" ->
        src := Some (Inline (unescape_src value));
        Ok ()
      | "engine" ->
        engine := value;
        Ok ()
      | "tier" ->
        let* t = tier_of_name value in
        tier := t;
        Ok ()
      | "fuel" -> pos_int "fuel" value (fun n -> fuel := Some n)
      | "trace" -> (
        match value with
        | "1" | "true" ->
          trace := true;
          Ok ()
        | "0" | "false" ->
          trace := false;
          Ok ()
        | v -> Error (Printf.sprintf "trace=%s is not 0/1" v))
      | "deadline_ms" ->
        pos_int "deadline_ms" value (fun n -> deadline := Some n)
      | "sessions" -> pos_int "sessions" value (fun n -> sessions := Some n)
      | "window" -> pos_int "window" value (fun n -> window := Some n)
      | "seed" -> (
        match int_of_string_opt value with
        | Some n when n >= 0 ->
          seed := Some n;
          Ok ()
        | Some _ | None ->
          Error (Printf.sprintf "seed=%s is not a non-negative integer" value))
      | "sched" ->
        let* p = Fpc_sched.Sched.policy_of_string value in
        sched := Some p;
        Ok ()
      | "quantum" -> pos_int "quantum" value (fun n -> quantum := Some n)
      | "devirt" -> (
        match value with
        | "1" | "true" ->
          devirt := Some true;
          Ok ()
        | "0" | "false" ->
          devirt := Some false;
          Ok ()
        | v -> Error (Printf.sprintf "devirt=%s is not 0/1" v))
      | k ->
        Error
          (Printf.sprintf
             "unknown key %s (use prog, src, sessions, window, seed, engine, \
              tier, fuel, trace, deadline_ms, sched, quantum, devirt)"
             k))
  in
  let* () =
    List.fold_left
      (fun acc field ->
        let* () = acc in
        parse_field field)
      (Ok ()) fields
  in
  let* source =
    match (!src, !sessions) with
    | Some _, Some _ -> Error "give one of prog/src or sessions=, not both"
    | None, None -> Error "request needs prog=NAME, src=TEXT or sessions=N"
    | Some s, None ->
      if !window <> None || !seed <> None then
        Error "window=/seed= only apply to sessions= jobs"
      else Ok s
    | None, Some total ->
      let c = Fpc_workload.Sessions.default ~total in
      Ok
        (Sessions
           {
             c with
             Fpc_workload.Sessions.window =
               Option.value !window ~default:c.Fpc_workload.Sessions.window;
             seed = Option.value !seed ~default:c.Fpc_workload.Sessions.seed;
           })
  in
  let* sched =
    match (!sched, !quantum) with
    | Some (Fpc_sched.Sched.Preempt _), Some q ->
      Ok (Some (Fpc_sched.Sched.Preempt { quantum = q }))
    | (Some Fpc_sched.Sched.Run_to_yield | None), Some _ ->
      Error "quantum= requires sched=preempt"
    | p, None -> Ok p
  in
  Ok
    {
      source;
      engine = !engine;
      tier = !tier;
      fuel = Option.value !fuel ~default:default_fuel;
      trace = !trace;
      deadline_ms = !deadline;
      sched;
      devirt = !devirt;
    }

let request_of_spec s =
  let src =
    match s.source with
    | Suite name -> "prog=" ^ name
    | Inline text -> "src=" ^ escape_src text
    | Sessions c ->
      Printf.sprintf "sessions=%d window=%d seed=%d" c.Fpc_workload.Sessions.total
        c.Fpc_workload.Sessions.window c.Fpc_workload.Sessions.seed
  in
  Printf.sprintf "%s engine=%s fuel=%d%s%s%s%s%s" src s.engine s.fuel
    (match s.tier with
    | Auto -> ""  (* the default, omitted to keep request lines stable *)
    | t -> " tier=" ^ tier_to_string t)
    (if s.trace then " trace=1" else "")
    (match s.deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf " deadline_ms=%d" ms)
    (match s.sched with
    | None -> ""
    | Some Fpc_sched.Sched.Run_to_yield -> " sched=yield"
    | Some (Fpc_sched.Sched.Preempt { quantum }) ->
      Printf.sprintf " sched=preempt quantum=%d" quantum)
    (match s.devirt with
    | None -> ""  (* left to the service default, omitted like tier *)
    | Some b -> " devirt=" ^ if b then "1" else "0")

(* ---- rendering ---- *)

let result_line r =
  let head =
    Printf.sprintf "#%d %s %s" r.id (source_label r.spec.source)
      (String.lowercase_ascii r.spec.engine)
  in
  let sched_tail =
    (* preemption/slice counts are fuel-dependent host policy; the line
       keeps only the simulated-meter fields, like everything else here *)
    match r.sched with
    | None -> ""
    | Some s ->
      Printf.sprintf " sessions=%d peak-live=%d frame-peak=%dw"
        s.Fpc_sched.Sched.forked s.Fpc_sched.Sched.peak_live
        s.Fpc_sched.Sched.frame_peak_words
  in
  match r.outcome with
  | Output words ->
    Printf.sprintf "%s ok output=%s instructions=%d cycles=%d mem-refs=%d%s"
      head
      (String.concat "," (List.map string_of_int words))
      r.stats.instructions r.stats.cycles r.stats.mem_refs sched_tail
  | Failed (kind, msg) ->
    Printf.sprintf "%s error %s: %s" head (error_kind_to_string kind) msg

let result_to_json ?(times = true) r =
  let open Fpc_util.Jsonout in
  let outcome_fields =
    match r.outcome with
    | Output words ->
      [
        ("status", String "ok");
        ("output", List (List.map (fun w -> Int w) words));
      ]
    | Failed (kind, msg) ->
      [
        ("status", String "error");
        ("error", String (error_kind_to_string kind));
        ("message", String msg);
      ]
  in
  let fp = r.stats.fastpath in
  let sim_fields =
    [
      ("instructions", Int r.stats.instructions);
      ("cycles", Int r.stats.cycles);
      ("mem_refs", Int r.stats.mem_refs);
      ( "fastpath",
        Obj
          [
            ("fast_transfers", Int fp.Fpc_interp.Interp.f_fast_transfers);
            ("slow_transfers", Int fp.f_slow_transfers);
            ("rs_pushes", Int fp.f_rs_pushes);
            ("rs_hits", Int fp.f_rs_hits);
            ("rs_flushes", Int fp.f_rs_flushes);
            ("rs_spills", Int fp.f_rs_spills);
            ("bank_words_loaded", Int fp.f_bank_words_loaded);
            ("bank_words_spilled", Int fp.f_bank_words_spilled);
            ("ff_hits", Int fp.f_ff_hits);
            ("ff_misses", Int fp.f_ff_misses);
            ("frame_allocs", Int fp.f_frame_allocs);
            ("frame_frees", Int fp.f_frame_frees);
          ] );
    ]
  in
  let profile_fields =
    match r.profile with
    | None -> []
    | Some s -> [ ("profile", Fpc_trace.Profile.summary_to_json s) ]
  in
  let sched_fields =
    (* all simulated meters — deterministic, so not gated on [times] *)
    match r.sched with
    | None -> []
    | Some s ->
      [
        ( "sched",
          Obj
            [
              ("forked", Int s.Fpc_sched.Sched.forked);
              ("ended", Int s.ended);
              ("peak_live", Int s.peak_live);
              ("switch_xfers", Int s.switch_xfers);
              ("rs_flushes", Int s.rs_flushes);
              ("bank_overflows", Int s.bank_overflows);
              ("frame_peak_words", Int s.frame_peak_words);
              ("lifo_reserved_words", Int s.lifo_reserved_words);
            ] );
      ]
  in
  let time_fields =
    (* Which tier actually ran (and what translating cost) is a host-side
       observation like [run_s]: the simulated fields above are identical
       either way, which is what keeps [--json] byte-stable across tiers. *)
    if times then
      [
        ("cache_hit", Bool r.stats.cache_hit);
        ("compile_s", Float r.stats.compile_s);
        ("run_s", Float r.stats.run_s);
        ("minor_words", Int r.stats.minor_words);
      ]
      @ (match r.stats.translation with
        | No_translation -> [ ("tier", String "interp") ]
        | Translated
            {
              hit;
              translate_s;
              lazy_translated;
              fused_calls;
              procs;
              procs_translated;
              _;
            } ->
          [
            ("tier", String "compiled");
            ("translation_hit", Bool hit);
            ("translate_s", Float translate_s);
            ("lazy_translated", Int lazy_translated);
            ("fused_calls", Int fused_calls);
            ("procs", Int procs);
            ("procs_translated", Int procs_translated);
          ])
      @
      (* Which image variant the cache served (devirtualized or not) is a
         host/service choice like the tier: the meters already reflect it,
         so the breakdown rides with the non-deterministic fields. *)
      (match r.stats.devirt_stats with
      | None -> []
      | Some d ->
        [
          ( "devirt",
            Obj
              [
                ("sites", Int d.Fpc_mesa.Image.dv_sites);
                ("proven", Int d.dv_proven);
                ("rewritten", Int d.dv_rewritten);
                ("short", Int d.dv_short);
                ("abstained", Int d.dv_abstained);
              ] );
        ])
    else []
  in
  Obj
    ([
       ("id", Int r.id);
       ("source", String (source_label r.spec.source));
       ("engine", String (String.lowercase_ascii r.spec.engine));
       ("fuel", Int r.spec.fuel);
     ]
    @ (match r.spec.deadline_ms with
      | None -> []
      | Some ms -> [ ("deadline_ms", Int ms) ])
    @ (if r.spec.trace then [ ("trace", Bool true) ] else [])
    @ outcome_fields @ sim_fields @ profile_fields @ sched_fields
    @ time_fields)
