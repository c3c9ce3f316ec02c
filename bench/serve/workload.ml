(* The four serving workloads (README.md says why each exists): what each
   sends, and the reference answers its replies are checked against. *)

open Fpc_svc

type kind = Hot | Cold | Tiny | Sessions

type t = {
  name : string;
  kind : kind;
  nominal_rps : float;
      (** the saturation throughput at host speed 1 (Host_speed), the
          median of seeds 1-10, rounded down to two significant figures; the
          open-loop rates are fractions of it times the host speed, so that
          two commits face the same load *)
  slo_p99_ms : float;  (** the p99 limit a ladder rung must meet *)
  window : int;  (** requests kept in flight by the closed-loop phase *)
}

let all =
  [
    {
      name = "serve-hot";
      kind = Hot;
      nominal_rps = 750.0;
      slo_p99_ms = 50.0;
      window = 8;
    };
    {
      name = "serve-cold";
      kind = Cold;
      nominal_rps = 580.0;
      slo_p99_ms = 50.0;
      window = 8;
    };
    {
      name = "serve-tiny";
      kind = Tiny;
      nominal_rps = 18000.0;
      slo_p99_ms = 5.0;
      window = 32;
    };
    {
      name = "serve-sessions";
      kind = Sessions;
      nominal_rps = 320.0;
      slo_p99_ms = 100.0;
      window = 8;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let engines = [| "i1"; "i2"; "i3"; "i4" |]

let line_of_spec spec = Job.request_of_spec spec

(* The distinct request lines of a workload with a finite set (all but
   serve-cold), in a fixed order. *)
let distinct w =
  let product sources =
    List.concat_map
      (fun source ->
        Array.to_list
          (Array.map (fun engine -> line_of_spec (Job.spec ~engine source)) engines))
      sources
  in
  match w.kind with
  | Hot ->
    product (List.map (fun p -> Job.Suite p) Fpc_workload.Programs.call_intensive)
  | Tiny ->
    product (List.map (fun p -> Job.Suite p) [ "processes"; "coroutine"; "bsearch" ])
  | Sessions ->
    product
      (List.map
         (fun seed ->
           Job.Sessions { (Fpc_workload.Sessions.default ~total:250) with seed })
         [ 0; 1; 2; 3 ])
  | Cold -> []

let cold_line ~seed i =
  let src =
    Fpc_workload.Synthetic.random_program ~leaf_call_rate:0.2 ~late_bound_rate:0.2
      ~seed:((seed * 1_000_000) + i) ()
  in
  line_of_spec (Job.spec ~engine:engines.(i mod Array.length engines) (Job.Inline src))

(* serve-cold warms up on programs from an index range no run reaches, so
   set-up never pre-fills the cache with a line the phases will send. *)
let cold_warmup_base = 900_000
let cold_warmup_lines = 16

let warmup_lines w ~seed =
  match w.kind with
  | Cold -> List.init cold_warmup_lines (fun k -> cold_line ~seed (cold_warmup_base + k))
  | Hot | Tiny | Sessions -> distinct w

(* Only a seeded 1-in-8 sample of serve-cold replies is checked: each check
   compiles and interprets the program again, off the clock. *)
let cold_sampled ~seed i =
  Fpc_util.Prng.int (Fpc_util.Prng.create ~seed:((seed * 7_919) + (i * 104_729))) ~bound:8
  = 0

(* The request stream of one run: line [i] is a pure function of the seed
   and [i], generated on first use and kept, so a phase can generate its
   lines before its clock starts.  [id i] is the index of the line among
   [distinct w] (its reference answer), or -1 for serve-cold. *)
module Stream = struct
  type s = {
    w : t;
    seed : int;
    distinct : string array;
    mutable lines : string array;
    mutable ids : int array;
    mutable n : int;
  }

  let create w ~seed =
    { w; seed; distinct = Array.of_list (distinct w); lines = [||]; ids = [||]; n = 0 }

  let pick s i =
    match s.w.kind with
    | Cold -> (cold_line ~seed:s.seed i, -1)
    | Hot | Tiny | Sessions ->
      let rng = Fpc_util.Prng.create ~seed:((s.seed * 1_000_003) + i) in
      let k = Fpc_util.Prng.int rng ~bound:(Array.length s.distinct) in
      (s.distinct.(k), k)

  let prefill s upto =
    if upto > Array.length s.lines then begin
      let cap = max upto (2 * Array.length s.lines) in
      let lines = Array.make cap "" and ids = Array.make cap (-1) in
      Array.blit s.lines 0 lines 0 s.n;
      Array.blit s.ids 0 ids 0 s.n;
      s.lines <- lines;
      s.ids <- ids
    end;
    for i = s.n to upto - 1 do
      let l, k = pick s i in
      s.lines.(i) <- l;
      s.ids.(i) <- k
    done;
    s.n <- max s.n upto

  let line s i =
    prefill s (i + 1);
    s.lines.(i)

  let id s i =
    prefill s (i + 1);
    s.ids.(i)
end

(* ---- reference answers ---- *)

let fragment_of_output words =
  let open Fpc_util.Jsonout in
  let s =
    to_string
      (Obj [ ("status", String "ok"); ("output", List (List.map (fun w -> Int w) words)) ])
  in
  String.sub s 1 (String.length s - 2)

(* The interpreter is the semantics: the reference compiles the request
   without link-time devirtualization and runs it on a fresh image under
   [Interp], scheduled like the service schedules it.  The answer is the
   reply's [status]/[output] fragment exactly as the server renders it. *)
let reference line =
  let fail m = failwith (Printf.sprintf "reference for %S: %s" line m) in
  let ok = function Ok x -> x | Error m -> fail m in
  let spec = ok (Job.parse_request line) in
  let engine = ok (Job.engine_of_name spec.Job.engine) in
  let src = ok (Job.source_text spec.Job.source) in
  let image =
    ok
      (Fpc_compiler.Compile.image
         ~convention:(Fpc_compiler.Convention.for_engine engine)
         ~devirt:false src)
  in
  let st =
    Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main" ~args:[] ()
  in
  let step n st = Fpc_interp.Interp.run ~max_steps:n st in
  (match Job.effective_sched spec with
  | None -> step spec.Job.fuel st
  | Some policy -> ignore (Fpc_sched.Sched.run ~policy ~step ~fuel:spec.Job.fuel st));
  let o = Fpc_interp.Interp.outcome st in
  match o.Fpc_interp.Interp.o_status with
  | Fpc_core.State.Halted -> fragment_of_output o.Fpc_interp.Interp.o_output
  | Fpc_core.State.Running -> fail "still running"
  | Fpc_core.State.Trapped r -> fail (Fpc_core.State.trap_reason_to_string r)

(* ---- reading replies ---- *)

(* Replies are read on the generator's hot path, so these scan in place
   and allocate nothing. *)
let at s i sub =
  let m = String.length sub in
  i >= 0
  && i + m <= String.length s
  &&
  let rec eq k =
    k = m || (String.unsafe_get s (i + k) = String.unsafe_get sub k && eq (k + 1))
  in
  eq 0

let find_sub s sub =
  let n = String.length s - String.length sub in
  let rec go i = if i > n then -1 else if at s i sub then i else go (i + 1) in
  go 0

type status = Ok_reply | Error_reply | Shed_reply

let status_key = "\"status\":"

let status reply =
  let i = find_sub reply status_key in
  let j = i + String.length status_key in
  if i < 0 then Error_reply
  else if at reply j "\"ok\"" then Ok_reply
  else if at reply j "\"shed\"" then Shed_reply
  else Error_reply

(* Whether the reply's status/output fragment is exactly [fragment]. *)
let matches ~fragment reply =
  let i = find_sub reply status_key in
  let e = i + String.length fragment in
  at reply i fragment && e < String.length reply && (reply.[e] = ',' || reply.[e] = '}')

(* A numeric field of a reply (the times-gated [compile_s], [run_s],
   [minor_words]); nan when absent. *)
let number reply key =
  let k = "\"" ^ key ^ "\":" in
  let i = find_sub reply k in
  if i < 0 then Float.nan
  else
    let j = i + String.length k in
    let e = ref j in
    while !e < String.length reply && reply.[!e] <> ',' && reply.[!e] <> '}' do
      incr e
    done;
    Option.value (float_of_string_opt (String.sub reply j (!e - j))) ~default:Float.nan
