let engines =
  [
    ("I1", Fpc_core.Engine.i1);
    ("I2", Fpc_core.Engine.i2);
    ("I3", Fpc_core.Engine.i3 ());
    ("I4", Fpc_core.Engine.i4 ());
  ]

let engine name = List.assoc name engines

let image_of ?(convention = Fpc_compiler.Convention.external_) ~program () =
  let src = Fpc_workload.Programs.find program in
  match Fpc_compiler.Compile.image ~convention src with
  | Ok image -> image
  | Error msg -> failwith (Printf.sprintf "compile %s: %s" program msg)

let must_halt (st : Fpc_core.State.t) =
  match st.status with
  | Fpc_core.State.Halted -> ()
  | Fpc_core.State.Running -> failwith "program still running"
  | Fpc_core.State.Trapped r ->
    failwith ("program trapped: " ^ Fpc_core.State.trap_reason_to_string r)

let run_one ?(engine = Fpc_core.Engine.i2) ?tracer ~program () =
  let convention = Fpc_compiler.Convention.for_engine engine in
  let image = image_of ~convention ~program () in
  let st =
    Fpc_interp.Interp.run_program ?tracer ~image ~engine ~instance:"Main" ~proc:"main"
      ~args:[] ()
  in
  must_halt st;
  st

let run_suite ?(engine = Fpc_core.Engine.i2)
    ?(programs = Fpc_workload.Programs.names) () =
  List.map (fun p -> (p, run_one ~engine ~program:p ())) programs

(* Every run gets a fresh clone of the pristine image: execution mutates
   global frames, so reusing one image across runs would leak state.  A
   translation is clone-invariant (derived from the shared code bytes). *)
let boot ~image ~engine =
  let image = Fpc_mesa.Image.clone image in
  Fpc_interp.Interp.boot ~image ~engine ~instance:"Main" ~proc:"main" ~args:[] ()

let fingerprint = Fpc_interp.Interp.outcome

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
