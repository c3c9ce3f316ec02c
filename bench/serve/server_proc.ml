(* The server under test: a real `fpc serve --tcp 0 -j 1` subprocess with
   the default flags otherwise, so every response carries the times-gated
   fields.  One worker domain: the recording host has two cores, and the
   generator needs the other. *)

type t = { pid : int; port : int; drainer : Thread.t }

(* Children still running; killed if the benchmark exits early, including
   on SIGTERM or SIGINT (exiting runs the at_exit hook). *)
let live = ref []

let () =
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let binary () =
  let p =
    Filename.concat (Filename.dirname Sys.executable_name) Fpc_exe.relative_path
  in
  if Sys.file_exists p then p
  else failwith ("cannot find the fpc server binary at " ^ p)

let start () =
  let fpc = binary () in
  let err_rd, err_wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process fpc
      [| fpc; "serve"; "--tcp"; "0"; "-j"; "1" |]
      devnull devnull err_wr
  in
  live := pid :: !live;
  Unix.close err_wr;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr err_rd in
  (* The server prints "fpc: serving on HOST:PORT" once it listens. *)
  let rec await_port () =
    match input_line ic with
    | exception End_of_file -> None
    | line -> (
      match Scanf.sscanf line "fpc: serving on %s@:%d" (fun _ p -> p) with
      | p -> Some p
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> await_port ())
  in
  let port = await_port () in
  (* Keep draining stderr so the server's exit report cannot block it. *)
  let drainer =
    Thread.create
      (fun () ->
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  match port with
  | Some port -> { pid; port; drainer }
  | None -> failwith "the fpc server exited before it listened"

(* Peak resident set of the server so far, in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> Float.nan
    | line -> (
      match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
      | kb -> float_of_int kb /. 1024.0
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* [paused t f]: run [f] with the server stopped (SIGSTOP), so that it
   takes no CPU time at all while [f] runs. *)
let paused t f =
  Unix.kill t.pid Sys.sigstop;
  Fun.protect ~finally:(fun () -> Unix.kill t.pid Sys.sigcont) f

(* SIGTERM drains the server gracefully; one that does not exit within
   ten seconds is killed. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Clock.now () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live := List.filter (fun p -> p <> t.pid) !live;
  Thread.join t.drainer
