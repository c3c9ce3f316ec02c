type ready = {
  r_fd : Unix.file_descr;
  r_readable : bool;
  r_writable : bool;
}

(* Interest lives in a table the wait call folds into the two fd lists
   select wants; readiness comes back as the merged [ready] list.
   O(registered fds) per wait — fine for the fan-in select can address
   at all (fd numbers below FD_SETSIZE, 1024 on Linux). *)

type interest = { mutable want_read : bool; mutable want_write : bool }

type t = (Unix.file_descr, interest) Hashtbl.t

let name = "select"

let create () : t = Hashtbl.create 64

let add t fd =
  if Hashtbl.mem t fd then invalid_arg "Backend.add: fd already registered";
  Hashtbl.replace t fd { want_read = false; want_write = false }

let modify t fd ~read ~write =
  match Hashtbl.find_opt t fd with
  | None -> invalid_arg "Backend.modify: fd not registered"
  | Some i ->
    i.want_read <- read;
    i.want_write <- write

let remove t fd = Hashtbl.remove t fd

let wait t timeout =
  let rl, wl =
    Hashtbl.fold
      (fun fd i (rl, wl) ->
        ( (if i.want_read then fd :: rl else rl),
          if i.want_write then fd :: wl else wl ))
      t ([], [])
  in
  if rl = [] && wl = [] && timeout < 0.0 then
    (* nothing to watch and nothing scheduled: a select here would
       sleep forever; the loop guards against this, but be safe *)
    []
  else
    match Unix.select rl wl [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* spurious wake: gives pending OCaml signal handlers a turn *)
      []
    | readable, writable, _ ->
      let seen : (Unix.file_descr, ready ref) Hashtbl.t =
        Hashtbl.create (List.length readable + List.length writable)
      in
      List.iter
        (fun fd ->
          Hashtbl.replace seen fd
            (ref { r_fd = fd; r_readable = true; r_writable = false }))
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt seen fd with
          | Some r -> r := { !r with r_writable = true }
          | None ->
            Hashtbl.replace seen fd
              (ref { r_fd = fd; r_readable = false; r_writable = true }))
        writable;
      Hashtbl.fold (fun _ r acc -> !r :: acc) seen []
