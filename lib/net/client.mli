(** A minimal blocking client for the line protocol — what the tests,
    [fpc request] and [bench net] speak; not a public SDK.  One TCP
    connection, send request lines, read response lines. *)

type t

val connect : ?max_line:int -> ?rcvbuf:int -> host:string -> port:int -> unit -> t
(** Raises [Unix.Unix_error] if the connection is refused.  [rcvbuf]
    (a test hook) sets SO_RCVBUF before connecting, so a deliberately
    tiny client window can force the server into partial writes. *)

val send_line : t -> string -> unit
(** Write one request line (the newline is added here). *)

val recv : t -> Framing.item
(** Next response line (or [Overlong]/[Eof]), via the same {!Framing}
    the server uses. *)

val recv_line : t -> string option
(** [recv] restricted to lines: skips [Overlong] items, [None] at EOF. *)

val shutdown_send : t -> unit
(** Half-close: no more requests, but keep reading responses — how a
    client drains its in-flight jobs before {!close}. *)

val close : t -> unit
