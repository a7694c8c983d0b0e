(** Synchronous client of the daemon protocol — what [fxrefine submit]
    and the serve gate speak: one request line out, one response line
    back per call. *)

type t

(** The daemon answered with something unparsable, or hung up
    mid-request.  A [Printexc] printer is registered. *)
exception Protocol_error of string

(** Why {!connect_retry} gave up — the two failures call for different
    operator action. *)
type connect_failure =
  | No_socket
      (** the socket path does not exist: the daemon never started (or
          points elsewhere) *)
  | Stale_socket
      (** the path exists but nothing accepts on it: a leftover socket
          file from a daemon that died without cleaning up *)

(** {!connect_retry} exhausted its attempts.  A [Printexc] printer is
    registered. *)
exception
  Connect_failed of {
    socket : string;
    attempts : int;
    failure : connect_failure;
  }

(** Connect to the daemon's Unix-domain socket.  Raises
    [Unix.Unix_error] when nothing listens there. *)
val connect : string -> t

(** {!connect}, retried with capped exponential backoff while the
    socket is missing ([ENOENT]) or refusing ([ECONNREFUSED]) — covers
    the start-up race against a freshly backgrounded daemon and a
    daemon mid-restart.  The delay before attempt [n+1] is
    [min 1.0 (base_delay_s * 2^(n-1))] (defaults 0.02 s base over 50
    attempts), scaled by a jitter in [[0.5, 1.0]] drawn
    deterministically from [seed] (default 0) and the attempt index —
    seeded, so tests and reconnect storms are reproducible.

    Exhaustion raises {!Connect_failed} with the {e current} diagnosis:
    {!Stale_socket} when the path exists but nothing listens,
    {!No_socket} when it never appeared.  Other connection errors
    (permissions, …) escape immediately as [Unix.Unix_error].  Raises
    [Invalid_argument] on [attempts < 1]. *)
val connect_retry :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?seed:int ->
  string ->
  t

(** Send one request, block for its response.
    @raise Protocol_error on an unparsable response or early EOF. *)
val request : t -> Protocol.request -> Protocol.response

(** Close the connection (idempotent). *)
val close : t -> unit
