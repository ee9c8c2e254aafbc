(** Error classes and exceptions of the runtime (paper §III-G).

    Two kinds are distinguished, as the paper's design does:

    - {b usage errors} (invalid rank/count/tag, uncommitted type, missing
      parameter): raised eagerly as {!Usage_error} — the class KaMPIng
      catches at compile time or with assertions;
    - {b failures} (process death, revoked communicator, truncation):
      raised as {!Mpi_error} — the recoverable class that error handlers
      and the ULFM plugin deal with. *)

type code =
  | Success
  | Err_truncate  (** receive buffer smaller than the incoming message *)
  | Err_type  (** type-signature mismatch on a matched message *)
  | Err_rank
  | Err_count
  | Err_tag
  | Err_comm
  | Err_request
  | Err_proc_failed  (** a participating process has failed (ULFM) *)
  | Err_revoked  (** communicator has been revoked (ULFM) *)
  | Err_deadlock
  | Err_other of string

val code_name : code -> string

exception Mpi_error of { code : code; msg : string }

exception Usage_error of string

(** A sanitizer finding from the {!Check} layer: which check class fired
    ("collective", "request-leak", "double-wait", "send-buffer",
    "deadlock", "wildcard"), the world rank at the violation site and the
    full report.  Separate from {!Mpi_error} because a violation is a bug
    in the program under simulation, not a recoverable runtime failure. *)
exception Check_violation of { check : string; rank : int; msg : string }

(** [mpi_error code fmt ...] raises {!Mpi_error} with a formatted
    message. *)
val mpi_error : code -> ('a, unit, string, 'b) format4 -> 'a

val usage_error : ('a, unit, string, 'b) format4 -> 'a

(** Per-communicator error-handling strategy (MPI_Errhandler analogue).
    [Errors_custom] is the plugin hook of §III-G; a handler that returns
    cannot resume the operation (the error is re-raised). *)
type handler =
  | Errors_raise
  | Errors_are_fatal
  | Errors_custom of (code -> string -> unit)
