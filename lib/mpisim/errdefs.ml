(* Error classes and the exceptions of the runtime.

   The runtime distinguishes, as the paper does (§III-G):
   - usage errors (invalid rank, count, tag, uncommitted type, ...), which
     are raised eagerly as [Usage_error] — these would be compile-time or
     assertion failures in KaMPIng;
   - failures (process death, revoked communicators, truncation), raised as
     [Mpi_error] — the recoverable class that error handlers and the ULFM
     plugin deal with. *)

type code =
  | Success
  | Err_truncate  (* receive buffer smaller than incoming message *)
  | Err_type  (* type signature mismatch on matched messages *)
  | Err_rank
  | Err_count
  | Err_tag
  | Err_comm  (* operation on an invalid or mismatched communicator *)
  | Err_request
  | Err_proc_failed  (* a participating process has failed (ULFM) *)
  | Err_revoked  (* communicator has been revoked (ULFM) *)
  | Err_deadlock
  | Err_other of string

let code_name = function
  | Success -> "SUCCESS"
  | Err_truncate -> "ERR_TRUNCATE"
  | Err_type -> "ERR_TYPE"
  | Err_rank -> "ERR_RANK"
  | Err_count -> "ERR_COUNT"
  | Err_tag -> "ERR_TAG"
  | Err_comm -> "ERR_COMM"
  | Err_request -> "ERR_REQUEST"
  | Err_proc_failed -> "ERR_PROC_FAILED"
  | Err_revoked -> "ERR_REVOKED"
  | Err_deadlock -> "ERR_DEADLOCK"
  | Err_other s -> "ERR_OTHER(" ^ s ^ ")"

exception Mpi_error of { code : code; msg : string }

exception Usage_error of string

(* A sanitizer finding (Check module): the class of check that fired, the
   world rank at the violation site and a full report.  Kept separate from
   [Mpi_error] because a violation is a bug in the *program under
   simulation*, not a recoverable runtime failure. *)
exception Check_violation of { check : string; rank : int; msg : string }

let mpi_error code fmt =
  Printf.ksprintf (fun msg -> raise (Mpi_error { code; msg })) fmt

let usage_error fmt = Printf.ksprintf (fun msg -> raise (Usage_error msg)) fmt

(* Per-communicator error-handling strategy (MPI_Errhandler analogue). *)
type handler =
  | Errors_raise  (* raise Mpi_error (the default; idiomatic OCaml) *)
  | Errors_are_fatal  (* print and exit the simulation *)
  | Errors_custom of (code -> string -> unit)  (* plugin hook (§III-G) *)

let () =
  Printexc.register_printer (function
    | Mpi_error { code; msg } ->
        Some (Printf.sprintf "Mpi_error(%s): %s" (code_name code) msg)
    | Usage_error msg -> Some (Printf.sprintf "Usage_error: %s" msg)
    | Check_violation { check; rank; msg } ->
        Some (Printf.sprintf "Check_violation(%s) on rank %d:\n%s" check rank msg)
    | _ -> None)
