(** Declarative fault plans for the chaos plane: deterministic fault
    actions, independent of the random per-link rates.  Pure data plus a
    compact clause syntax ([fail=2\@ops:40], [fail=1\@t:3.5e-6],
    [fail=3\@task:7], [droplink=0>1\@3], [partition=1,3\@1e-6-5e-6],
    joined with [;]) so
    plans travel on a command line and replay from CI logs.  The
    interpreter is {!Chaos}. *)

type action =
  | Fail_at_ops of { rank : int; ops : int }
      (** the rank fails at its [ops]-th runtime operation (1-based) *)
  | Fail_at_time of { rank : int; time : float }
      (** the rank fails when its virtual clock reaches [time] *)
  | Fail_at_task of { rank : int; task : int }
      (** the rank fails when it begins its [task]-th task execution
          (1-based; counted by {!Chaos.task_tick}, fed by the taskqueue
          plugin) *)
  | Drop_nth of { src : int; dst : int; n : int }
      (** the [n]-th message (1-based) on link [src -> dst] loses its
          first transmission attempt; the reliable layer retransmits *)
  | Partition of { ranks : int list; t_start : float; t_end : float }
      (** messages crossing the boundary between [ranks] and the rest are
          dropped while the sender's clock is in [[t_start, t_end)) *)

type t = action list

val empty : t

(** Parse one clause, e.g. ["fail=2@ops:40"]. *)
val parse_action : string -> (action, string) result

(** Parse a [;]-separated clause list (empty clauses are skipped). *)
val parse : string -> (t, string) result

val action_to_string : action -> string

(** Round-trips through {!parse}. *)
val to_string : t -> string
