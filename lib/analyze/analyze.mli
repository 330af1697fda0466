(** ECLint: static entry-consistency analysis over the EC-IR.

    Three passes:

    + a flow-sensitive lockset / binding-coverage dataflow computing the
      {e may-race set}, classified onto the same diagnostic classes
      ECSan uses dynamically ({!Midway_check.Diag.cls});
    + a static lock-order graph with per-round cycle detection reporting
      potential deadlocks with witness acquisition paths;
    + binding-hygiene lints.

    Soundness contract (checked by the test suite): every diagnosis
    ECSan can produce on {e some} schedule of a program appears in the
    static may-race set, by class (and by sync object when both name
    one).  The converse does not hold — static warnings may be
    unrealizable; the schedule explorer confirms or refutes them. *)

type hygiene =
  | Overlapping_bindings  (** a range bound to two different locks *)
  | Degenerate_binding  (** an empty range in a binding list *)
  | Never_written_binding  (** bound data no processor ever writes *)
  | Rebind_without_exclusive_hold
      (** a [Rebind] issued without exclusive ownership of the lock *)

type cls =
  | May_race of Midway_check.Diag.cls
      (** a statically possible dynamic diagnosis, same class space *)
  | Lock_cycle  (** a cycle in the static lock-order graph *)
  | Hygiene of hygiene

type finding = {
  cls : cls;
  procs : int list;  (** implicated processors, sorted (may be empty) *)
  sync : int;  (** implicated lock/barrier id, [-1] if none *)
  lo : int;  (** address hull over deduplicated occurrences; [0,0] if n/a *)
  hi : int;
  round : int;  (** first implicated round, [-1] for whole-program findings *)
  count : int;  (** occurrences folded into this record *)
  detail : string;
  witness : string list;  (** e.g. acquisition paths for a lock cycle *)
}

type report = {
  program : string;
  nprocs : int;
  warnings : finding list;  (** may-races and lock cycles, deterministic order *)
  lints : finding list;  (** hygiene findings *)
}

val analyze : Ir.program -> report
(** Raises [Invalid_argument] if {!Ir.validate} rejects the program. *)

val class_slug : cls -> string
(** Stable short slug; [May_race d] reuses ECSan's
    {!Midway_check.Diag.class_name} so static and dynamic verdicts
    compare by string. *)

val predicts : report -> cls:Midway_check.Diag.cls -> sync:int -> bool
(** Does the static may-race set cover a dynamic diagnosis of this
    class?  Sync objects are compared only when both sides name one
    (both [>= 0]). *)

val cycles : report -> finding list

val may_races : report -> finding list

val render : report -> string
