(** ECSan diagnostic classes and the deduplicating violation table.

    A long run can repeat the same mistake millions of times; the table
    collapses occurrences onto a key of (class, processor, sync object)
    and keeps a count, the address hull, and the first occurrence's
    operation and protocol event-log context. *)

type cls =
  | Unsynchronized_access
      (** shared address covered by a binding the processor neither holds
          nor has ever synchronized on — includes same-episode conflicting
          writes to barrier-bound data *)
  | Write_under_shared_hold  (** a store through an [acquire_read] hold *)
  | Unbound_shared_data
      (** shared data touched by two or more processors that no lock or
          barrier ever binds *)
  | Misclassified_private_store
      (** a [write_*_private] store to data later read by another
          processor *)
  | Stale_binding_access  (** touching a lock's old ranges after [rebind] *)
  | Lint_overlapping_bindings
      (** static: a range bound to two different locks at [run] time *)
  | Lint_private_binding
      (** static: a binding into a private region or unmapped memory *)
  | Lint_degenerate_range
      (** static: an empty (zero-length) range in a binding list *)

val class_name : cls -> string
(** Stable short slug, e.g. ["unsynchronized-access"]. *)

val is_lint : cls -> bool

type violation = {
  cls : cls;
  proc : int;  (** processor at fault ([-1] for lint findings) *)
  sync : int;  (** implicated lock/barrier id ([-1] if none) *)
  lo : int;  (** address hull over all deduplicated occurrences *)
  hi : int;
  count : int;  (** occurrences folded into this record *)
  first_time : int;  (** virtual time of the first occurrence *)
  first_op : string;  (** operation of the first occurrence *)
  detail : string;
  context : string list;  (** protocol event-log tail at the first occurrence *)
}

type table

val create_table : unit -> table

val note :
  table ->
  cls:cls ->
  proc:int ->
  sync:int ->
  lo:int ->
  hi:int ->
  time:int ->
  op:string ->
  detail:string ->
  context:(unit -> string list) ->
  unit
(** Record one occurrence.  [context] is forced only the first time a
    (class, proc, sync) key is seen. *)

val violations : table -> violation list
(** All records, ordered by first occurrence time (ties: insertion
    order) — deterministic for a deterministic simulation. *)
