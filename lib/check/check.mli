(** ECSan: an Eraser-style lockset analysis adapted to entry consistency.

    The runtime feeds the checker every synchronization event and every
    instrumented access; the checker decides, word by word, whether the
    access is justified by the entry-consistency contract:

    - a write to shared data must happen under an exclusive hold of a
      covering lock, or to barrier-bound data between crossings (the
      barrier's merge then publishes it; conflicting same-episode writes
      by two processors are flagged), or by the word's sole toucher so
      far (initialization before the data is published);
    - a read must be by the sole toucher, under any-mode hold of a
      covering lock, or by a processor that has synchronized on a
      covering lock/barrier at least once before (entry consistency
      reads are always local-copy, so a reader that has ever brought the
      data over may keep reading it between synchronizations — e.g. a
      a shared-mode acquire followed by release-then-read);
    - reads of data no processor ever wrote in-simulation are never
      flagged (read-only preloaded inputs);
    - a [write_*_private] store followed by a read from a different
      processor is a misclassified-private-store, and an access to a
      lock's rebound-away ranges is a stale-binding access.

    The checker is an approximation in both directions of a true
    happens-before detector — see doc/ECSAN.md for the limitations. *)

type access = Read | Write | Private_write

type t

type report = Report.t

val create : ?context:(unit -> string list) -> nprocs:int -> unit -> t
(** [context] supplies protocol event-log lines attached to a diagnostic's
    first occurrence (default: none). *)

(** {1 Synchronization events} *)

val on_new_sync : t -> id:int -> kind:Binding_index.kind -> raw:(int * int) list -> unit

val on_rebind : t -> id:int -> raw:(int * int) list -> unit

val on_acquire : t -> id:int -> proc:int -> exclusive:bool -> unit

val on_release : t -> id:int -> proc:int -> unit

val on_barrier_cross : t -> id:int -> proc:int -> unit
(** The processor completed a crossing (counts as a synchronization on
    the barrier's bound data). *)

val on_barrier_complete : t -> id:int -> unit
(** All participants arrived; the episode number advances. *)

(** {1 Accesses} *)

val on_access :
  t ->
  proc:int ->
  time:int ->
  addr:int ->
  len:int ->
  op:string ->
  access:access ->
  shared_region:bool ->
  unit

(** {1 Static lint} *)

val lint : t -> region_kind:(int -> [ `Shared | `Private | `Unmapped ]) -> unit
(** Check the binding table itself: ranges bound to two different locks,
    bindings into private or unmapped memory, zero-length ranges.  Run
    once, at [Runtime.run] time (bindings may legitimately overlap
    transiently *during* a run while a worker splits and rebinds). *)

(** {1 Results} *)

val report : t -> report

val current_ranges : t -> id:int -> (int * int) list
(** For cross-checking the index against the runtime's [Sync] records. *)
