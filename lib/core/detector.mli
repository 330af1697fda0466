(** Write detection behind one interface.

    The paper splits write detection into two halves (sections 3.1–3.5).
    The first half traps stores: dirtybit templates (RT, section 3.1) or
    page faults (VM, section 3.3).  The second half collects the trapped
    writes at a transfer against a per-object history: per-line Lamport
    timestamps (section 3.2) or the lock's incarnation log (section 3.4).
    The five schemes recombine these halves:

    - [Rt]: dirtybit templates (in three organizations, see {!Dirtybits})
      feeding the timestamp history;
    - [Vm_fine]: page faults feeding the timestamp history — section
      3.4's rejected finer-grained variant;
    - [Vm]: page faults, twins and diffs feeding the incarnation log;
    - [Twin]: no trapping, every bound byte compared against a twin,
      feeding the incarnation log (section 3.5);
    - [Blast] (and [Standalone]): no trapping and no history, all bound
      data shipped at every transfer (section 3.5).

    Each processor owns one detector per scheme it uses.  The runtime's
    lock and barrier protocol calls the operations below and never looks
    inside; every simulated cost an operation incurs is either returned
    (for the runtime to charge) or, for the counters, recorded on the
    processor's {!Midway_stats.Counters.t}. *)

type env
(** What every detector of one machine shares: the configuration, the
    address space, each processor's counters and Lamport clock, each
    lock's write history (its per-processor cursors, the update-queue
    line history and the incarnation log, by lock id), and the
    untargetted model's per-processor consistency cursors and its
    machine-wide update history. *)

val env :
  Config.t ->
  Midway_memory.Space.t ->
  counters:Midway_stats.Counters.t array ->
  reliable:bool ->
  env
(** [reliable] is whether protocol messages go through the reliable
    channel, whose retries can replay an update: timestamp-history
    applies then skip lines already installed. *)

val rebind : env -> ?switch:bool -> Sync.lock -> ranges:Range.t list -> unit
(** Change the data bound to the lock (quicksort's task pattern; a
    backend switch or a failover rebinds it to its own ranges).  Under RT
    the per-processor cursors reset so the next transfer ships all bound
    lines; under VM the incarnation is bumped and a full marker recorded
    so the next transfer ships all bound data without diffing — both as
    described in section 4.  A [switch] rebinding is not the
    application's to {!ships_full}. *)

val incarnation : env -> Sync.lock -> int
(** The lock's incarnation number: bumped by every incarnation-log
    collection and every rebinding, so a crash failover's epoch. *)

val electable : Config.backend -> bool
(** Whether a region may elect the scheme on its own: [Rt], [Vm], [Twin]
    and [Blast].  [Vm_fine] and [Standalone] are machine-wide. *)

val lock_fallback : Config.backend
(** The scheme of a lock whose ranges span differently elected regions:
    [Blast], the whole-data copy that is always correct. *)

val barrier_fallback : Config.backend
(** The same for barriers: [Twin], because blast carries no barrier
    data. *)

type t
(** One processor's detection state for one scheme. *)

val create : env -> proc:int -> Config.backend -> t

type cursor = int
(** What a collection hands to {!advance}: the transfer's stamp under a
    timestamp history, the lock's incarnation under an incarnation log,
    0 under blast. *)

val trap : t -> region:Midway_memory.Region.t -> addr:int -> len:int -> int
(** Trap one store of [len] bytes at [addr] (inside [region]) and return
    the trapping time to charge: a template per touched line, a write
    fault per newly written page, or the misclassified-store penalty for
    a dirtybit template in a private region. *)

val collect_lock : t -> Sync.lock -> for_:int -> Payload.t * int * cursor
(** At the releaser: collect the update set processor [for_] is missing
    for the lock, with its collection time.  Moves the lock's history
    forward (stamps lines, or appends an incarnation to the log). *)

val collect_barrier : t -> Sync.barrier -> Payload.t * int * cursor
(** At an arriving processor: collect its own fresh modifications of the
    barrier's bound data, with the collection time.  Raises [Failure]
    under blast when the barrier binds data. *)

val apply : t -> id:int -> ranges:Range.t list -> Payload.t -> int
(** At the receiver: install a payload collected by the same scheme for
    synchronization object [id] bound to [ranges]; returns the apply
    time. *)

val advance : t -> Sync.lock -> requester:int -> cursor -> unit
(** After a grant has been applied: move the releaser's (this
    detector's processor) and [requester]'s cursors on the lock to the
    collection's cursor. *)

val advance_barrier : t -> cursor -> unit
(** After a barrier release has been applied here: merge the newest
    cursor any participant collected under into this processor's
    Lamport clock (timestamp history only). *)

val ships_full : t -> Sync.lock -> for_:int -> bool
(** Whether the next collection for [for_] ships the bound data in full
    because the application rebound the lock, read off the cursors
    before the collection consumes them: the adaptive policy's
    rebinding input.  The lock's incarnation must have moved past its
    last backend switch's bump, so that neither the policy's own
    switches nor a first transfer read as rebinding-heavy behaviour and
    bias it toward VM.  An incarnation log then answers from its full
    markers; a timestamp history (and blast, which keeps none) from a
    never-seen cursor. *)

val install_full : t -> Sync.lock -> Payload.vm_piece list -> int
(** Install a crash replica of the lock's bound data as if it were a
    freshly received full transfer, so the new owner serves it onwards;
    returns the install time. *)

val forget_region : t -> Midway_memory.Region.t -> unit
(** Wipe this detector's state for one region, as if no store there had
    ever been trapped.  Done at every per-region backend switch, which
    also epoch-bumps every binding in the region, so nothing forgotten
    is lost. *)

val label : t -> string
(** What a collection does, for the trace's diff spans: ["dirtybit scan"],
    ["page diff"], ["twin compare"], ["page diff + dirtybit scan"] or
    ["no detection"]. *)

val invariants : t -> unowned:Sync.lock list -> string list
(** Post-run structural checks of this detector's state.  [unowned] are
    the locks elected to this detector's scheme whose data this
    processor does not own: it may hold no locally dirty line of them.
    A page-fault trapper also checks that every dirty page has a twin. *)
