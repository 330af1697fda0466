(** A sharded key-value store served over Midway entry consistency.

    The keyspace [0, keys) is split into [buckets] equal shards; each
    shard's slots and metadata are bound to one EC lock, so acquiring
    the lock is both mutual exclusion and the consistency action that
    pulls exactly that shard's data.  Mutations run in exclusive mode
    and stamp the shard's op counter (itself bound data); gets and
    scans run in shared mode and record the counter they saw.  Those
    stamps are the linearization evidence the {!Oracle} replays.

    Buckets migrate between processors by lock {e re-binding}: the new
    owner widens the lock's binding over both storage areas, copies the
    live area into the cold one, flips the location word, shrinks the
    binding to the new home and releases — leaving itself the owner
    (ownership follows the last holder) and the old area unbound.

    Each processor journals its last committed mutation of each bucket
    inside the bucket's bound metadata.  When a crash kills a
    processor after its release committed a mutation but before the
    host-side log recorded it, the journal is the only witness; the
    oracle accepts exactly such journal-covered sequence gaps.

    The observation log the oracle replays is the store's only record
    of requests: {!request_count} and {!metrics} fold it on demand.
    When the machine's observability layer is armed, each completed
    request also emits a [Request] event (a [kv_request] span in the
    Perfetto export). *)

type t

val create : ?service_ns:int -> Midway.Runtime.t -> keys:int -> buckets:int -> t
(** [service_ns] (default 0) is simulated service time charged inside
    each critical section.  Raises [Invalid_argument] unless
    [keys mod buckets = 0]. *)

val keys : t -> int
val buckets : t -> int
val bucket_of : t -> int -> int

(** {1 Operations} (run inside a simulated processor)

    [sched_ns] is the request's open-loop scheduled arrival (defaults to
    now); recorded latencies are sojourn times [completion - sched_ns]. *)

val get : Midway.Runtime.ctx -> t -> ?sched_ns:int -> int -> bool * int
val put : Midway.Runtime.ctx -> t -> ?sched_ns:int -> int -> int -> unit
val delete : Midway.Runtime.ctx -> t -> ?sched_ns:int -> int -> unit

val scan : Midway.Runtime.ctx -> t -> ?sched_ns:int -> lo:int -> n:int -> unit -> (int * int) list
(** Keys [lo, lo+n) ascending, present entries only.  Atomic per bucket
    (each bucket's segment under its own shared hold, never two locks at
    once), not across buckets. *)

val load : Midway.Runtime.ctx -> t -> (int * int) list -> unit
(** Seed the store: one put's critical section per pair, without its
    service time, completing no request — never more writes per
    section than the one-op journal can witness across a crash. *)

val migrate : ?broken:bool -> Midway.Runtime.ctx -> t -> int -> unit
(** Re-home the bucket to the calling processor by re-binding (see
    above).  [broken = true] (fuzzer prey) copies the values but not
    the presence flags — a deterministic refinement bug that stays
    ECSan-clean. *)

val read_sweep : Midway.Runtime.ctx -> t -> unit
(** Pull every bucket once in read mode: makes this processor's copies
    current and forces failover of any bucket whose owner crash-stopped,
    so the host-side oracle reads committed state. *)

(** {1 Host side} (after the run) *)

val observations : t -> Oracle.obs array
(** A copy of the log, oldest first.  An observation completes a
    client request when its [o_done_ns] is the completion time; a
    load's, and a scan's segments before its last (all a client that
    dies mid-scan leaves), have [o_done_ns = -1]. *)

val observation_count : t -> int
(** The log's length, without the copy. *)

val journal : t -> Oracle.journal_entry list
val final_state : t -> Oracle.final_state

val check : t -> string list
(** The refinement oracle over this run: observations + journal + final
    state + the machine's killed set.  Empty = the run linearizes to the
    centralized dictionary. *)

val digest : t -> string
(** Canonical rendering of the final dictionary, op counters and killed
    set — replay identity checks. *)

val metrics : t -> Midway_obs.Metrics.t
(** A registry folded from the log: counter [kv_requests] and histogram
    [kv_latency_ns] of sojourn times (on
    {!Midway_obs.Metrics.latency_buckets}), each labelled by operation
    kind, over the completed requests. *)

val request_count : t -> int
(** The completed requests in the log. *)
