(** Per-processor invocation counters for the primitive operations.

    These are the raw material of the paper's Table 2; Tables 3-5 and
    Figures 3-4 are derived from them by multiplying with the
    {!Cost_model}.  Every backend (RT, VM, blast) bumps these as it
    executes, and the report layer aggregates them across processors. *)

type t = {
  (* --- RT-DSM trapping --- *)
  mutable dirtybits_set : int;  (** instrumented stores to shared memory *)
  mutable dirtybits_misclassified : int;  (** instrumented stores that hit a private region's null template *)
  (* --- RT-DSM collection --- *)
  mutable clean_dirtybits_read : int;  (** scanned lines found clean/already stamped *)
  mutable dirty_dirtybits_read : int;  (** scanned lines found locally dirty (need stamping) *)
  mutable dirtybits_updated : int;  (** incoming timestamps installed at this processor *)
  (* --- VM-DSM trapping --- *)
  mutable write_faults : int;  (** first store to a protected page *)
  (* --- VM-DSM collection --- *)
  mutable pages_diffed : int;
  mutable pages_write_protected : int;
  mutable twin_update_bytes : int;  (** bytes of incoming updates applied to twins *)
  mutable twin_compare_bytes : int;  (** twin backend: bytes compared at collections (no write detection, section 3.5) *)
  (* --- data movement (application payload only) --- *)
  mutable data_received_bytes : int;  (** update payload applied at this processor *)
  mutable data_sent_bytes : int;  (** update payload shipped from this processor *)
  mutable messages : int;  (** protocol messages this processor sent *)
  (* --- dirty-data ratio bookkeeping (Table 2 "percent dirty data") --- *)
  mutable bound_bytes_scanned : int;  (** bytes bound to sync objects examined at collections *)
  mutable dirty_bytes_found : int;  (** of those, bytes found modified *)
  (* --- synchronization profile --- *)
  mutable lock_acquires_local : int;
  mutable lock_acquires_remote : int;
  mutable barrier_crossings : int;
  (* --- accumulated virtual time (ns) attributed to detection --- *)
  mutable trap_time_ns : int;  (** charged inline to application writes *)
  mutable collect_time_ns : int;  (** charged on the runtime path at synchronization *)
  (* --- reliable-channel activity under fault injection (all zero on a
     fault-free fabric) --- *)
  mutable retransmits : int;  (** data copies this processor resent after an ack timeout *)
  mutable drops_observed : int;  (** data/ack copies of this processor's messages the fabric destroyed *)
  mutable duplicates_suppressed : int;  (** redundant incoming copies discarded by sequence number *)
  mutable backoff_time_ns : int;  (** virtual time this processor's messages spent in retransmission timeouts *)
  (* --- crash-recovery activity (all zero without node-level faults) --- *)
  mutable failovers : int;  (** quorum lock-ownership transfers this processor initiated *)
  mutable replications : int;  (** bound-data replicas this processor shipped at release *)
}

val create : unit -> t

val add : into:t -> t -> unit
(** Accumulate [t] into [into], field by field. *)

val average : t array -> t
(** Arithmetic mean across processors (the paper reports per-processor
    averages over an 8-way run); byte and count fields are divided by the
    array length. *)

val total : t array -> t

val percent_dirty_data : t -> float
(** [dirty_bytes_found / bound_bytes_scanned * 100]; 0 when nothing was
    scanned. *)
