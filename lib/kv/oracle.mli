(** The refinement oracle for the sharded KV store.

    Every concurrent run of {!Kvstore} must be linearizable to a
    centralized dictionary: a total order of the get/put/delete/scan
    requests, consistent with real-time per client, under which every
    read returns what a sequential dictionary would.  The store's
    protocol makes the order explicit — each bucket's mutations are
    serialized by the bucket's exclusive lock and stamped with the
    bucket's op counter (bound to the same lock), and reads record the
    counter value they executed under — so refinement reduces to a
    per-bucket replay against a model dictionary.  Operations on
    different buckets commute, which makes the per-bucket check
    complete for the whole store.

    The checker is pure (plain data in, violations out): the simulator
    never leaks in, so hand-written and mutated histories exercise it
    directly in unit tests. *)

type kind =
  | K_get
  | K_put
  | K_delete
  | K_scan  (** one bucket's portion of a scan (scans are per-bucket atomic) *)
  | K_migrate  (** bucket re-homed to a new owner; dictionary unchanged *)
  | K_load  (** initial data load, sequenced like a put *)

val kind_name : kind -> string

type obs = {
  o_proc : int;
  o_bucket : int;
  o_seq : int;
      (** writes: the op counter after this op's increment (1-based);
          reads: the counter observed under the shared hold — the write
          prefix whose effects the read must reflect *)
  o_kind : kind;
  o_key : int;  (** for scans: the bucket's first key *)
  o_value : int;  (** the value written; 0 otherwise *)
  o_read : (int * bool * int) list;
      (** what the read observed: (key, present, value) *)
  o_sched_ns : int;  (** scheduled open-loop arrival *)
  o_start_ns : int;  (** service start *)
  o_done_ns : int;  (** completion; sojourn latency = o_done_ns - o_sched_ns *)
}

type journal_entry = {
  j_bucket : int;
  j_proc : int;
  j_seq : int;
  j_kind : kind;
  j_key : int;
  j_value : int;
}
(** The last write a processor committed to a bucket, recovered from the
    bucket's bound metadata after the run.  When a processor is killed
    between committing a write (at its release) and logging the
    observation (host side), the journal is the only witness of the
    committed op; the oracle admits exactly such journal-covered
    sequence gaps and no others. *)

type final_state = {
  f_entries : (int * bool * int) array;  (** every key once: (key, present, value) *)
  f_opcounts : int array;  (** per-bucket final op counter *)
}

val describe : obs -> string

val check :
  keys:int ->
  buckets:int ->
  killed:int list ->
  journal:journal_entry list ->
  final:final_state option ->
  obs list ->
  string list
(** Replays each bucket's writes in sequence order against a model
    dictionary and returns the violations (empty = the run refines the
    dictionary): duplicate or unexplained sequence numbers, reads that
    contradict the model at their observed prefix, keys outside their
    bucket, and (when [final] is given) a converged final state or op
    counter differing from the model. *)
