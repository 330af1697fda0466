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
  o_done_ns : int;
      (** completion, when this observation completes a client request
          (sojourn latency = [o_done_ns - o_sched_ns]); [-1] for a load
          and for a scan's segments before its last *)
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
    sequence gaps, inside a bucket's sequence or after its last logged
    write, and no others. *)

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
  ?len:int ->
  obs array ->
  string list
(** [check ... ?len log] judges the first [len] observations of [log]
    (default: all of them), oldest first, and returns the violations
    (empty = the run refines the dictionary).  First, in log order,
    every observation whose key is outside the keyspace or in another
    bucket; then, bucket by bucket:
    - a duplicate sequence number, or a missing one (inside the
      sequence or after its last logged write) that no killed
      processor's journal entry supplies;
    - a read whose observed op counter is negative or above the
      bucket's committed count;
    - a read that contradicts the model at its observed prefix, or
      names a key outside the bucket, and a write of a key outside the
      bucket;
    - when [final] is given, a final op counter other than the
      committed count, and a final entry differing from the model
      (entries whose key is outside the keyspace are not judged).

    One linear replay over arrays: the log is grouped by bucket with
    a counting sort that keeps log order, a bucket's writes are sorted
    only when they do not already ascend, its reads are grouped by
    observed prefix with a second counting sort, and the model is a
    presence and a value array over the bucket's contiguous keys.
    Nothing is allocated per observation. *)
