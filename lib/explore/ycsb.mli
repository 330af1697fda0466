(** A YCSB-style open-loop workload generator for the sharded KV store.

    Pure and seeded: {!client_stream} is a function of the configuration
    and client id only, so the same seed yields bit-identical request
    streams on every run and every backend.  Key popularity uses Gray et
    al.'s incremental zipfian sampler (YCSB's own), operation mixes are
    apportioned {e exactly} over the finite stream (largest-remainder,
    then a seeded shuffle), and arrivals are open-loop: the schedule is
    fixed up front, so a slow server makes requests late rather than
    sparse — latency measured against the schedule is free of
    coordinated omission. *)

type dist =
  | Uniform
  | Zipfian of float
      (** rank-ordered with skew [theta] in (0, 1): key 0 hottest *)
  | Scrambled_zipfian of float
      (** zipfian ranks hashed across the keyspace *)

type arrival =
  | Closed  (** no schedule — each request issues when the previous completes *)
  | Fixed of int  (** deterministic inter-arrival, ns *)
  | Poisson of int  (** exponential inter-arrival with the given mean, ns *)

type mix = { w_get : int; w_put : int; w_delete : int; w_scan : int }

val mix_a : mix  (** 50% get / 50% put — YCSB A *)

val mix_b : mix  (** 95% get / 5% put — YCSB B *)

val mix_c : mix  (** read-only — YCSB C *)

val mix_e : mix  (** 95% scan / 5% put — YCSB E *)

val mix_crud : mix  (** 70/20/5/5 get/put/delete/scan *)

val mix_name : mix -> string

type op = Get of int | Put of int * int | Delete of int | Scan of int * int

type req = {
  r_idx : int;
  r_sched_ns : int;  (** scheduled arrival; [-1] under {!Closed} *)
  r_op : op;
}

type cfg = {
  keys : int;
  requests : int;  (** per client *)
  mix : mix;
  dist : dist;
  arrival : arrival;
  max_scan : int;  (** scan lengths are uniform in [1, max_scan] *)
  seed : int;
}

val default : cfg

val client_stream : cfg -> client:int -> req array
(** Client [client]'s whole request stream.  Clients derive their
    generators from the parent seed by repeated splits, so streams are
    decoupled: adding a client never disturbs the others'. *)

val apportion : n:int -> int array -> int array
(** Largest-remainder apportionment of [n] slots over the weights; the
    counts always sum to [n], and equal [n*w/Σw] exactly whenever it is
    integral. *)

val zipf_pmf : n:int -> theta:float -> float array
(** The exact zipfian probabilities [P(rank)] the sampler targets — the
    reference distribution for the generator's chi-squared test. *)

val stream_digest : req array -> string
(** Canonical rendering of a whole stream — the cross-run/backend
    identity check. *)
