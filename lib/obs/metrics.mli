(** The metrics registry: named counters and fixed-bucket histograms.

    Each series is keyed by (metric name, label); labels are free-form
    strings, by convention ["p3/lock2"] for (processor, sync object)
    attribution and ["p0->p2"] for a network channel.  All values are
    integers (nanoseconds, bytes, counts).  A metric name's bucket
    layout is fixed by its first {!observe}, so every label of one
    metric shares comparable buckets.

    Reading the registry goes through immutable {!snapshot}s, which sort
    their series for deterministic output. *)

type t

val create : unit -> t

val incr : t -> name:string -> ?label:string -> int -> unit
(** Add to a counter (created at zero on first use).  [label] defaults
    to [""]. *)

val observe : t -> name:string -> ?label:string -> ?buckets:int array -> int -> unit
(** Record one histogram observation.  [buckets] (strictly increasing
    upper bounds; a value [v] lands in the first bucket with
    [v <= bound], else the implicit overflow bucket) applies only to the
    first observation of [name] and defaults to latencies, 1 us .. 1 s in
    coarse decades. *)

(** {1 Series handles}

    A handle is one series, looked up once: a hot path that updates the
    same series on every request resolves it on first use and then
    updates it without hashing its key.  Resolving a handle creates the
    series (at zero, or empty), so a snapshot lists it from then on. *)

type counter

type histogram

val counter : t -> name:string -> ?label:string -> unit -> counter
(** The counter [(name, label)], created at zero on first use. *)

val add : counter -> int -> unit

val histogram :
  t -> name:string -> ?label:string -> ?buckets:int array -> unit -> histogram
(** The histogram [(name, label)], created empty on first use; [buckets]
    as for {!observe}. *)

val record : histogram -> int -> unit
(** Record one observation: [observe] without the lookup. *)

(** {1 Stock bucket layouts} *)

val bytes_buckets : int array
(** Payload sizes: 0 .. 1 MiB. *)

val count_buckets : int array
(** Small counts (retransmits per send and the like): 0 .. 64. *)

val latency_buckets : int array
(** Request latencies: 1 us .. 1 s at roughly 1/1.8/3.2/5.6 per decade,
    so a {!quantile} bracket is at most a factor of ~1.8 wide. *)

(** {1 Snapshots} *)

type hist_view = {
  h_buckets : int array;
  h_counts : int array;  (** length [buckets + 1]; last is the overflow bucket *)
  h_sum : int;
  h_count : int;
  h_min : int;  (** meaningless when [h_count = 0] *)
  h_max : int;
}

type snapshot = {
  s_counters : ((string * string) * int) list;  (** sorted by (name, label) *)
  s_hists : ((string * string) * hist_view) list;
}

val snapshot : t -> snapshot

val counter_value : snapshot -> name:string -> label:string -> int
(** 0 when absent. *)

val find_hist : snapshot -> name:string -> label:string -> hist_view option

val hist_totals : snapshot -> name:string -> int * int
(** [(sum, count)] of one metric aggregated across all labels. *)

val labels_of : snapshot -> name:string -> string list
(** The labels under which histogram [name] was observed, sorted. *)

val quantile : hist_view -> float -> int * int
(** [quantile h q] brackets the nearest-rank [q]-quantile (the
    [ceil (q * count)]-th smallest observation): returns [(lo, hi)] such
    that the exact quantile [v] satisfies [lo < v <= hi].  [lo] is the
    previous bucket's upper bound ([h_min - 1] in the first bucket) and
    [hi] the containing bucket's bound ([h_max] in the overflow bucket);
    the bracket width is the histogram's quantization error bound.
    Raises [Invalid_argument] on an empty histogram or [q] outside
    [(0, 1]]. *)

val quantile_le : hist_view -> float -> int
(** The conservative (upper) end of {!quantile}'s bracket — what the
    reports print as p50/p95/p99. *)

(** {1 Rendering} *)

val to_json : snapshot -> Midway_util.Json.t
(** [{"counters": [...], "histograms": [...]}] — what
    [midway-run --metrics-out] writes. *)

val render_markdown : snapshot -> string
