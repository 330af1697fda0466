(** Update payloads carried by synchronization reply messages.

    A payload is the data a releaser ships to make the requester's cache
    consistent.  RT-DSM ships timestamped runs of cache lines; VM-DSM
    ships either the diffs of the missed incarnations or, when the
    concatenated diffs would exceed the bound data (or history has been
    discarded), the full bound data; the blast backend always ships the
    full bound data. *)

type rt_source =
  | Copy of int
      (** The releaser's copy of memory: a lock transfer collects, sends
          and applies in one host step, with no fiber running in
          between, so the runs' bytes are still there, unchanged, when
          the requester copies them.  The runs are the releaser's
          accumulator, which its next collection refills. *)
  | Snapshot of Bytes.t
      (** The runs' bytes back to back, in run order: a barrier arrival
          waits in the manager's mailbox while its processor, blocked,
          may still serve lock requests, so it owns its runs and their
          bytes. *)

type rt_runs = { runs : Gather.t; source : rt_source }
(** The one RT form: timestamped runs of lines ({!Gather}) and where
    their bytes are. *)

type vm_piece = { addr : int; data : Bytes.t }

type t =
  | Rt_runs of rt_runs list
      (** one part per collection: a lock transfer's one, or a barrier
          release's arrivals' parts, in processor order *)
  | Vm_updates of vm_piece list list
      (** one piece list per missed incarnation, oldest first: the
          application order *)
  | Vm_full of vm_piece list
      (** one piece per bound range: VM's full transfer, and every
          transfer of the blast backend *)
  | Empty

val app_bytes : t -> int
(** Application data bytes in the payload (what "data transferred"
    measures). *)

val descriptors : t -> int
(** Number of line/run descriptors, for wire-overhead accounting. *)

val descriptor_bytes : int
(** 8: the wire overhead of one descriptor in an update message.  It
    adds transfer time but no payload bytes. *)

val pieces_bytes : vm_piece list -> int

val snapshot : Midway_memory.Space.t -> proc:int -> Gather.t -> rt_runs
(** The runs, copied, with their bytes read out of the processor's memory
    into one buffer: a barrier arrival's part. *)

val install :
  Midway_memory.Space.t -> proc:int -> rt_runs -> addr:int -> off:int -> len:int -> unit
(** Copy [len] bytes of the part's runs at [addr] into the processor's
    memory from where they are: [off] is their position in the part's
    bytes (its runs back to back, in order), which a snapshot reads at
    and the releaser's copy ignores. *)

val read_pieces : Midway_memory.Space.t -> proc:int -> Range.t list -> vm_piece list
(** Snapshot the given ranges out of a processor's memory as pieces. *)

val write_pieces : Midway_memory.Space.t -> proc:int -> vm_piece list -> unit
(** Apply pieces to a processor's memory. *)

val page_runs : t -> page_size:int -> int * int
(** [(pages, runs)]: the distinct pages and the contiguous runs the
    payload's data covers — its shape as the adaptive policy sees it.
    Pieces must arrive in ascending address order, as both the run
    accumulator and the diff engine produce them. *)
