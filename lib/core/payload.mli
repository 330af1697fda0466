(** Update payloads carried by synchronization reply messages.

    A payload is the data a releaser ships to make the requester's cache
    consistent.  RT-DSM ships timestamped cache lines; VM-DSM ships either
    the diffs of the missed incarnations or, when the concatenated diffs
    would exceed the bound data (or history has been discarded), the full
    bound data; the blast backend always ships the full bound data. *)

type rt_line = { addr : int; len : int; ts : Timestamp.t; data : Bytes.t; descs : int }
(** A run of [descs] contiguous equally-sized cache lines sharing one
    timestamp.  [descs] is the number of line descriptors the run stands
    for on the wire; per-line values (history, install costs) divide [len]
    by [descs]. *)

type vm_piece = { addr : int; data : Bytes.t }

type t =
  | Rt_lines of rt_line list
  | Vm_updates of vm_piece list list
      (** one piece list per missed incarnation, oldest first: the
          application order *)
  | Vm_full of vm_piece list  (** one piece per bound range *)
  | Blast_data of vm_piece list
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

val read_pieces : Midway_memory.Space.t -> proc:int -> Range.t list -> vm_piece list
(** Snapshot the given ranges out of a processor's memory as pieces. *)

val write_pieces : Midway_memory.Space.t -> proc:int -> vm_piece list -> unit
(** Apply pieces to a processor's memory. *)

val page_runs : t -> page_size:int -> int * int
(** [(pages, runs)]: the distinct pages and the contiguous runs the
    payload's data covers — its shape as the adaptive policy sees it.
    Pieces must arrive in ascending address order, as both the gather
    buffer and the diff engine produce them. *)
