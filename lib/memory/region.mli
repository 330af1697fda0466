(** Memory regions.

    Midway partitions the application's address space into large,
    fixed-size regions (paper, section 3.1 and Appendix A).  All data in a
    region is either shared between all processors or private to each
    processor, and all cache lines within a region have the same size
    (different regions may differ).  The base page of every region holds
    the dirtybit-update code template; here the template is represented by
    the region's {!kind}, which the RT backend dispatches on exactly as
    the generated code would jump through the template.

    Each simulated processor has its own physical copy of every region it
    touches — that is what makes the simulation a real DSM: data written
    on one processor becomes visible on another only when the consistency
    protocol ships it.

    The region size is address-space layout only.  A copy covers the
    bytes in use, not the whole region: it is created at first touch
    over the region's [used] bytes and grown by {!Space} when an access
    reaches past its end ({!extent} gives both sizes).  Bytes a copy
    does not cover read as zero. *)

type kind =
  | Shared  (** one logical copy, replicated per processor, kept consistent by the DSM *)
  | Private  (** per-processor data that happens to live in the shared layout; its template is the null template *)

type t = {
  index : int;  (** region number; base address = index * region size *)
  kind : kind;
  line_size : int;  (** software cache-line size in bytes (power of two) *)
  line_shift : int;  (** log2 [line_size]: an in-region offset's line is [off lsr line_shift] *)
  region_size : int;  (** bytes covered by the region *)
  nprocs : int;
  mutable used : int;  (** bump-allocation high-water mark *)
  backing : Bytes.t option array;
      (** per-processor physical copy of the region's first bytes,
          allocated on first touch; a growth ({!Space}) replaces it with a
          longer one holding the same contents *)
}

val create : index:int -> kind:kind -> line_size:int -> region_size:int -> nprocs:int -> t
(** Raises [Invalid_argument] unless [line_size] is a positive power of two
    no larger than [region_size]. *)

val base : t -> int
(** First address of the region. *)

val limit : t -> int
(** One past the last address of the region. *)

val lines : t -> int
(** Number of cache lines in the region. *)

val line_of_offset : t -> int -> int
(** Cache-line index containing the given byte offset. *)

val granule : int
(** Per-processor copies and dirtybit tables are sized in multiples of
    this many bytes (4 KiB), up to the region size. *)

val extent : t -> have:int -> int -> int
(** [extent t ~have need] is the byte length a per-processor structure
    over [t] that now covers [have] bytes should get so that it covers
    [need] bytes: at least the region's [used] bytes when it is created
    ([have = 0]), at least twice [have] when it grows, rounded up to a
    whole {!granule} and capped at [region_size]. *)

val backing_for : t -> proc:int -> Bytes.t
(** The processor's physical copy, allocating it (zero-filled, [extent t
    ~have:0 0] bytes) on first use.  It may be shorter than the region:
    accesses go through {!Space}, which grows it on demand. *)

val touched : t -> proc:int -> bool
(** Whether the processor's copy has been materialized, at any size. *)
