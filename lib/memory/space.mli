(** The simulated shared virtual address space.

    A [Space.t] describes the address-space layout shared by every
    simulated processor: which regions exist, their kind and cache-line
    size, and where allocations live.  The *contents* of memory are
    per-processor (see {!Region.backing_for}); a value written by
    processor 0 is not visible to processor 1 until the DSM protocol
    ships it.

    A processor's copy of a region covers only the bytes in use: it is
    created at the first access over the region's allocated bytes and
    grows (geometrically, zero-filled, keeping its contents) whenever an
    access reaches past its end — a typed access, {!read_bytes},
    {!write_bytes}, {!write_sub}, {!copy_range}, {!ranges_equal} or
    {!backing_slice}.
    Every mapped address is readable (as zero until written) and
    writable; the growth is invisible except through
    {!backing_slice}.

    Addresses are plain [int] byte addresses.  Region 0 is never mapped,
    so address 0 is always invalid — a convenient null. *)

type t

type addr = int

val create : ?region_size:int -> nprocs:int -> unit -> t
(** [region_size] must be a power of two (default 16 MiB — large enough
    that every benchmark allocation fits in one region).  It fixes the
    address layout only: what a processor's copy of a region costs
    depends on the bytes in use, not on [region_size]. *)

val nprocs : t -> int

val region_size : t -> int

exception Unmapped of addr
(** Raised on access to an address outside every allocated region. *)

exception Crosses_region of { addr : addr; len : int; last : addr }
(** Raised by {!validate_range} (and so by every range accessor,
    {!backing_slice} included) when [addr .. last] starts and ends in
    *mapped* memory but spans two regions.  Regions have distinct
    per-processor backing buffers, so no single zero-copy slice can
    serve such a range — failing loudly here is what keeps the VM diff
    engine from silently mis-diffing a page straddling a boundary
    (e.g. after a migration-style rebinding). *)

val alloc : t -> kind:Region.kind -> ?line_size:int -> int -> addr
(** [alloc t ~kind ~line_size bytes] reserves [bytes] bytes in a region of
    the given kind and cache-line size (default 64), aligned to
    [max 8 line_size], opening a new region when the current one is
    full.  Allocations never span regions.  Returns the base
    address.  Raises [Invalid_argument] if [bytes] exceeds the region
    size or is non-positive. *)

val index_of : t -> addr -> int
(** The number of the region [addr] falls in, mapped or not: regions are
    aligned to the region size, so this is a shift. *)

val region_of_addr : t -> addr -> Region.t
(** Region containing [addr]; raises {!Unmapped}. *)

val find_region : t -> addr -> Region.t option

val regions : t -> Region.t list
(** All regions, in creation order. *)

val validate_range : t -> addr -> int -> Region.t
(** [validate_range t addr len] checks that [addr .. addr+len-1] lies in a
    single mapped region and returns it.  Raises {!Unmapped} when the
    range runs off mapped memory, {!Crosses_region} when it spans two
    mapped regions, or [Invalid_argument] on a negative length. *)

(** {1 Typed access to a processor's copy}

    These operate on the given processor's physical copy and perform no
    write detection; the DSM front end (Runtime) layers trapping on top.
    Words are little-endian.  An access whose bytes leave mapped memory
    raises {!Unmapped} (naming its first byte when that is unmapped, its
    last byte otherwise), and one that starts and ends in mapped memory
    but crosses a region's end raises {!Crosses_region}, as
    {!validate_range} does.

    A processor's accesses go through its {!cursor}, which keeps the
    region and copy of the last access.  An access to that region that
    ends inside the copy is a hit: a few loads and one compare prove its
    bounds, and the load or store itself is unchecked.  Anything else
    validates the range, grows the copy if needed and refills the
    cursor. *)

type cursor
(** A processor's access cursor. *)

val cursor : t -> proc:int -> cursor
(** The processor's cursor; there is one per processor, for the space's
    lifetime. *)

val load_u8 : cursor -> addr -> int
val store_u8 : cursor -> addr -> int -> unit
val load_i32 : cursor -> addr -> int32
val store_i32 : cursor -> addr -> int32 -> unit
val load_f64 : cursor -> addr -> float
val store_f64 : cursor -> addr -> float -> unit
val load_int : cursor -> addr -> int
(** 63-bit int stored as int64. *)

val store_int : cursor -> addr -> int -> unit

(** The same accesses through [cursor t ~proc]. *)

val get_u8 : t -> proc:int -> addr -> int
val set_u8 : t -> proc:int -> addr -> int -> unit
val get_i32 : t -> proc:int -> addr -> int32
val set_i32 : t -> proc:int -> addr -> int32 -> unit
val get_i64 : t -> proc:int -> addr -> int64
val set_i64 : t -> proc:int -> addr -> int64 -> unit
val get_f64 : t -> proc:int -> addr -> float
val set_f64 : t -> proc:int -> addr -> float -> unit
val get_int : t -> proc:int -> addr -> int
val set_int : t -> proc:int -> addr -> int -> unit

val read_bytes : t -> proc:int -> addr -> len:int -> Bytes.t
(** Copy [len] bytes out of the processor's memory. *)

val backing_slice : t -> proc:int -> addr -> len:int -> Bytes.t
(** [backing_slice t ~proc addr ~len] validates [addr .. addr+len-1] and
    returns the processor's *live* backing buffer (grown first if the
    range reaches past its end) — a zero-copy view for read-only
    consumers (e.g. the VM diff engine).  Regions are aligned to their
    size, so [addr] sits at offset [addr land (region_size t - 1)] in
    it.  The caller must not mutate the buffer, and must be
    done with it before its next access to the space: any later access
    by this processor to the same region may grow the copy, which
    replaces the buffer, so an old view neither sees later writes nor
    stays the processor's memory. *)

val write_bytes : t -> proc:int -> addr -> Bytes.t -> unit
(** Copy a buffer into the processor's memory. *)

val write_sub : t -> proc:int -> addr -> Bytes.t -> off:int -> len:int -> unit
(** [write_sub t ~proc addr buf ~off ~len] copies [len] bytes of [buf]
    from [off] into the processor's memory at [addr]. *)

val copy_range : t -> src_proc:int -> dst_proc:int -> addr -> len:int -> unit
(** Copy the range between two processors' physical copies (used by the
    consistency protocol to apply updates). *)

val ranges_equal : t -> proc_a:int -> proc_b:int -> addr -> len:int -> bool
(** Compare a range across two processors' copies (used by tests).
    Compares eight bytes at a time with a byte-wise tail; equivalent to
    a byte-by-byte comparison. *)
