(** Simulated per-processor page table for VM-DSM write trapping.

    Real VM-DSM maps all shared pages read-only and uses the first store
    to each page (a write fault) to create a *twin* copy and mark the page
    dirty (paper, section 3.3).  Here the page table is a map from page
    number to protection/dirty/twin state; the VM backend consults it on
    every instrumented store, taking a simulated fault when the page is
    write-protected.

    Page state is created lazily: an untouched page is read-only and
    clean, exactly as after Midway's initial mapping.  Pages are indexed
    by number in arrays grown to the pages touched ({!Page_index}), one
    record per page for the table's lifetime. *)

type prot = Read_only | Read_write

type page = {
  number : int;  (** page number; base address = number x page size *)
  mutable prot : prot;
  mutable dirty : bool;
  mutable twin : Bytes.t option;  (** copy made at fault time; present iff dirty *)
}

type t

val create : page_size:int -> t
(** [page_size] must be a positive power of two. *)

val page_size : t -> int

val page_shift : t -> int
(** log2 of the page size: an address's page number is
    [addr lsr page_shift t]. *)

val page_of_addr : t -> int -> page
(** State of the page containing the address, created on demand. *)

val peek : t -> int -> page
(** State of the page containing the address if {!page_of_addr} ever
    created it; otherwise a clean, read-only stand-in without a twin,
    shared by every table, which the caller must not change.  Creates
    nothing, so looking up pages a store never touched (a binding's
    range past every region, say) grows no index. *)

val page_base : t -> page -> int

val pages_in_range : t -> addr:int -> len:int -> page list
(** Pages overlapping [addr, addr+len), in ascending order ([len = 0]
    gives the empty list). *)

val dirty_pages : t -> page list
(** All pages currently marked dirty, in ascending page order. *)

val fault_on_write : t -> addr:int -> contents:Bytes.t -> page option
(** Called by the backend before a store to [addr].  If the page is
    write-protected, simulate the fault: twin the supplied page
    [contents] (must be page-sized), mark the page dirty and writable,
    and return [Some page] so the caller can charge the fault cost.
    Returns [None] when the page was already writable. *)

val fault : t -> page -> twin:Bytes.t -> unit
(** Fault a write-protected [page] in with [twin] as its twin: mark it
    dirty and writable.  The table keeps [twin] itself, so the caller
    hands over a fresh page-sized copy of the page's contents and never
    writes it again. *)

val clean : t -> page -> unit
(** After collection: drop the twin, mark clean, write-protect (the
    caller charges the protection-call cost). *)
