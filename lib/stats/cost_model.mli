(** The primitive-operation cost model (the paper's Table 1).

    The evaluation methodology of the paper is explicit: measure the cost
    of each primitive operation once (Table 1), count invocations per
    application (Table 2), and multiply (Tables 3-5).  This module holds
    those measured costs as integer nanoseconds on the simulated machine
    (a 25 MHz MIPS R3000: one cycle = 40 ns), and exposes the knobs the
    paper sweeps (the page-fault service time in Figures 3 and 4).

    All costs are per-invocation unless stated otherwise. *)

type t = {
  cycle_ns : int;  (** processor cycle time; 40 ns at 25 MHz *)
  (* RT-DSM trapping *)
  dirtybit_set_ns : int;  (** set a dirtybit after a shared word/doubleword write (9 cycles) *)
  dirtybit_set_private_ns : int;  (** misclassified write to private memory (6 cycles) *)
  (* RT-DSM collection *)
  dirtybit_read_clean_ns : int;  (** scan a dirtybit that is clean/stamped (5 cycles) *)
  dirtybit_read_dirty_ns : int;  (** scan a dirtybit that is locally dirty (4 cycles) *)
  dirtybit_update_ns : int;  (** install an incoming timestamp at the requester (2 cycles) *)
  (* VM-DSM trapping *)
  page_fault_ns : int;  (** service a write fault: fault + twin copy + protection (1,200 us under Mach; 122 us with fast exceptions) *)
  (* VM-DSM collection *)
  page_diff_uniform_ns : int;  (** diff a page when none or all of the data changed (260 us) *)
  page_diff_alternating_ns : int;  (** diff a page when every other word changed (1,870 us) *)
  page_protect_rw_ns : int;  (** protection call to allow read-write (125 us) *)
  page_protect_ro_ns : int;  (** protection call to allow read-only (127 us) *)
  copy_kb_cold_ns : int;  (** memory block copy per KB, cold cache (84 us) *)
  copy_kb_warm_ns : int;  (** memory block copy per KB, warm cache (26 us) *)
  page_size : int;  (** VM page size in bytes (4 KB) *)
}

val default : t
(** The paper's measured values (Table 1) on DECstation 5000/200 + Mach 3.0. *)

(** {1 Synchronization costs the paper does not measure}

    The simulator's own assumptions, the same for every run and outside
    {!t} because no sweep varies them. *)

val local_lock_ns : int
(** 2 us: acquiring a lock this processor already owns (no messages). *)

val release_ns : int
(** 1 us: local bookkeeping at a release or a rebind. *)

val apply_line_ns : int
(** 100 ns: the fixed cost of applying one incoming line or run, on top
    of installing its timestamp; also the per-descriptor cost of a
    barrier's merge. *)

val with_page_fault_us : t -> float -> t
(** [with_page_fault_us t us] replaces the fault service time; used for the
    fast-exception sweep in Figures 3 and 4 (122 us .. 1,200 us). *)

val fast_exception_page_fault_us : float
(** 122 us: Thekkath & Levy's fast exception path plus the mandatory 4 KB
    twin copy. *)

val mach_page_fault_us : float
(** 1,200 us: Mach's external-pager path. *)

val diff_cost_ns : t -> words:int -> transitions:int -> int
(** Cost of diffing a page region of [words] 32-bit words whose
    modified/unmodified pattern switches [transitions] times.  Interpolates
    between the two measured points: a uniform page (0 transitions) costs
    [page_diff_uniform_ns] and a fully alternating page ([words]
    transitions) costs [page_diff_alternating_ns], both scaled by the
    fraction of a full 4 KB page being diffed. *)

val copy_cost_ns : t -> bytes:int -> warm:bool -> int
(** Cost of a block copy of [bytes] bytes. *)
