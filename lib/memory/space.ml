module Pow2 = Midway_util.Pow2
module Grow = Midway_util.Grow

type addr = int

(* A processor's access cursor: the last-hit entry of its typed
   accesses.  The apps' inner loops walk arrays word by word, so nearly
   every access lands in the region (and copy) of the previous one.  The
   entry keeps that region's number, the processor's copy of it and the
   copy's length, so a hit is decided by comparing ints: the address is
   in region [c_idx] and [off + w <= c_len], where [off] is the
   address's offset in its region.  A hit has so proved that the access
   lies inside the copy, and the load or store after it is unchecked.

   [c_len] is always [Bytes.length c_backing]: the two are written
   together, by [miss] and by [reaching], the only place a copy is
   replaced.  Regions are never unmapped.  An access that runs past its
   region's end has [off + w > region_size >= c_len], so it misses, and
   the miss checks the range before it refills the entry. *)
type t = {
  nprocs : int;
  region_size : int;
  shift : int;  (* log2 region_size: an address's region is [addr lsr shift] *)
  mask : int;  (* region_size - 1: offset within a region is [addr land mask] *)
  mutable regions : Region.t array;  (* indexed by region number; None slots are Region 0 / holes *)
  mutable region_list : Region.t list;  (* creation order, reversed *)
  mutable next_index : int;
  (* The region each (kind, line_size) allocates from. *)
  bump : (Region.kind * int, Region.t) Hashtbl.t;
  mutable cache : cursor array;  (* by proc, filled right after construction *)
}

and cursor = {
  c_shift : int;  (* the space's [shift] and [mask] *)
  c_mask : int;
  mutable c_idx : int;
  mutable c_len : int;
  mutable c_backing : Bytes.t;
  c_space : t;
  c_proc : int;
}

exception Unmapped of addr

exception Crosses_region of { addr : addr; len : int; last : addr }

let create ?(region_size = 16 * 1024 * 1024) ~nprocs () =
  if not (Pow2.is_power_of_two region_size) then
    invalid_arg "Space.create: region_size must be a power of two";
  if nprocs <= 0 then invalid_arg "Space.create: nprocs must be positive";
  let t =
    {
      nprocs;
      region_size;
      shift = Pow2.log2 region_size;
      mask = region_size - 1;
      regions = Array.make 8 (Region.create ~index:0 ~kind:Private ~line_size:8 ~region_size:8 ~nprocs:1);
      region_list = [];
      next_index = 1;  (* region 0 stays unmapped so address 0 is null *)
      bump = Hashtbl.create 8;
      cache = [||];
    }
  in
  (* min_int sentinel: [index_of] is never min_int, not even for a
     negative address *)
  t.cache <-
    Array.init nprocs (fun proc ->
        {
          c_shift = t.shift;
          c_mask = t.mask;
          c_idx = min_int;
          c_len = 0;
          c_backing = Bytes.empty;
          c_space = t;
          c_proc = proc;
        });
  t

let cursor t ~proc = t.cache.(proc)

let nprocs t = t.nprocs

let region_size t = t.region_size

(* The sentinel placed in empty slots is the bogus region 0; [mapped]
   distinguishes it. *)
let[@inline] mapped t idx =
  idx > 0 && idx < t.next_index
  && idx < Array.length t.regions
  && (Array.unsafe_get t.regions idx).Region.index = idx

(* The number of the region an address falls in, mapped or not: region
   bases are [region_size]-aligned. *)
let[@inline] index_of t a = a lsr t.shift

(* Inlined: the trapped-store path looks the region up on every store. *)
let[@inline] region_of_addr t a =
  let idx = index_of t a in
  if mapped t idx then Array.unsafe_get t.regions idx else raise (Unmapped a)

let find_region t a =
  let idx = index_of t a in
  if a >= 0 && mapped t idx then Some t.regions.(idx) else None

let regions t = List.rev t.region_list

let new_region t ~kind ~line_size =
  let idx = t.next_index in
  t.next_index <- idx + 1;
  t.regions <- Grow.array t.regions idx ~fill:t.regions.(0);
  let r =
    Region.create ~index:idx ~kind ~line_size ~region_size:t.region_size ~nprocs:t.nprocs
  in
  t.regions.(idx) <- r;
  t.region_list <- r :: t.region_list;
  r

let align_up v a = (v + a - 1) land lnot (a - 1)

let alloc t ~kind ?(line_size = 64) bytes =
  if bytes <= 0 then invalid_arg "Space.alloc: size must be positive";
  if bytes > t.region_size then invalid_arg "Space.alloc: size exceeds region size";
  if not (Pow2.is_power_of_two line_size) then
    invalid_arg "Space.alloc: line_size must be a power of two";
  let align = max 8 line_size in
  let key = (kind, line_size) in
  let region =
    match Hashtbl.find_opt t.bump key with
    | Some r when align_up r.Region.used align + bytes <= t.region_size -> r
    | _ ->
        let r = new_region t ~kind ~line_size in
        Hashtbl.replace t.bump key r;
        r
  in
  let off = align_up region.Region.used align in
  region.Region.used <- off + bytes;
  Region.base region + off

let validate_range t a len =
  if len < 0 then invalid_arg "Space.validate_range: negative length";
  let r = region_of_addr t a in
  (if len > 0 && a + len - 1 >= Region.limit r then
     (* Distinguish a range that runs off the end of mapped memory from
        one that genuinely spans two mapped regions.  The latter would
        previously raise a misleading [Unmapped] even though every byte
        is mapped — and a caller that swallowed it (or a zero-copy
        consumer handed only the first region's backing) would silently
        operate on partial data.  Regions have distinct per-proc backing
        buffers, so no single slice can ever serve a crossing range. *)
     let last = a + len - 1 in
     if mapped t (index_of t last) then raise (Crosses_region { addr = a; len; last })
     else raise (Unmapped last));
  r

(* The processor's copy of [r], grown (zero-filled, contents kept) if it
   ends before in-region offset [limit] and the region does not.  Every
   growth happens here, because it replaces the copy the processor's
   cursor may hold; the cursor's length changes with it. *)
let reaching t (r : Region.t) ~proc limit =
  let b = Region.backing_for r ~proc in
  let have = Bytes.length b in
  if limit <= have || have = t.region_size then b
  else begin
    let grown = Bytes.extend b 0 (Region.extent r ~have limit - have) in
    Bytes.fill grown have (Bytes.length grown - have) '\000';
    r.Region.backing.(proc) <- Some grown;
    let e = t.cache.(proc) in
    if e.c_idx = r.Region.index then begin
      e.c_backing <- grown;
      e.c_len <- Bytes.length grown
    end;
    grown
  end

(* Check the [w] bytes at [a], then point the cursor at their region and
   at a copy that holds them, which it returns.  The check raises for an
   access that leaves mapped memory or its region, so the cursor never
   holds an unmapped region. *)
let miss e a w =
  let t = e.c_space in
  let r = validate_range t a w in
  let b = reaching t r ~proc:e.c_proc ((a land t.mask) + w) in
  e.c_idx <- r.Region.index;
  e.c_backing <- b;
  e.c_len <- Bytes.length b;
  b

(* The copy holding the [w] bytes at [a], at offset [a land c_mask]: the
   hit test is two compares of ints, with no tuple and no header read. *)
let[@inline] copy e a w =
  if e.c_idx = a lsr e.c_shift && (a land e.c_mask) + w <= e.c_len then e.c_backing
  else miss e a w

(* Unchecked loads and stores in native byte order; the [_le] forms give
   the copy's little-endian layout on any host. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external swap64 : int64 -> int64 = "%bswap_int64"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get64_le b off = if Sys.big_endian then swap64 (get64u b off) else get64u b off

let[@inline] set64_le b off v = set64u b off (if Sys.big_endian then swap64 v else v)

let[@inline] get32_le b off = if Sys.big_endian then swap32 (get32u b off) else get32u b off

let[@inline] set32_le b off v = set32u b off (if Sys.big_endian then swap32 v else v)

(* A copy seen as a float array, for floats without a C call
   ([Int64.float_of_bits] and [bits_of_float] are C functions).  Both
   blocks hold no pointers, element [i] is the 8 bytes at offset [8i],
   and on a little-endian host a float's bytes in memory are those of
   its bits in little-endian order.  The view never leaves this module. *)
external floats : Bytes.t -> floatarray = "%identity"
external float_get : floatarray -> int -> float = "%floatarray_unsafe_get"
external float_set : floatarray -> int -> float -> unit = "%floatarray_unsafe_set"

(* Every typed access is inlined, and so are Runtime's: the word is
   converted in the same expression that loads or stores it, so an int32,
   int64 or float a caller's loop reads or stores stays unboxed.  A load
   or store is unchecked: the hit test, or the miss that checked the
   range, has shown that it lies inside the copy.  So an access that
   crosses its region's end raises [Crosses_region], and one that runs
   off mapped memory [Unmapped].  A float at an 8-aligned offset, where
   every app keeps its floats, is an element of the float-array view; at
   any other offset it is converted by [Int64.float_of_bits], a C call
   that allocates nothing. *)
let[@inline] load_u8 e a = Char.code (Bytes.unsafe_get (copy e a 1) (a land e.c_mask))

let[@inline] store_u8 e a v =
  Bytes.unsafe_set (copy e a 1) (a land e.c_mask) (Char.unsafe_chr (v land 0xff))

let[@inline] load_i32 e a = get32_le (copy e a 4) (a land e.c_mask)

let[@inline] store_i32 e a v = set32_le (copy e a 4) (a land e.c_mask) v

let[@inline] load_i64 e a = get64_le (copy e a 8) (a land e.c_mask)

let[@inline] store_i64 e a v = set64_le (copy e a 8) (a land e.c_mask) v

let[@inline] load_int e a = Int64.to_int (load_i64 e a)

let[@inline] store_int e a v = store_i64 e a (Int64.of_int v)

let[@inline] load_f64 e a =
  let b = copy e a 8 and off = a land e.c_mask in
  if Sys.big_endian || off land 7 <> 0 then Int64.float_of_bits (get64_le b off)
  else float_get (floats b) (off lsr 3)

let[@inline] store_f64 e a v =
  let b = copy e a 8 and off = a land e.c_mask in
  if Sys.big_endian || off land 7 <> 0 then set64_le b off (Int64.bits_of_float v)
  else float_set (floats b) (off lsr 3) v

(* The same code on the processor's cursor, for callers that hold a
   space and a processor number. *)
let[@inline] get_u8 t ~proc a = load_u8 t.cache.(proc) a

let[@inline] set_u8 t ~proc a v = store_u8 t.cache.(proc) a v

let[@inline] get_i32 t ~proc a = load_i32 t.cache.(proc) a

let[@inline] set_i32 t ~proc a v = store_i32 t.cache.(proc) a v

let[@inline] get_i64 t ~proc a = load_i64 t.cache.(proc) a

let[@inline] set_i64 t ~proc a v = store_i64 t.cache.(proc) a v

let[@inline] get_f64 t ~proc a = load_f64 t.cache.(proc) a

let[@inline] set_f64 t ~proc a v = store_f64 t.cache.(proc) a v

let[@inline] get_int t ~proc a = load_int t.cache.(proc) a

let[@inline] set_int t ~proc a v = store_int t.cache.(proc) a v

let read_bytes t ~proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  Bytes.sub (reaching t r ~proc (off + len)) off len

let write_sub t ~proc a buf ~off:src_off ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  Bytes.blit buf src_off (reaching t r ~proc (off + len)) off len

let write_bytes t ~proc a buf = write_sub t ~proc a buf ~off:0 ~len:(Bytes.length buf)

let copy_range t ~src_proc ~dst_proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  let src = reaching t r ~proc:src_proc (off + len) in
  let dst = reaching t r ~proc:dst_proc (off + len) in
  Bytes.blit src off dst off len

let backing_slice t ~proc a ~len =
  let r = validate_range t a len in
  reaching t r ~proc (a - Region.base r + len)

let ranges_equal t ~proc_a ~proc_b a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  let ba = reaching t r ~proc:proc_a (off + len) in
  let bb = reaching t r ~proc:proc_b (off + len) in
  (* word-wise comparison with a byte-wise tail *)
  let words = len / 8 in
  let rec words_eq i =
    i >= words
    || (Bytes.get_int64_le ba (off + (i * 8)) = Bytes.get_int64_le bb (off + (i * 8))
       && words_eq (i + 1))
  in
  let rec tail_eq i =
    i >= len || (Bytes.get ba (off + i) = Bytes.get bb (off + i) && tail_eq (i + 1))
  in
  words_eq 0 && tail_eq (words * 8)
