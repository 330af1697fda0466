module Pow2 = Midway_util.Pow2

type addr = int

(* Last-hit accessor cache, one per processor: the apps' inner loops walk
   arrays word by word, so nearly every access lands in the region (and
   backing buffer) of the previous one.  Caching the pair skips the
   region lookup and the per-proc backing resolution on repeat hits.
   Regions are never unmapped, and a processor's copy is only replaced
   by [reaching] below, which refreshes the processor's entry; a hit
   also checks that the access ends inside the cached buffer, so one
   past the end of a short copy misses and grows it. *)
type cache_entry = { mutable c_idx : int; mutable c_backing : Bytes.t }

type t = {
  nprocs : int;
  region_size : int;
  shift : int;  (* log2 region_size: an address's region is [addr lsr shift] *)
  mask : int;  (* region_size - 1: offset within a region is [addr land mask] *)
  mutable regions : Region.t array;  (* indexed by region number; None slots are Region 0 / holes *)
  mutable region_list : Region.t list;  (* creation order, reversed *)
  mutable next_index : int;
  (* Bump-allocation cursors, keyed by (kind, line_size). *)
  cursors : (Region.kind * int, Region.t) Hashtbl.t;
  cache : cache_entry array;  (* by proc *)
}

exception Unmapped of addr

exception Crosses_region of { addr : addr; len : int; last : addr }

let create ?(region_size = 16 * 1024 * 1024) ~nprocs () =
  if not (Pow2.is_power_of_two region_size) then
    invalid_arg "Space.create: region_size must be a power of two";
  if nprocs <= 0 then invalid_arg "Space.create: nprocs must be positive";
  {
    nprocs;
    region_size;
    shift = Pow2.log2 region_size;
    mask = region_size - 1;
    regions = Array.make 8 (Region.create ~index:0 ~kind:Private ~line_size:8 ~region_size:8 ~nprocs:1);
    region_list = [];
    next_index = 1;  (* region 0 stays unmapped so address 0 is null *)
    cursors = Hashtbl.create 8;
    (* min_int sentinel: [index_of] is never min_int, not even for a
       negative address *)
    cache = Array.init nprocs (fun _ -> { c_idx = min_int; c_backing = Bytes.empty });
  }

let nprocs t = t.nprocs

let region_size t = t.region_size

(* The sentinel placed in empty slots is the bogus region 0; [mapped]
   distinguishes it. *)
let mapped t idx =
  idx > 0 && idx < t.next_index
  && idx < Array.length t.regions
  && (Array.unsafe_get t.regions idx).Region.index = idx

(* The number of the region an address falls in, mapped or not: region
   bases are [region_size]-aligned. *)
let[@inline] index_of t a = a lsr t.shift

let region_of_addr t a =
  let idx = index_of t a in
  if mapped t idx then Array.unsafe_get t.regions idx else raise (Unmapped a)

let find_region t a =
  let idx = index_of t a in
  if a >= 0 && mapped t idx then Some t.regions.(idx) else None

let regions t = List.rev t.region_list

let grow_region_table t idx =
  let cap = Array.length t.regions in
  if idx >= cap then begin
    let fresh = Array.make (max (idx + 1) (cap * 2)) t.regions.(0) in
    Array.blit t.regions 0 fresh 0 cap;
    t.regions <- fresh
  end

let new_region t ~kind ~line_size =
  let idx = t.next_index in
  t.next_index <- idx + 1;
  grow_region_table t idx;
  let r =
    Region.create ~index:idx ~kind ~line_size ~region_size:t.region_size ~nprocs:t.nprocs
  in
  t.regions.(idx) <- r;
  t.region_list <- r :: t.region_list;
  r

let align_up v a = (v + a - 1) land lnot (a - 1)

let alloc t ~kind ?(line_size = 64) ?align bytes =
  if bytes <= 0 then invalid_arg "Space.alloc: size must be positive";
  if bytes > t.region_size then invalid_arg "Space.alloc: size exceeds region size";
  if not (Pow2.is_power_of_two line_size) then
    invalid_arg "Space.alloc: line_size must be a power of two";
  let align = match align with Some a -> a | None -> max 8 line_size in
  if not (Pow2.is_power_of_two align) then invalid_arg "Space.alloc: align must be a power of two";
  let key = (kind, line_size) in
  let region =
    match Hashtbl.find_opt t.cursors key with
    | Some r when align_up r.Region.used align + bytes <= t.region_size -> r
    | _ ->
        let r = new_region t ~kind ~line_size in
        Hashtbl.replace t.cursors key r;
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
   growth happens here, because it replaces the buffer the processor's
   cache entry may hold. *)
let reaching t (r : Region.t) ~proc limit =
  let b = Region.backing_for r ~proc in
  let have = Bytes.length b in
  if limit <= have || have = t.region_size then b
  else begin
    let grown = Bytes.extend b 0 (Region.extent r ~have limit - have) in
    Bytes.fill grown have (Bytes.length grown - have) '\000';
    r.Region.backing.(proc) <- Some grown;
    let e = t.cache.(proc) in
    if e.c_idx = r.Region.index then e.c_backing <- grown;
    grown
  end

(* Resolve the region, fill the cache and return a backing that holds
   the [w] bytes at [a].  Only ever called with a mapped address
   (region_of_addr raises otherwise), so the cache never holds an
   unmapped index. *)
let cache_miss t e ~proc a w =
  let r = region_of_addr t a in
  let b = reaching t r ~proc ((a land t.mask) + w) in
  e.c_idx <- r.Region.index;
  e.c_backing <- b;
  b

(* The accessor hot path: no tuple allocation; the in-region offset is
   [a land t.mask] because region bases are region_size-aligned. *)
let[@inline] backing t ~proc a w =
  let e = Array.unsafe_get t.cache proc in
  let b = e.c_backing in
  if e.c_idx = index_of t a && (a land t.mask) + w <= Bytes.length b then b
  else cache_miss t e ~proc a w

let get_u8 t ~proc a = Char.code (Bytes.get (backing t ~proc a 1) (a land t.mask))

let set_u8 t ~proc a v =
  Bytes.set (backing t ~proc a 1) (a land t.mask) (Char.chr (v land 0xff))

let get_i32 t ~proc a = Bytes.get_int32_le (backing t ~proc a 4) (a land t.mask)

let set_i32 t ~proc a v = Bytes.set_int32_le (backing t ~proc a 4) (a land t.mask) v

let get_i64 t ~proc a = Bytes.get_int64_le (backing t ~proc a 8) (a land t.mask)

let set_i64 t ~proc a v = Bytes.set_int64_le (backing t ~proc a 8) (a land t.mask) v

(* The word is converted in the same expression that loads or stores it,
   so the int64 stays unboxed.  [get_f64] and [set_f64] are inlined, and
   so are Runtime's float accessors, so the float a caller's loop reads
   or stores stays unboxed too. *)
let[@inline] get_f64 t ~proc a =
  Int64.float_of_bits (Bytes.get_int64_le (backing t ~proc a 8) (a land t.mask))

let[@inline] set_f64 t ~proc a v =
  Bytes.set_int64_le (backing t ~proc a 8) (a land t.mask) (Int64.bits_of_float v)

let get_int t ~proc a = Int64.to_int (Bytes.get_int64_le (backing t ~proc a 8) (a land t.mask))

let set_int t ~proc a v =
  Bytes.set_int64_le (backing t ~proc a 8) (a land t.mask) (Int64.of_int v)

let read_bytes t ~proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  Bytes.sub (reaching t r ~proc (off + len)) off len

let write_bytes t ~proc a buf =
  let len = Bytes.length buf in
  let r = validate_range t a len in
  let off = a - Region.base r in
  Bytes.blit buf 0 (reaching t r ~proc (off + len)) off len

let copy_range t ~src_proc ~dst_proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  let src = reaching t r ~proc:src_proc (off + len) in
  let dst = reaching t r ~proc:dst_proc (off + len) in
  Bytes.blit src off dst off len

let backing_slice t ~proc a ~len =
  let r = validate_range t a len in
  let off = a - Region.base r in
  (reaching t r ~proc (off + len), off)

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
