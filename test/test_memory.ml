(* Tests for the simulated shared address space: regions, the allocator,
   typed access and per-processor isolation. *)

module Region = Midway_memory.Region
module Space = Midway_memory.Space

let qtest = QCheck_alcotest.to_alcotest

(* --- Region ------------------------------------------------------------ *)

let test_region_create_validation () =
  Alcotest.check_raises "line size power of two"
    (Invalid_argument "Region.create: line_size must be a positive power of two") (fun () ->
      ignore (Region.create ~index:1 ~kind:Region.Shared ~line_size:48 ~region_size:4096 ~nprocs:2));
  Alcotest.check_raises "line fits region"
    (Invalid_argument "Region.create: line_size exceeds region_size") (fun () ->
      ignore (Region.create ~index:1 ~kind:Region.Shared ~line_size:8192 ~region_size:4096 ~nprocs:2))

let test_region_geometry () =
  let r = Region.create ~index:3 ~kind:Region.Shared ~line_size:64 ~region_size:4096 ~nprocs:2 in
  Alcotest.(check int) "base" (3 * 4096) (Region.base r);
  Alcotest.(check int) "limit" (4 * 4096) (Region.limit r);
  Alcotest.(check int) "lines" 64 (Region.lines r);
  Alcotest.(check int) "line of offset" 1 (Region.line_of_offset r 65)

let test_region_lazy_backing () =
  let r = Region.create ~index:1 ~kind:Region.Shared ~line_size:8 ~region_size:1024 ~nprocs:3 in
  Alcotest.(check bool) "untouched" false (Region.touched r ~proc:0);
  let b = Region.backing_for r ~proc:0 in
  Alcotest.(check int) "zero filled, right size" 1024 (Bytes.length b);
  Alcotest.(check bool) "now touched" true (Region.touched r ~proc:0);
  Alcotest.(check bool) "other processors untouched" false (Region.touched r ~proc:1);
  Bytes.set b 0 'x';
  Alcotest.(check char) "same buffer returned" 'x' (Bytes.get (Region.backing_for r ~proc:0) 0)

(* A copy covers the bytes in use, in whole granules, and grows
   geometrically (keeping its contents, zero-filling the rest) when an
   access reaches past its end; every mapped byte stays addressable. *)
let test_sized_copies () =
  let s = Space.create ~region_size:(1 lsl 20) ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:64 10_000 in
  let r = Space.region_of_addr s a in
  let length proc = Option.fold ~none:0 ~some:Bytes.length r.Region.backing.(proc) in
  Space.set_int s ~proc:0 a 42;
  Alcotest.(check int) "first touch covers used, in granules" (3 * Region.granule) (length 0);
  Alcotest.(check int) "other processor not provisioned" 0 (length 1);
  Space.set_int s ~proc:0 (a + 20_000) 7;
  Alcotest.(check int) "grows at least twofold" (6 * Region.granule) (length 0);
  Alcotest.(check int) "past the end reads zero" 0 (Space.get_int s ~proc:0 (a + 500_000));
  Alcotest.(check int) "grows to reach the access" (123 * Region.granule) (length 0);
  Alcotest.(check int) "contents kept" 42 (Space.get_int s ~proc:0 a);
  Alcotest.(check int) "contents kept further out" 7 (Space.get_int s ~proc:0 (a + 20_000));
  Space.set_u8 s ~proc:1 (a + (1 lsl 20) - 1) 9;
  Alcotest.(check int) "capped at the region" (1 lsl 20) (length 1);
  Alcotest.(check int) "last byte" 9 (Space.get_u8 s ~proc:1 (a + (1 lsl 20) - 1))

(* --- Space allocator --------------------------------------------------- *)

let test_alloc_basics () =
  let s = Space.create ~region_size:65536 ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared ~line_size:64 100 in
  Alcotest.(check bool) "address 0 never allocated" true (a > 0);
  Alcotest.(check int) "line aligned" 0 (a mod 64);
  let r = Space.region_of_addr s a in
  Alcotest.(check int) "region line size" 64 r.Region.line_size;
  Alcotest.check_raises "oversized" (Invalid_argument "Space.alloc: size exceeds region size")
    (fun () -> ignore (Space.alloc s ~kind:Region.Shared (65536 + 1)));
  Alcotest.check_raises "non-positive" (Invalid_argument "Space.alloc: size must be positive")
    (fun () -> ignore (Space.alloc s ~kind:Region.Shared 0))

let test_alloc_kind_separation () =
  let s = Space.create ~nprocs:2 () in
  let shared = Space.alloc s ~kind:Region.Shared 64 in
  let priv = Space.alloc s ~kind:Region.Private 64 in
  Alcotest.(check bool) "different regions" true
    ((Space.region_of_addr s shared).Region.index <> (Space.region_of_addr s priv).Region.index);
  Alcotest.(check bool) "kinds recorded" true
    ((Space.region_of_addr s shared).Region.kind = Region.Shared
    && (Space.region_of_addr s priv).Region.kind = Region.Private)

let test_unmapped () =
  let s = Space.create ~nprocs:1 () in
  Alcotest.(check bool) "address zero unmapped" true (Space.find_region s 0 = None);
  (try
     ignore (Space.get_u8 s ~proc:0 0);
     Alcotest.fail "expected Unmapped"
   with Space.Unmapped 0 -> ());
  let a = Space.alloc s ~kind:Region.Shared 16 in
  (* one past the region end is unmapped *)
  let r = Space.region_of_addr s a in
  try
    ignore (Space.validate_range s a (Region.limit r - a + 1));
    Alcotest.fail "expected Unmapped for range crossing the region"
  with Space.Unmapped _ -> ()

let alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 5000))
    (fun sizes ->
      let s = Space.create ~region_size:(1 lsl 20) ~nprocs:1 () in
      let allocs =
        List.mapi
          (fun i size ->
            let line = [| 8; 16; 64; 256 |].(i mod 4) in
            (Space.alloc s ~kind:Region.Shared ~line_size:line size, size))
          sizes
      in
      let sorted = List.sort compare allocs in
      let rec disjoint = function
        | (a1, l1) :: ((a2, _) as b) :: rest -> a1 + l1 <= a2 && disjoint (b :: rest)
        | _ -> true
      in
      disjoint sorted)

(* --- typed access ------------------------------------------------------- *)

let roundtrip_f64 =
  QCheck.Test.make ~name:"f64 write/read round-trips" ~count:300 QCheck.float (fun v ->
      let s = Space.create ~nprocs:2 () in
      let a = Space.alloc s ~kind:Region.Shared 8 in
      Space.set_f64 s ~proc:0 a v;
      let got = Space.get_f64 s ~proc:0 a in
      Int64.bits_of_float got = Int64.bits_of_float v)

let roundtrip_int =
  QCheck.Test.make ~name:"int write/read round-trips" ~count:300 QCheck.int (fun v ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared 8 in
      Space.set_int s ~proc:0 a v;
      Space.get_int s ~proc:0 a = v)

let roundtrip_i32 =
  QCheck.Test.make ~name:"i32 write/read round-trips" ~count:300 QCheck.int32 (fun v ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared 4 in
      Space.set_i32 s ~proc:0 a v;
      Space.get_i32 s ~proc:0 a = v)

let test_u8 () =
  let s = Space.create ~nprocs:1 () in
  let a = Space.alloc s ~kind:Region.Shared 4 in
  Space.set_u8 s ~proc:0 a 0x1FF;
  Alcotest.(check int) "masked to a byte" 0xFF (Space.get_u8 s ~proc:0 a)

let test_per_proc_isolation () =
  let s = Space.create ~nprocs:3 () in
  let a = Space.alloc s ~kind:Region.Shared 8 in
  Space.set_int s ~proc:0 a 111;
  Space.set_int s ~proc:1 a 222;
  Alcotest.(check int) "p0 copy" 111 (Space.get_int s ~proc:0 a);
  Alcotest.(check int) "p1 copy" 222 (Space.get_int s ~proc:1 a);
  Alcotest.(check int) "p2 copy untouched" 0 (Space.get_int s ~proc:2 a)

let test_bytes_and_copy_range () =
  let s = Space.create ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared 32 in
  let payload = Bytes.of_string "entry consistency protocol!!" in
  Space.write_bytes s ~proc:0 a payload;
  Alcotest.(check bytes) "read back" payload
    (Space.read_bytes s ~proc:0 a ~len:(Bytes.length payload));
  Alcotest.(check bool) "processors differ" false
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len:(Bytes.length payload));
  Space.copy_range s ~src_proc:0 ~dst_proc:1 a ~len:(Bytes.length payload);
  Alcotest.(check bool) "copy made them equal" true
    (Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len:(Bytes.length payload))

(* The word-wise ranges_equal must agree with a byte-by-byte comparison,
   in particular across tails shorter than its 8-byte stride. *)
let ranges_equal_matches_bytewise =
  QCheck.Test.make ~name:"ranges_equal equals byte-wise comparison (any tail)" ~count:500
    QCheck.(
      triple (int_bound 37) (list (pair (int_bound 36) (int_bound 255))) bool)
    (fun (len, edits, mirror) ->
      let s = Space.create ~nprocs:2 () in
      let a = Space.alloc s ~kind:Region.Shared (max 1 len + 8) in
      for i = 0 to len - 1 do
        let v = (i * 13) land 0xff in
        Space.set_u8 s ~proc:0 (a + i) v;
        Space.set_u8 s ~proc:1 (a + i) v
      done;
      (* [mirror] applies the same edits to both copies, so both the equal
         and the differing outcome are exercised. *)
      List.iter
        (fun (pos, v) ->
          if pos < len then begin
            Space.set_u8 s ~proc:1 (a + pos) v;
            if mirror then Space.set_u8 s ~proc:0 (a + pos) v
          end)
        edits;
      let byte_wise =
        let rec eq i =
          i >= len || (Space.get_u8 s ~proc:0 (a + i) = Space.get_u8 s ~proc:1 (a + i) && eq (i + 1))
        in
        eq 0
      in
      Space.ranges_equal s ~proc_a:0 ~proc_b:1 a ~len = byte_wise)

let test_backing_slice_is_live () =
  let s = Space.create ~nprocs:2 () in
  let a = Space.alloc s ~kind:Region.Shared 32 in
  Space.write_bytes s ~proc:0 a (Bytes.of_string "abcdefgh");
  let b = Space.backing_slice s ~proc:0 a ~len:8 in
  let off = a land (Space.region_size s - 1) in
  Alcotest.(check string) "view of the live copy" "abcdefgh" (Bytes.sub_string b off 8);
  Space.set_u8 s ~proc:0 a (Char.code 'Z');
  Alcotest.(check char) "sees later writes (no copy)" 'Z' (Bytes.get b off);
  try
    ignore (Space.backing_slice s ~proc:0 0 ~len:4);
    Alcotest.fail "expected Unmapped"
  with Space.Unmapped 0 -> ()

let test_regions_listed_in_order () =
  let s = Space.create ~nprocs:1 () in
  ignore (Space.alloc s ~kind:Region.Shared ~line_size:8 16);
  ignore (Space.alloc s ~kind:Region.Shared ~line_size:64 16);
  ignore (Space.alloc s ~kind:Region.Private ~line_size:8 16);
  let idxs = List.map (fun r -> r.Region.index) (Space.regions s) in
  Alcotest.(check (list int)) "creation order" [ 1; 2; 3 ] idxs

let region_lookup_consistent =
  QCheck.Test.make ~name:"every allocated byte maps back to its region" ~count:100
    QCheck.(int_range 1 10_000)
    (fun size ->
      let s = Space.create ~nprocs:1 () in
      let a = Space.alloc s ~kind:Region.Shared size in
      let r = Space.region_of_addr s a in
      let r' = Space.region_of_addr s (a + size - 1) in
      r.Region.index = r'.Region.index)

(* --- typed access against a byte model ------------------------------------ *)

(* Every typed accessor, at aligned and unaligned offsets, on two
   processors and two regions whose copies start at one granule and grow
   under the cursors as accesses reach further, interleaved with range
   writes (which grow copies too) and range reads.  The model is a
   zero-filled byte image per (processor, region); every load must equal
   it, floats bit for bit. *)

let model_region = 1 lsl 16

(* Floats a conversion could change: NaNs with payloads, quiet and
   signalling, of either sign; both zeros; the extreme subnormals; both
   infinities. *)
let special_float_bits =
  [
    0x7ff8_0000_0000_0000L;
    0x7ff8_dead_beef_0001L;
    0x7ff0_0000_0000_0001L;
    0xfff4_0000_0000_1234L;
    0L;
    0x8000_0000_0000_0000L;
    1L;
    0x000f_ffff_ffff_ffffL;
    0x8000_0000_0000_0001L;
    0x7ff0_0000_0000_0000L;
    0xfff0_0000_0000_0000L;
  ]

(* The accessor (0-9: get and set of u8, i32, i64, f64 and int; 10 a
   range write, 11 a range read) and the bytes it covers. *)
let width = function 0 | 1 -> 1 | 2 | 3 -> 4 | 10 | 11 -> 24 | _ -> 8

let access_op =
  QCheck.Gen.(
    map
      (fun ((kind, proc, region), (off, aligned, bits)) ->
        let w = width kind in
        let off = Int.min off (model_region - w) in
        let off = if aligned then off land lnot (Int.min w 8 - 1) else off in
        (kind, proc, region, off, bits))
      (pair
         (triple (int_bound 11) (int_bound 1) (int_bound 1))
         (triple
            (frequency [ (3, int_bound 255); (1, int_bound (model_region - 1)) ])
            bool
            (frequency [ (1, oneofl special_float_bits); (3, ui64) ]))))

let print_op (kind, proc, region, off, bits) =
  Printf.sprintf "(op %d, p%d, region %d, offset %d, %Lx)" kind proc region off bits

let typed_access_matches_model =
  QCheck.Test.make ~name:"typed access == byte model" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print_op)
       QCheck.Gen.(list_size (int_range 1 200) access_op))
    (fun ops ->
      let s = Space.create ~region_size:model_region ~nprocs:2 () in
      let bases =
        [| Space.alloc s ~kind:Region.Shared 64; Space.alloc s ~kind:Region.Private 64 |]
      in
      let model = Array.init 2 (fun _ -> Array.init 2 (fun _ -> Bytes.make model_region '\000')) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (kind, proc, region, off, bits) ->
          let m = model.(proc).(region) and a = bases.(region) + off in
          match kind with
          | 0 -> expect (Space.get_u8 s ~proc a = Bytes.get_uint8 m off)
          | 1 ->
              Space.set_u8 s ~proc a (Int64.to_int bits);
              Bytes.set_uint8 m off (Int64.to_int bits land 0xff)
          | 2 -> expect (Int32.equal (Space.get_i32 s ~proc a) (Bytes.get_int32_le m off))
          | 3 ->
              Space.set_i32 s ~proc a (Int64.to_int32 bits);
              Bytes.set_int32_le m off (Int64.to_int32 bits)
          | 4 -> expect (Int64.equal (Space.get_i64 s ~proc a) (Bytes.get_int64_le m off))
          | 5 ->
              Space.set_i64 s ~proc a bits;
              Bytes.set_int64_le m off bits
          | 6 ->
              let got = Int64.bits_of_float (Space.get_f64 s ~proc a) in
              expect (Int64.equal got (Bytes.get_int64_le m off))
          | 7 ->
              Space.set_f64 s ~proc a (Int64.float_of_bits bits);
              Bytes.set_int64_le m off bits
          | 8 -> expect (Space.get_int s ~proc a = Int64.to_int (Bytes.get_int64_le m off))
          | 9 ->
              Space.set_int s ~proc a (Int64.to_int bits);
              Bytes.set_int64_le m off (Int64.of_int (Int64.to_int bits))
          | 10 ->
              let data = Bytes.init 24 (fun i -> Char.chr ((Int64.to_int bits lsr i) land 0xff)) in
              Space.write_bytes s ~proc a data;
              Bytes.blit data 0 m off 24
          | _ -> expect (Bytes.equal (Space.read_bytes s ~proc a ~len:24) (Bytes.sub m off 24)))
        ops;
      (* every byte of every copy, grown or not *)
      Array.iteri
        (fun proc per_region ->
          Array.iteri
            (fun region m ->
              expect (Bytes.equal (Space.read_bytes s ~proc bases.(region) ~len:model_region) m))
            per_region)
        model;
      !ok)

let () =
  Alcotest.run "memory"
    [
      ( "region",
        [
          Alcotest.test_case "validation" `Quick test_region_create_validation;
          Alcotest.test_case "geometry" `Quick test_region_geometry;
          Alcotest.test_case "lazy backing" `Quick test_region_lazy_backing;
          Alcotest.test_case "copies sized to the bytes in use" `Quick test_sized_copies;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "basics" `Quick test_alloc_basics;
          Alcotest.test_case "kind separation" `Quick test_alloc_kind_separation;
          Alcotest.test_case "unmapped addresses" `Quick test_unmapped;
          Alcotest.test_case "regions in order" `Quick test_regions_listed_in_order;
          qtest alloc_no_overlap;
          qtest region_lookup_consistent;
        ] );
      ( "access",
        [
          qtest roundtrip_f64;
          qtest roundtrip_int;
          qtest roundtrip_i32;
          qtest typed_access_matches_model;
          Alcotest.test_case "u8 masking" `Quick test_u8;
          Alcotest.test_case "per-processor isolation" `Quick test_per_proc_isolation;
          Alcotest.test_case "bytes and copy_range" `Quick test_bytes_and_copy_range;
          Alcotest.test_case "backing_slice is live" `Quick test_backing_slice_is_live;
          qtest ranges_equal_matches_bytewise;
        ] );
    ]
