(* Tests for the VM substrate: word-granularity diffing and the simulated
   page table. *)

module Diff = Midway_vmem.Diff
module Page_table = Midway_vmem.Page_table

let qtest = QCheck_alcotest.to_alcotest

(* --- Diff --------------------------------------------------------------- *)

(* [Diff.diff_between] over the same window of both buffers, with run
   offsets relative to the buffers. *)
let diff ~old_ ~new_ ~off ~len =
  let runs, transitions = Diff.diff_between ~old_ ~old_off:off ~new_ ~new_off:off ~len in
  (List.map (fun (r : Diff.run) -> { r with Diff.off = off + r.Diff.off }) runs, transitions)

let runs_bytes runs = List.fold_left (fun acc (r : Diff.run) -> acc + r.Diff.len) 0 runs

let apply ~src ~dst runs =
  List.iter (fun (r : Diff.run) -> Bytes.blit src r.Diff.off dst r.Diff.off r.Diff.len) runs

let test_diff_empty () =
  let a = Bytes.make 64 'x' in
  let runs, transitions = diff ~old_:a ~new_:(Bytes.copy a) ~off:0 ~len:64 in
  Alcotest.(check int) "no runs" 0 (List.length runs);
  Alcotest.(check int) "no transitions" 0 transitions;
  Alcotest.(check int) "no bytes" 0 (runs_bytes runs)

let test_diff_all_changed () =
  let a = Bytes.make 64 'a' and b = Bytes.make 64 'b' in
  let runs, transitions = diff ~old_:a ~new_:b ~off:0 ~len:64 in
  Alcotest.(check int) "one run" 1 (List.length runs);
  Alcotest.(check int) "covers everything" 64 (runs_bytes runs);
  Alcotest.(check int) "no transitions" 0 transitions

let test_diff_alternating () =
  (* Change every other 4-byte word: maximal transitions. *)
  let n = 64 in
  let old_ = Bytes.make n '\000' in
  let new_ = Bytes.copy old_ in
  let words = n / 4 in
  for w = 0 to words - 1 do
    if w mod 2 = 0 then Bytes.set new_ (w * 4) '\001'
  done;
  let runs, transitions = diff ~old_ ~new_ ~off:0 ~len:n in
  Alcotest.(check int) "every other word is a run" (words / 2) (List.length runs);
  Alcotest.(check int) "maximal transitions" (words - 1) transitions

let test_diff_offsets () =
  let old_ = Bytes.make 32 '\000' and new_ = Bytes.make 32 '\000' in
  Bytes.set new_ 10 'z';
  let runs, _ = diff ~old_ ~new_ ~off:8 ~len:8 in
  (match runs with
  | [ r ] ->
      Alcotest.(check int) "word-aligned run offset" 8 r.Diff.off;
      Alcotest.(check int) "one word" 4 r.Diff.len
  | _ -> Alcotest.fail "expected exactly one run");
  let runs2, _ = diff ~old_ ~new_ ~off:16 ~len:8 in
  Alcotest.(check int) "change outside range invisible" 0 (List.length runs2)

let test_diff_bounds () =
  let b = Bytes.make 8 ' ' in
  Alcotest.check_raises "out of bounds" (Invalid_argument "Diff.diff_between: range out of bounds")
    (fun () -> ignore (diff ~old_:b ~new_:b ~off:4 ~len:8))

let diff_apply_roundtrip =
  QCheck.Test.make ~name:"apply(diff(old, new)) turns old into new" ~count:300
    QCheck.(pair (int_bound 200) (list (pair (int_bound 199) (int_bound 255))))
    (fun (len, edits) ->
      let len = len + 4 in
      let old_ = Bytes.init len (fun i -> Char.chr (i mod 251)) in
      let new_ = Bytes.copy old_ in
      List.iter (fun (pos, v) -> if pos < len then Bytes.set new_ pos (Char.chr v)) edits;
      let runs, _ = diff ~old_ ~new_ ~off:0 ~len in
      let patched = Bytes.copy old_ in
      apply ~src:new_ ~dst:patched runs;
      Bytes.equal patched new_)

let diff_runs_sorted_disjoint =
  QCheck.Test.make ~name:"diff runs are sorted, disjoint and modified" ~count:300
    QCheck.(list (pair (int_bound 127) (int_bound 255)))
    (fun edits ->
      let len = 128 in
      let old_ = Bytes.make len '\000' in
      let new_ = Bytes.copy old_ in
      List.iter (fun (pos, v) -> Bytes.set new_ pos (Char.chr v)) edits;
      let runs, _ = diff ~old_ ~new_ ~off:0 ~len in
      let rec check prev_end = function
        | [] -> true
        | r :: rest ->
            r.Diff.off >= prev_end && r.Diff.len > 0 && check (r.Diff.off + r.Diff.len) rest
      in
      check 0 runs)

(* Byte-at-a-time reference for the word-wise scan: word flags computed
   with individual byte compares, then folded into runs and transitions. *)
let ref_diff ~old_ ~new_ ~off ~len =
  let runs = ref [] in
  let transitions = ref 0 in
  let run_start = ref (-1) in
  let prev = ref false in
  let i = ref 0 in
  while !i < len do
    let wlen = min Diff.word_size (len - !i) in
    let modified = ref false in
    for j = 0 to wlen - 1 do
      if Bytes.get old_ (off + !i + j) <> Bytes.get new_ (off + !i + j) then modified := true
    done;
    if !modified <> !prev && !i > 0 then incr transitions;
    if !modified && !run_start < 0 then run_start := !i;
    if (not !modified) && !run_start >= 0 then begin
      runs := { Diff.off = off + !run_start; len = !i - !run_start } :: !runs;
      run_start := -1
    end;
    prev := !modified;
    i := !i + wlen
  done;
  if !run_start >= 0 then runs := { Diff.off = off + !run_start; len = len - !run_start } :: !runs;
  (List.rev !runs, !transitions)

let run_pp (r : Diff.run) = Printf.sprintf "{off=%d; len=%d}" r.Diff.off r.Diff.len

(* len + 4 is deliberately *not* forced to a word multiple: unaligned
   tails shorter than a word must behave exactly like the reference. *)
let diff_matches_bytewise_reference =
  QCheck.Test.make ~name:"word-wise diff equals byte-wise reference (any tail)" ~count:500
    QCheck.(
      triple (int_bound 67) (int_bound 10) (list (pair (int_bound 80) (int_bound 255))))
    (fun (len, off, edits) ->
      let size = off + len in
      let old_ = Bytes.init (max 1 size) (fun i -> Char.chr (i mod 251)) in
      let new_ = Bytes.copy old_ in
      List.iter
        (fun (pos, v) -> if pos < size then Bytes.set new_ pos (Char.chr v))
        edits;
      let got = diff ~old_ ~new_ ~off ~len in
      let expected = ref_diff ~old_ ~new_ ~off ~len in
      if got <> expected then
        QCheck.Test.fail_reportf "diff (%s, %d) <> reference (%s, %d)"
          (String.concat ";" (List.map run_pp (fst got)))
          (snd got)
          (String.concat ";" (List.map run_pp (fst expected)))
          (snd expected)
      else true)

(* Long windows with sparse edits, so the scan skips equal 64-bit words
   between runs: any window offset and length (a multiple of 8 or not),
   and for diff_between independent offsets in the two buffers.  Both
   must equal the byte-wise reference on the same windows. *)
let sparse_window_gen =
  QCheck.(
    pair
      (triple (int_bound 15) (int_bound 15) (int_range 0 600))
      (list_of_size (QCheck.Gen.int_bound 6) (pair (int_bound 599) (int_range 1 255))))

let diff_skip_matches_reference =
  QCheck.Test.make ~name:"64-bit skip equals byte-wise reference (unaligned windows)" ~count:500
    sparse_window_gen (fun ((old_off, new_off, len), edits) ->
      let old_ = Bytes.init (old_off + len) (fun i -> Char.chr ((i - old_off) land 0xff)) in
      let new_ = Bytes.make (new_off + len) '\000' in
      Bytes.blit old_ old_off new_ new_off len;
      List.iter
        (fun (pos, v) ->
          if pos < len then
            Bytes.set new_ (new_off + pos)
              (Char.chr (Char.code (Bytes.get new_ (new_off + pos)) lxor v)))
        edits;
      let expected =
        ref_diff ~old_:(Bytes.sub old_ old_off len) ~new_:(Bytes.sub new_ new_off len) ~off:0 ~len
      in
      let same_buffer =
        let window = Bytes.sub old_ 0 (old_off + len) in
        Bytes.blit new_ new_off window old_off len;
        let shifted (r : Diff.run) = { r with Diff.off = r.Diff.off - old_off } in
        let runs, transitions = diff ~old_ ~new_:window ~off:old_off ~len in
        (List.map shifted runs, transitions)
      in
      Diff.diff_between ~old_ ~old_off ~new_ ~new_off ~len = expected && same_buffer = expected)

(* diff_between over live windows must equal diff over copied-out windows
   (modulo the 0-based run offsets), whatever the relative alignment. *)
let diff_between_matches_diff =
  QCheck.Test.make ~name:"diff_between equals diff on extracted windows" ~count:500
    QCheck.(
      QCheck.quad (int_bound 50) (int_bound 9) (int_bound 9)
        (list (pair (int_bound 70) (int_bound 255))))
    (fun (len, old_off, new_off, edits) ->
      let old_ = Bytes.init (old_off + len + 1) (fun i -> Char.chr (i * 7 mod 256)) in
      let new_ = Bytes.create (new_off + len + 1) in
      Bytes.fill new_ 0 (Bytes.length new_) '\017';
      Bytes.blit old_ old_off new_ new_off len;
      List.iter
        (fun (pos, v) ->
          if pos < len then Bytes.set new_ (new_off + pos) (Char.chr v))
        edits;
      let got = Diff.diff_between ~old_ ~old_off ~new_ ~new_off ~len in
      let expected =
        diff
          ~old_:(Bytes.sub old_ old_off len)
          ~new_:(Bytes.sub new_ new_off len)
          ~off:0 ~len
      in
      got = expected)

let test_diff_between_bounds () =
  let b = Bytes.make 8 ' ' in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Diff.diff_between: range out of bounds") (fun () ->
      ignore (Diff.diff_between ~old_:b ~old_off:2 ~new_:b ~new_off:0 ~len:7))

(* A [run] may overwrite the old window up to the end of the run it is
   given, as the twin and VM backends do to refresh a twin while they
   ship: copying each run from the new window into the old one, each at
   its own buffer offset, finds what [diff_between] finds on untouched
   buffers, makes the old window equal the new one and leaves the bytes
   around it alone. *)
let scan_between_refresh_relocates =
  QCheck.Test.make ~name:"scan_between refreshing the old window relocates each run" ~count:500
    QCheck.(
      quad (int_bound 15) (int_bound 15) (int_range 0 300)
        (list (pair (int_bound 299) (int_range 1 255))))
    (fun (old_off, new_off, len, edits) ->
      let old_ = Bytes.init (old_off + len + 8) (fun i -> Char.chr (i * 13 land 0xff)) in
      let new_ = Bytes.make (new_off + len + 8) '\042' in
      Bytes.blit old_ old_off new_ new_off len;
      List.iter
        (fun (pos, v) ->
          if pos < len then
            Bytes.set new_ (new_off + pos)
              (Char.chr (Char.code (Bytes.get new_ (new_off + pos)) lxor v)))
        edits;
      let expected = Diff.diff_between ~old_ ~old_off ~new_ ~new_off ~len in
      let before = Bytes.copy old_ in
      let refresh runs off len =
        runs := { Diff.off; len } :: !runs;
        Bytes.blit new_ (new_off + off) old_ (old_off + off) len
      in
      let runs = ref [] in
      let transitions = Diff.scan_between ~old_ ~old_off ~new_ ~new_off ~len refresh runs in
      (List.rev !runs, transitions) = expected
      && Bytes.equal (Bytes.sub old_ old_off len) (Bytes.sub new_ new_off len)
      && Bytes.equal (Bytes.sub old_ 0 old_off) (Bytes.sub before 0 old_off)
      && Bytes.equal (Bytes.sub old_ (old_off + len) 8) (Bytes.sub before (old_off + len) 8))

(* --- Page_table ---------------------------------------------------------- *)

let test_page_table_validation () =
  Alcotest.check_raises "power of two"
    (Invalid_argument "Page_table.create: page_size must be a positive power of two")
    (fun () -> ignore (Page_table.create ~page_size:1000))

let test_page_lazily_protected () =
  let pt = Page_table.create ~page_size:4096 in
  let p = Page_table.page_of_addr pt 5_000 in
  Alcotest.(check int) "page number" 1 p.Page_table.number;
  Alcotest.(check bool) "starts read-only" true (p.Page_table.prot = Page_table.Read_only);
  Alcotest.(check bool) "starts clean" false p.Page_table.dirty;
  Alcotest.(check int) "base" 4096 (Page_table.page_base pt p);
  Alcotest.(check bool) "same page object" true (p == Page_table.page_of_addr pt 4_096)

let test_fault_semantics () =
  let pt = Page_table.create ~page_size:64 in
  let contents = Bytes.init 64 (fun i -> Char.chr i) in
  (match Page_table.fault_on_write pt ~addr:70 ~contents with
  | None -> Alcotest.fail "first write must fault"
  | Some p ->
      Alcotest.(check bool) "writable now" true (p.Page_table.prot = Page_table.Read_write);
      Alcotest.(check bool) "dirty" true p.Page_table.dirty;
      (match p.Page_table.twin with
      | Some twin ->
          Alcotest.(check bytes) "twin snapshots the pre-store contents" contents twin;
          Alcotest.(check bool) "twin is a copy" true (not (twin == contents))
      | None -> Alcotest.fail "twin missing"));
  Alcotest.(check (option unit)) "second write does not fault"
    None
    (Option.map (fun _ -> ()) (Page_table.fault_on_write pt ~addr:71 ~contents));
  Alcotest.check_raises "bad twin size"
    (Invalid_argument "Page_table.fault_on_write: contents must be page-sized") (fun () ->
      ignore (Page_table.fault_on_write pt ~addr:500 ~contents:(Bytes.make 3 ' ')))

let test_clean () =
  let pt = Page_table.create ~page_size:64 in
  let contents = Bytes.make 64 'q' in
  let p = Option.get (Page_table.fault_on_write pt ~addr:0 ~contents) in
  Page_table.clean pt p;
  Alcotest.(check bool) "protected again" true (p.Page_table.prot = Page_table.Read_only);
  Alcotest.(check bool) "clean" false p.Page_table.dirty;
  Alcotest.(check bool) "twin dropped" true (p.Page_table.twin = None);
  (* next write faults again *)
  Alcotest.(check bool) "refaults" true
    (Page_table.fault_on_write pt ~addr:1 ~contents <> None)

let test_pages_in_range () =
  let pt = Page_table.create ~page_size:128 in
  Alcotest.(check int) "empty range" 0 (List.length (Page_table.pages_in_range pt ~addr:50 ~len:0));
  let pages = Page_table.pages_in_range pt ~addr:50 ~len:300 in
  Alcotest.(check (list int)) "covers 3 pages" [ 0; 1; 2 ]
    (List.map (fun p -> p.Page_table.number) pages)

let test_dirty_pages_sorted () =
  let pt = Page_table.create ~page_size:64 in
  let contents = Bytes.make 64 ' ' in
  ignore (Page_table.fault_on_write pt ~addr:(5 * 64) ~contents);
  ignore (Page_table.fault_on_write pt ~addr:(2 * 64) ~contents);
  ignore (Page_table.fault_on_write pt ~addr:(9 * 64) ~contents);
  Alcotest.(check (list int)) "ascending dirty pages" [ 2; 5; 9 ]
    (List.map (fun p -> p.Page_table.number) (Page_table.dirty_pages pt))

(* The page table against a [Hashtbl] model: a random page size and a
   sequence of operations on page numbers that are 0, small, sparse (a
   few chunks of the index apart) or large.  Every lookup of a page must
   return the one record the model saw first for it, with its number and
   base; [peek] must return it too, or a clean read-only page for a page
   never looked up; [pages_in_range] must list the range's pages in
   ascending order and [dirty_pages] exactly the faulted pages,
   ascending. *)
type pt_op = Touch of int | Peek of int | Range of int * int | Fault of int | Clean of int

let pt_op_gen =
  let open QCheck.Gen in
  let number =
    oneof
      [
        return 0;
        int_bound 16;
        map (fun k -> k * 4096) (int_bound 40);
        int_bound 5_000;
        int_range 1_000_000 (1 lsl 24);
      ]
  in
  frequency
    [
      (4, map (fun n -> Touch n) number);
      (2, map (fun n -> Peek n) number);
      (2, map2 (fun n k -> Range (n, k)) number (int_bound 5));
      (3, map (fun n -> Fault n) number);
      (1, map (fun n -> Clean n) number);
    ]

let pt_op_print = function
  | Touch n -> Printf.sprintf "touch %d" n
  | Peek n -> Printf.sprintf "peek %d" n
  | Range (n, k) -> Printf.sprintf "range %d+%d" n k
  | Fault n -> Printf.sprintf "fault %d" n
  | Clean n -> Printf.sprintf "clean %d" n

let page_table_matches_model =
  QCheck.Test.make ~name:"page table equals a Hashtbl model" ~count:300
    (QCheck.make
       ~print:(fun (shift, ops) ->
         Printf.sprintf "page size %d: %s" (1 lsl shift)
           (String.concat "; " (List.map pt_op_print ops)))
       QCheck.Gen.(pair (int_bound 16) (list_size (int_bound 60) pt_op_gen)))
    (fun (shift, ops) ->
      let page_size = 1 lsl shift in
      let pt = Page_table.create ~page_size in
      let model : (int, Page_table.page) Hashtbl.t = Hashtbl.create 16 in
      let check n (p : Page_table.page) =
        (match Hashtbl.find_opt model n with
        | Some q -> if p != q then QCheck.Test.fail_reportf "page %d: a second record" n
        | None -> Hashtbl.replace model n p);
        if p.Page_table.number <> n || Page_table.page_base pt p <> n * page_size then
          QCheck.Test.fail_reportf "page %d: number %d, base %d" n p.Page_table.number
            (Page_table.page_base pt p)
      in
      let page n = Page_table.page_of_addr pt ((n * page_size) + (n land (page_size - 1))) in
      List.iter
        (function
          | Touch n -> check n (page n)
          | Peek n -> (
              let p = Page_table.peek pt (n * page_size) in
              match Hashtbl.find_opt model n with
              | Some q -> if p != q then QCheck.Test.fail_reportf "peek %d: not its record" n
              | None ->
                  if p.Page_table.dirty || p.Page_table.prot <> Page_table.Read_only
                     || p.Page_table.twin <> None
                  then QCheck.Test.fail_reportf "peek %d: an untouched page is not clean" n)
          | Range (n, k) ->
              let pages = Page_table.pages_in_range pt ~addr:(n * page_size) ~len:(k * page_size) in
              if List.map (fun p -> p.Page_table.number) pages <> List.init k (fun i -> n + i) then
                QCheck.Test.fail_reportf "range %d+%d: not its pages in order" n k;
              List.iteri (fun i p -> check (n + i) p) pages
          | Fault n ->
              let p = page n in
              check n p;
              if p.Page_table.prot = Page_table.Read_only then
                Page_table.fault pt p ~twin:(Bytes.create page_size)
          | Clean n ->
              let p = page n in
              check n p;
              Page_table.clean pt p)
        ops;
      let dirty =
        Hashtbl.fold
          (fun n (p : Page_table.page) acc -> if p.Page_table.dirty then n :: acc else acc)
          model []
        |> List.sort Int.compare
      in
      let listed = Page_table.dirty_pages pt in
      List.iter (fun (p : Page_table.page) -> check p.Page_table.number p) listed;
      List.map (fun (p : Page_table.page) -> p.Page_table.number) listed = dirty)

let () =
  Alcotest.run "vmem"
    [
      ( "diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "all changed" `Quick test_diff_all_changed;
          Alcotest.test_case "alternating words" `Quick test_diff_alternating;
          Alcotest.test_case "offsets" `Quick test_diff_offsets;
          Alcotest.test_case "bounds" `Quick test_diff_bounds;
          qtest scan_between_refresh_relocates;
          Alcotest.test_case "diff_between bounds" `Quick test_diff_between_bounds;
          qtest diff_apply_roundtrip;
          qtest diff_runs_sorted_disjoint;
          qtest diff_matches_bytewise_reference;
          qtest diff_between_matches_diff;
          qtest diff_skip_matches_reference;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "validation" `Quick test_page_table_validation;
          Alcotest.test_case "lazy protection" `Quick test_page_lazily_protected;
          Alcotest.test_case "fault semantics" `Quick test_fault_semantics;
          Alcotest.test_case "clean" `Quick test_clean;
          Alcotest.test_case "pages in range" `Quick test_pages_in_range;
          Alcotest.test_case "dirty pages sorted" `Quick test_dirty_pages_sorted;
          qtest page_table_matches_model;
        ] );
    ]
