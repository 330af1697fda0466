type run = { off : int; len : int }

let word_size = 4

(* Does the word at [opos]/[npos] differ?  Full words compare with one
   32-bit load per buffer; a range tail shorter than a word falls back to
   bytes.  Exactly equivalent to a byte-by-byte comparison. *)
let words_differ old_ opos new_ npos len =
  if len = word_size then Bytes.get_int32_le old_ opos <> Bytes.get_int32_le new_ npos
  else
    let rec go i =
      i < len
      && (Bytes.unsafe_get old_ (opos + i) <> Bytes.unsafe_get new_ (npos + i) || go (i + 1))
    in
    go 0

(* Core scan: compare [len] bytes starting at [old_off] in [old_] and
   [new_off] in [new_]; run offsets are reported relative to [run_base]
   plus the position within the scanned window. *)
let scan_runs ~old_ ~old_off ~new_ ~new_off ~len ~run_base =
  let runs = ref [] in
  let transitions = ref 0 in
  let run_start = ref (-1) in
  let prev_modified = ref false in
  let i = ref 0 in
  let finish_at p =
    if !run_start >= 0 then begin
      runs := { off = run_base + !run_start; len = p - !run_start } :: !runs;
      run_start := -1
    end
  in
  while !i < len do
    if
      !run_start < 0
      && !i + 8 <= len
      && Bytes.get_int64_le old_ (old_off + !i) = Bytes.get_int64_le new_ (new_off + !i)
    then
      (* Outside a run the previous word is unmodified, so two more
         unmodified words change nothing but the position. *)
      i := !i + 8
    else begin
      let wlen = Int.min word_size (len - !i) in
      let modified = words_differ old_ (old_off + !i) new_ (new_off + !i) wlen in
      if modified <> !prev_modified && !i > 0 then incr transitions;
      if modified && !run_start < 0 then run_start := !i;
      if not modified then finish_at !i;
      prev_modified := modified;
      i := !i + wlen
    end
  done;
  finish_at len;
  (List.rev !runs, !transitions)

let diff ~old_ ~new_ ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length old_ || off + len > Bytes.length new_
  then invalid_arg "Diff.diff: range out of bounds";
  scan_runs ~old_ ~old_off:off ~new_ ~new_off:off ~len ~run_base:off

let diff_between ~old_ ~old_off ~new_ ~new_off ~len =
  if
    old_off < 0 || new_off < 0 || len < 0
    || old_off + len > Bytes.length old_
    || new_off + len > Bytes.length new_
  then invalid_arg "Diff.diff_between: range out of bounds";
  scan_runs ~old_ ~old_off ~new_ ~new_off ~len ~run_base:0

let runs_bytes runs = List.fold_left (fun acc r -> acc + r.len) 0 runs

let apply ~src ~dst runs =
  List.iter (fun r -> Bytes.blit src r.off dst r.off r.len) runs

let apply_to ~src ~dst ~src_off ~dst_off runs =
  List.iter (fun r -> Bytes.blit src (src_off + r.off) dst (dst_off + r.off) r.len) runs
