type run = { off : int; len : int }

let word_size = 4

(* Unchecked native-endian loads: the callers of [scan_runs] check both
   windows, and whether two words are equal does not depend on byte
   order. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

let rec bytes_differ old_ opos new_ npos len i =
  i < len
  && (Bytes.unsafe_get old_ (opos + i) <> Bytes.unsafe_get new_ (npos + i)
     || bytes_differ old_ opos new_ npos len (i + 1))

(* Does the word at [opos]/[npos] differ?  A full word is one 32-bit
   load per buffer; a range tail shorter than a word compares bytes.
   Exactly equivalent to a byte-by-byte comparison. *)
let[@inline] words_differ old_ opos new_ npos len =
  if len = word_size then not (Int32.equal (get32u old_ opos) (get32u new_ npos))
  else bytes_differ old_ opos new_ npos len 0

(* The one scanner: compare [len] bytes starting at [old_off] in [old_]
   and [new_off] in [new_], call [run ctx off len] for each maximal run
   of modified words as it closes, [off] relative to the window, and
   return the transitions.  A word is modified exactly when a run is
   open ([start >= 0]), and every change between modified and
   unmodified words after the first is a transition. *)
let scan_runs ~old_ ~old_off ~new_ ~new_off ~len run ctx =
  let transitions = ref 0 in
  let start = ref (-1) and i = ref 0 in
  while !i < len do
    if !start < 0 then
      (* Outside a run the previous word is unmodified, so equal 64-bit
         words change nothing but the position. *)
      while
        !i + 8 <= len && Int64.equal (get64u old_ (old_off + !i)) (get64u new_ (new_off + !i))
      do
        i := !i + 8
      done;
    if !i < len then begin
      let wlen = Int.min word_size (len - !i) in
      let modified = words_differ old_ (old_off + !i) new_ (new_off + !i) wlen in
      if modified && !start < 0 then begin
        if !i > 0 then incr transitions;
        start := !i
      end
      else if (not modified) && !start >= 0 then begin
        incr transitions;
        run ctx !start (!i - !start);
        start := -1
      end;
      i := !i + wlen
    end
  done;
  if !start >= 0 then run ctx !start (len - !start);
  !transitions

let check_window name ~old_ ~old_off ~new_ ~new_off ~len =
  if
    old_off < 0 || new_off < 0 || len < 0
    || old_off + len > Bytes.length old_
    || new_off + len > Bytes.length new_
  then invalid_arg (name ^ ": range out of bounds")

let scan_between ~old_ ~old_off ~new_ ~new_off ~len run ctx =
  check_window "Diff.scan_between" ~old_ ~old_off ~new_ ~new_off ~len;
  scan_runs ~old_ ~old_off ~new_ ~new_off ~len run ctx

let cons_run runs off len = runs := { off; len } :: !runs

let diff_between ~old_ ~old_off ~new_ ~new_off ~len =
  check_window "Diff.diff_between" ~old_ ~old_off ~new_ ~new_off ~len;
  let runs = ref [] in
  let transitions = scan_runs ~old_ ~old_off ~new_ ~new_off ~len cons_run runs in
  (List.rev !runs, transitions)
