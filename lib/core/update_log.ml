type t = {
  window : int;
  mutable incarnation : int;
  mutable oldest : int;  (* the oldest incarnation logged since the last rebinding *)
  mutable newest_full : int;  (* the newest full marker's incarnation; -1: none *)
  mutable pieces : Payload.vm_piece list array;  (* by [incarnation mod window] *)
  mutable bytes : int array;  (* the same slots' piece-byte totals *)
}

let create ~window =
  { window; incarnation = 0; oldest = 0; newest_full = -1; pieces = [||]; bytes = [||] }

let incarnation t = t.incarnation

let[@inline] slot t inc = inc mod t.window

(* The ring is allocated at the first entry. *)
let record t pieces ~bytes =
  if Array.length t.pieces = 0 then begin
    t.pieces <- Array.make t.window [];
    t.bytes <- Array.make t.window 0
  end;
  let i = slot t t.incarnation in
  t.pieces.(i) <- pieces;
  t.bytes.(i) <- bytes;
  t.incarnation <- t.incarnation + 1

let record_full t =
  t.newest_full <- t.incarnation;
  record t [] ~bytes:0

let rebind t =
  let marker = t.incarnation in
  t.oldest <- marker;
  t.newest_full <- marker;
  if Array.length t.pieces > 0 then begin
    t.pieces.(slot t marker) <- [];
    t.bytes.(slot t marker) <- 0
  end;
  t.incarnation <- marker + 1

(* The entries still in the window are those from [incarnation - window]
   on. *)
let rebound_since t ~seen =
  seen < t.incarnation && t.newest_full > seen && t.newest_full >= t.incarnation - t.window

(* Incarnations [seen+1, incarnation) are all logged when none is older
   than the last rebinding's marker nor fell out of the ring. *)
let covers t ~seen = seen >= t.oldest - 1 && seen >= t.incarnation - 1 - t.window

(* An incarnation's pieces and their bytes.  Before the first logged
   collection only rebindings' markers, which have none, were logged,
   and there is no ring to read. *)
let pieces_at t inc = if Array.length t.pieces = 0 then [] else t.pieces.(slot t inc)

let bytes_at t inc = if Array.length t.bytes = 0 then 0 else t.bytes.(slot t inc)

let update_bytes t ~seen =
  let sum = ref 0 in
  for inc = seen + 1 to t.incarnation - 1 do
    sum := !sum + bytes_at t inc
  done;
  !sum

let updates t ~seen =
  let rec from inc acc = if inc <= seen then acc else from (inc - 1) (pieces_at t inc :: acc) in
  from (t.incarnation - 1) []
