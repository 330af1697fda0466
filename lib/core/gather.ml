(* A reusable run accumulator for write collection.

   The dirtybit scan emits one call per contiguous run of lines; the
   collectors push those runs here, and a lock transfer's payload names
   them as they are (see Payload).  The arrays persist across
   collections on a context, so steady-state collection allocates
   nothing. *)

type t = {
  mutable addrs : int array;
  mutable lens : int array;
  mutable tss : int array;  (* Timestamp.t *)
  mutable descs : int array;  (* lines (wire descriptors) per run *)
  mutable n : int;
  mutable open_ : bool;  (* may push_line extend the last run? *)
}

let create () =
  { addrs = Array.make 64 0; lens = Array.make 64 0; tss = Array.make 64 0;
    descs = Array.make 64 0; n = 0; open_ = false }

let clear t =
  t.n <- 0;
  t.open_ <- false

let seal t = t.open_ <- false

let length t = t.n

let[@inline] addr t i = Array.unsafe_get t.addrs i

let[@inline] len t i = Array.unsafe_get t.lens i

let[@inline] ts t i = Array.unsafe_get t.tss i

let[@inline] descs t i = Array.unsafe_get t.descs i

let grow t =
  let fresh a = Midway_util.Grow.array a t.n ~fill:0 in
  t.addrs <- fresh t.addrs;
  t.lens <- fresh t.lens;
  t.tss <- fresh t.tss;
  t.descs <- fresh t.descs

let push_run t ~addr ~len ~ts ~descs =
  if t.n = Array.length t.addrs then grow t;
  let i = t.n in
  Array.unsafe_set t.addrs i addr;
  Array.unsafe_set t.lens i len;
  Array.unsafe_set t.tss i ts;
  Array.unsafe_set t.descs i descs;
  t.n <- i + 1;
  t.open_ <- false

let push_line t ~addr ~len ~ts =
  let i = t.n - 1 in
  if
    t.open_ && i >= 0
    && Array.unsafe_get t.addrs i + Array.unsafe_get t.lens i = addr
    && Array.unsafe_get t.tss i = ts
  then begin
    Array.unsafe_set t.lens i (Array.unsafe_get t.lens i + len);
    Array.unsafe_set t.descs i (Array.unsafe_get t.descs i + 1)
  end
  else begin
    push_run t ~addr ~len ~ts ~descs:1;
    t.open_ <- true
  end

let sum a n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + Array.unsafe_get a i
  done;
  !s

let total_bytes t = sum t.lens t.n

let descriptors t = sum t.descs t.n

let copy t =
  let n = t.n in
  { addrs = Array.sub t.addrs 0 n; lens = Array.sub t.lens 0 n; tss = Array.sub t.tss 0 n;
    descs = Array.sub t.descs 0 n; n; open_ = false }
