(* A reusable run accumulator for write collection.

   The dirtybit scan emits one call per contiguous run of lines; the
   collectors push those runs here and materialize the payload once at
   the end — one data read (a single blit) per run instead of one
   [Bytes.sub] + list cons per line.  The arrays persist across
   collections on a context, so steady-state collection allocates only
   the final payload list. *)

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

(* Close the current run: the next push_line starts a new one even if
   contiguous.  Callers seal at region boundaries so a run never mixes
   line sizes. *)
let seal t = t.open_ <- false

let length t = t.n

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

(* Push one line, extending the previous run when it is contiguous and
   carries the same timestamp (for collectors that visit lines
   individually, e.g. from page-diff pieces). *)
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

let total_bytes t =
  let sum = ref 0 in
  for i = 0 to t.n - 1 do
    sum := !sum + Array.unsafe_get t.lens i
  done;
  !sum

(* Materialize the accumulated runs, in push order.  [read] snapshots the
   run's data (memory is quiescent during a collection, so reading at the
   end observes the same bytes as reading at each emit). *)
let to_rt_lines t ~read =
  let rec build i acc =
    if i < 0 then acc
    else
      let addr = t.addrs.(i) and len = t.lens.(i) in
      build (i - 1)
        ({ Payload.addr; len; ts = t.tss.(i); data = read ~addr ~len; descs = t.descs.(i) }
        :: acc)
  in
  build (t.n - 1) []
