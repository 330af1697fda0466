(* A YCSB-style open-loop workload generator for the sharded KV store.

   Everything is a pure function of (configuration, client id): the
   request stream, the keys, the values and the arrival schedule all
   derive from one SplitMix64 seed, so the same configuration produces
   the same stream on every run and every backend — the property the
   generator tests pin down.

   Key popularity follows Gray et al.'s incremental zipfian sampler
   (the one YCSB itself uses), optionally scrambled so the hot ranks
   spread across the keyspace instead of clustering at the low keys.
   Operation mixes are exact, not expected: a stream of n requests
   contains precisely the per-kind counts a largest-remainder
   apportionment of the weights gives, shuffled by the client's seeded
   generator.  Arrivals are open-loop — the schedule is fixed up front
   and a slow server makes requests late, not sparse (no coordinated
   omission). *)

module Prng = Midway_util.Prng

type dist =
  | Uniform
  | Zipfian of float  (* rank-ordered: key 0 hottest *)
  | Scrambled_zipfian of float  (* hot ranks hashed across the keyspace *)

type arrival =
  | Closed  (* no schedule: each request issues when the last completes *)
  | Poisson of int  (* exponential inter-arrival with the given mean, ns *)

type mix = { w_get : int; w_put : int; w_delete : int; w_scan : int }

let mix_a = { w_get = 50; w_put = 50; w_delete = 0; w_scan = 0 }
let mix_b = { w_get = 95; w_put = 5; w_delete = 0; w_scan = 0 }
let mix_c = { w_get = 100; w_put = 0; w_delete = 0; w_scan = 0 }
let mix_e = { w_get = 0; w_put = 5; w_delete = 0; w_scan = 95 }
let mix_crud = { w_get = 70; w_put = 20; w_delete = 5; w_scan = 5 }

let mix_name m =
  if m = mix_a then "A" else if m = mix_b then "B" else if m = mix_c then "C"
  else if m = mix_e then "E" else if m = mix_crud then "crud"
  else Printf.sprintf "%d/%d/%d/%d" m.w_get m.w_put m.w_delete m.w_scan

type op =
  | Get of int
  | Put of int * int
  | Delete of int
  | Scan of int * int  (* first key, length *)

type req = { r_idx : int; r_sched_ns : int; r_op : op }

type cfg = {
  keys : int;
  requests : int;  (* per client *)
  mix : mix;
  dist : dist;
  arrival : arrival;
  max_scan : int;  (* scan lengths are uniform in [1, max_scan] *)
  seed : int;
}

let default =
  {
    keys = 256;
    requests = 1_000;
    mix = mix_a;
    dist = Zipfian 0.99;
    arrival = Poisson 2_000;
    max_scan = 16;
    seed = 1;
  }

(* ------------------------------------------------------------------ *)
(* Zipfian sampling (Gray et al., "Quickly generating billion-record
   synthetic databases"): draw a rank in [0, n) with P(r) ~ 1/(r+1)^θ. *)
(* ------------------------------------------------------------------ *)

type zipf = { zn : int; theta : float; alpha : float; zetan : float; eta : float }

let zeta n theta =
  let s = ref 0. in
  for i = 1 to n do
    s := !s +. (1. /. (float_of_int i ** theta))
  done;
  !s

let zipf_make n theta =
  if n < 2 then invalid_arg "Ycsb: zipfian needs at least 2 keys";
  if not (theta > 0. && theta < 1.) then invalid_arg "Ycsb: zipfian theta must be in (0, 1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1. /. (1. -. theta) in
  let eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta2 /. zetan)) in
  { zn = n; theta; alpha; zetan; eta }

let zipf_next z g =
  let u = Prng.float g 1.0 in
  let uz = u *. z.zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** z.theta) then 1
  else
    let r = int_of_float (float_of_int z.zn *. (((z.eta *. u) -. z.eta +. 1.) ** z.alpha)) in
    if r >= z.zn then z.zn - 1 else r

let zipf_pmf ~n ~theta =
  let zetan = zeta n theta in
  Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** theta) /. zetan)

(* 64-bit finalizer (SplitMix64's) used to scramble zipfian ranks. *)
let mix64 x =
  let open Int64 in
  let x = logxor x (shift_right_logical x 30) in
  let x = mul x 0xbf58476d1ce4e5b9L in
  let x = logxor x (shift_right_logical x 27) in
  let x = mul x 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let scramble ~n rank =
  let h = mix64 (Int64.of_int (rank + 1)) in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))

(* ------------------------------------------------------------------ *)
(* Exact apportionment of a mix over a finite stream                   *)
(* ------------------------------------------------------------------ *)

(* Largest-remainder: per-kind count = floor(n*w/Σw), leftover seats to
   the largest fractional parts (ties to the earlier kind).  For any
   [n] the counts sum to [n] exactly; when Σw divides n each count is
   exactly n*w/Σw — the "mix ratios respected exactly" property. *)
let apportion ~n weights =
  let total = Array.fold_left ( + ) 0 weights in
  if total <= 0 then invalid_arg "Ycsb: mix weights must sum to a positive number";
  let base = Array.map (fun w -> n * w / total) weights in
  let rem = n - Array.fold_left ( + ) 0 base in
  let frac = Array.mapi (fun i w -> (n * w mod total, -i)) weights in
  let order = Array.init (Array.length weights) Fun.id in
  Array.sort (fun a b -> compare frac.(b) frac.(a)) order;
  for s = 0 to rem - 1 do
    base.(order.(s)) <- base.(order.(s)) + 1
  done;
  base

(* ------------------------------------------------------------------ *)
(* Stream generation                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-client generators derive from the parent seed by repeated
   [Prng.split], so distinct clients' streams are decoupled and adding
   a client never disturbs the existing ones. *)
let client_prng ~seed ~client =
  if client < 0 then invalid_arg "Ycsb: client must be >= 0";
  let parent = Prng.create ~seed in
  let g = ref (Prng.split parent) in
  for _ = 1 to client do
    g := Prng.split parent
  done;
  !g

let client_stream cfg ~client =
  if cfg.keys <= 0 then invalid_arg "Ycsb: keys must be > 0";
  if cfg.requests < 0 then invalid_arg "Ycsb: requests must be >= 0";
  if cfg.max_scan <= 0 then invalid_arg "Ycsb: max_scan must be > 0";
  let g = client_prng ~seed:cfg.seed ~client in
  let z =
    match cfg.dist with
    | Uniform -> None
    | Zipfian theta | Scrambled_zipfian theta -> Some (zipf_make cfg.keys theta)
  in
  let next_key () =
    match (cfg.dist, z) with
    | Uniform, _ -> Prng.int g cfg.keys
    | Zipfian _, Some z -> zipf_next z g
    | Scrambled_zipfian _, Some z -> scramble ~n:cfg.keys (zipf_next z g)
    | _ -> assert false
  in
  (* the kind sequence: exact counts, then a seeded shuffle *)
  let counts =
    apportion ~n:cfg.requests [| cfg.mix.w_get; cfg.mix.w_put; cfg.mix.w_delete; cfg.mix.w_scan |]
  in
  let kinds = Array.make cfg.requests 0 in
  let pos = ref 0 in
  Array.iteri
    (fun kind count ->
      for _ = 1 to count do
        kinds.(!pos) <- kind;
        incr pos
      done)
    counts;
  Prng.shuffle g kinds;
  (* the arrival schedule *)
  let clock = ref 0 in
  let next_sched () =
    match cfg.arrival with
    | Closed -> -1
    | Poisson mean ->
        let u = Prng.float g 1.0 in
        let gap = int_of_float (ceil (-.float_of_int mean *. log (1. -. u))) in
        clock := !clock + max 1 gap;
        !clock
  in
  Array.init cfg.requests (fun i ->
      let sched = next_sched () in
      let op =
        match kinds.(i) with
        | 0 -> Get (next_key ())
        | 1 -> Put (next_key (), 1 + Prng.int g 1_000_000)
        | 2 -> Delete (next_key ())
        | _ ->
            let len = 1 + Prng.int g cfg.max_scan in
            let lo = next_key () in
            Scan (lo, min len (cfg.keys - lo))
      in
      { r_idx = i; r_sched_ns = sched; r_op = op })

let render_op = function
  | Get k -> Printf.sprintf "get %d" k
  | Put (k, v) -> Printf.sprintf "put %d=%d" k v
  | Delete k -> Printf.sprintf "delete %d" k
  | Scan (lo, n) -> Printf.sprintf "scan %d+%d" lo n

let render_req r = Printf.sprintf "@%d #%d %s" r.r_sched_ns r.r_idx (render_op r.r_op)

let stream_digest reqs =
  String.concat "|" (Array.to_list (Array.map render_req reqs))
