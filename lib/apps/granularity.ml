module R = Midway.Runtime
module Range = Midway.Range

type params = { total_bytes : int; items : int; rounds : int }

(* value layout: round | item | word, wide enough for any sweep point *)
let encode ~round ~item ~word = (((round * 1_000_000) + item) * 100_000) + word

let decode v = (v / 1_000_000 / 100_000, v / 100_000 mod 1_000_000, v mod 100_000)

let run cfg { total_bytes; items; rounds } =
  if cfg.Midway.Config.nprocs < 2 then invalid_arg "Granularity.run: needs 2 processors";
  let item_bytes = total_bytes / items / 8 * 8 in
  if item_bytes < 8 then invalid_arg "Granularity.run: items too small";
  let words = item_bytes / 8 in
  let machine = R.create cfg in
  (* the unit of coherency follows the object size: the largest power of
     two no bigger than the item (capped at a page) *)
  let line =
    let cap = min item_bytes 4096 in
    let rec down p = if p <= cap then p else down (p / 2) in
    down 4096
  in
  let base = Array.init items (fun _ -> R.alloc machine ~line_size:line item_bytes) in
  let locks = Array.init items (fun i -> R.new_lock machine [ Range.v base.(i) item_bytes ]) in
  let done_bar = R.new_barrier machine [] in
  let ok = ref true in
  R.run machine (fun c ->
      let me = R.id c in
      for round = 1 to rounds do
        if me = 0 then
          for i = 0 to items - 1 do
            R.acquire c locks.(i);
            for w = 0 to words - 1 do
              R.write_int c (base.(i) + (w * 8)) (encode ~round ~item:i ~word:w)
            done;
            R.work_cycles c (words * 4);
            R.release c locks.(i)
          done
        else if me = 1 then
          for i = 0 to items - 1 do
            R.acquire c locks.(i);
            for w = 0 to words - 1 do
              let v = R.read_int c (base.(i) + (w * 8)) in
              (* the consumer must observe some producer round intact
                 (acquisition order can lag by a round, never corrupt) *)
              let r, item, word = decode v in
              if item <> i || word <> w || r < 1 || r > rounds then ok := false
            done;
            R.work_cycles c (words * 2);
            R.release c locks.(i)
          done;
        ignore round
      done;
      R.barrier c done_bar);
  (* final values at each lock owner must be well-formed for their item
     (the producer and consumer interleave loosely, so the final owner may
     hold any round's value — corruption, not staleness, is the failure) *)
  List.iter
    (fun i ->
      let owner = locks.(i).Midway.Sync.owner in
      let v = Common.read_int_direct machine ~proc:owner base.(i) in
      let r, item, word = decode v in
      if item <> i || word <> 0 || r < 1 || r > rounds then ok := false)
    (List.init items (fun i -> i));
  Outcome.v ~app:"granularity" ~machine ~ok:!ok
    ~notes:
      [
        Printf.sprintf "%d items x %d B, %d rounds, %d B lines" items item_bytes rounds line;
      ]
