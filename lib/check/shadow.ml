type word = {
  mutable excl : int;
  mutable written : bool;
  mutable last_writer : int;
  mutable lw_sync : int;
  mutable lw_episode : int;
  mutable priv_writer : int;
}

type t = word Int_table.t

(* 1,024 buckets, one major-heap block per machine.  A 64-bucket table
   saves a clean fuzz run 960 more words but lets perfbench fuzz's peak
   heap grow 20% (doc/PERFORMANCE.md). *)
let create () = Int_table.create 1024

let touch t w ~proc =
  match Int_table.find t w with
  | s -> s
  | exception Not_found ->
      let s =
        { excl = proc; written = false; last_writer = -1; lw_sync = -1; lw_episode = -1; priv_writer = -1 }
      in
      Int_table.add t w s;
      s

let tracked t = Int_table.length t
