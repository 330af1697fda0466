(* The sanitizer's tables, keyed by a word index or a sync id: an int
   hash and equality, no polymorphic hash or compare on the access
   path.  The hash folds a word's high bits into its low ones, so a
   dense range of words fills consecutive buckets and ranges in
   different regions spread. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash w = w lxor (w lsr 16)
end)
