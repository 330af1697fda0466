(** Word-granular shadow state.

    One record per 8-byte word ever touched through the instrumented
    access layer.  [excl] implements the first-toucher exemption
    (initialization writes before data is published need no lock);
    [last_writer]/[lw_sync]/[lw_episode] detect conflicting same-episode
    writes to barrier-bound data; [priv_writer] remembers a
    [write_*_private] store so a later read by a different processor can
    be flagged as a misclassification. *)

type word = {
  mutable excl : int;
      (** the single processor that has touched this word, or [-1] once a
          second one has *)
  mutable written : bool;  (** some processor instrumented-wrote this word *)
  mutable last_writer : int;  (** last writer under a barrier binding; [-1] none *)
  mutable lw_sync : int;  (** barrier id of that write *)
  mutable lw_episode : int;  (** barrier episode of that write *)
  mutable priv_writer : int;  (** last private-store writer; [-1] none *)
}

type t

val create : unit -> t

val touch : t -> int -> proc:int -> word
(** Get or create the word's record; a created record starts with
    [excl = proc] and nothing written, so a caller can treat a fresh
    word as one [proc] alone has touched.  The caller updates [excl]
    (so it can read the pre-access value first). *)

val tracked : t -> int
(** Number of words with shadow state. *)
