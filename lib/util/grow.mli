val array : ?cap:int -> 'a array -> int -> fill:'a -> 'a array
(** [array a i ~fill] is [a] if it holds index [i], else a copy grown
    to [i + 1] entries or twice [a]'s length, whichever is more, but to
    no more than [cap] (unbounded by default).  New slots hold [fill]. *)
