let array ?(cap = max_int) a i ~fill =
  if i < Array.length a then a
  else
    let fresh = Array.make (Int.min cap (Int.max (i + 1) (2 * Array.length a))) fill in
    Array.blit a 0 fresh 0 (Array.length a);
    fresh
