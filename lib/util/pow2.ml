let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  if not (is_power_of_two n) then invalid_arg "Pow2.log2: not a power of two";
  let rec go k = if 1 lsl k = n then k else go (k + 1) in
  go 0
