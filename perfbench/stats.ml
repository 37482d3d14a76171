(* Order statistics over latency samples.

   Percentiles are nearest-rank: the [p]-th percentile of [n] sorted
   samples is the value at rank [ceil (p/100 · n)], so it is always an
   observed sample.  A tail percentile is only reported when at least
   ten samples lie beyond it ([samples_beyond]); [highest_percentile]
   picks the highest of the usual tail points that satisfies this. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* The 1e-9 keeps binary rounding (0.999 · 10000 = 9990.000000000002)
   from pushing an exact rank one place up. *)
let rank n p =
  max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9))))

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(rank n p - 1)

let samples_beyond n p = n - rank n p

let tail_points = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let highest_percentile n =
  List.find_opt (fun p -> samples_beyond n p >= 10) tail_points

let median a = percentile (sorted a) 50.0

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* The mean of the middle half: the samples from rank ⌊n/4⌋ to
   n − 1 − ⌊n/4⌋.  It follows a two-mode sample's mix as the mean does,
   where the median jumps between the modes, and it drops outliers. *)
let interquartile_mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.interquartile_mean: no samples";
  let k = n / 4 in
  mean (Array.sub (sorted a) k (n - (2 * k)))
