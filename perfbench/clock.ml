(* Monotonic time for every measurement the benchmark takes. *)

let now_ns () = Monotonic_clock.now ()

(* Seconds since an arbitrary origin; differences are what matter. *)
let now () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
