(* The host's speed, read from a gauge: one fixed piece of work, timed.

   The benchmark runs on a shared host whose speed drifts by up to 1.8×
   within a run and over minutes, and the drift, not the engine, set the
   run-to-run spread of every raw time (0.1–0.35 over five to ten
   seeds).  So the end-to-end times are reported at a reference speed.
   During the run the gauge is read every [interval] seconds between one
   caller's requests, on the caller's own thread, while nothing else of
   the benchmark runs, and three times before and after each set-up.
   The run's slowness is the interquartile mean of all its readings over
   [reference]; a set-up's is that of the six readings around it.  Times
   are divided by it, rates multiplied.

   The gauge allocates nothing, so it never enters the OCaml GC and the
   engine's heap does not move its time; it calls nothing of the engine,
   so no change to the engine does either.  Of the gauges tried (the
   same work allocating, one pass over 16 MiB in this process or in a
   child process), this one followed the one-caller metrics most closely:
   over five seeds it cut the spread of scan_bulk's qps from 0.078 to
   0.016 and plan_cold's from 0.106 to 0.034. *)

let keys = Array.init 4000 (fun i -> string_of_int (i * 7919 mod 10007))
let table = Array.make 8192 0
let sorted = Array.make 4000 0

(* Hashing into an open-addressed table and sorting, in cache, about
   1.3–2 ms on a 2-core x86-64 host: the kind of work the engine does
   per row. *)
let kernel () =
  Array.fill table 0 (Array.length table) 0;
  for i = 0 to Array.length keys - 1 do
    let j = ref (Hashtbl.hash keys.(i) land 8191) in
    while table.(!j) <> 0 do
      j := (!j + 1) land 8191
    done;
    table.(!j) <- i + 1
  done;
  for i = 0 to Array.length sorted - 1 do
    sorted.(i) <- i * 7919 mod 10007
  done;
  Array.sort Int.compare sorted;
  table.(0) + sorted.(0)

(* The gauge reading, in seconds, that defines the reference speed: about
   the reading on the 2-core x86-64 host of the committed record when it
   ran fast. *)
let reference = 1.3e-3

let interval = 0.1

type t = { mutable samples : float list;  (** readings, newest first. *) mutable last : float }

let create () = { samples = []; last = Float.neg_infinity }

(* One reading: the faster of two runs, so that the first run's cache
   misses after a request do not count. *)
let sample t =
  let once () =
    let (), dt = Clock.time (fun () -> ignore (Sys.opaque_identity (kernel ()))) in
    dt
  in
  let g = Float.min (once ()) (once ()) in
  t.samples <- g :: t.samples;
  g

(* One reading if [interval] has passed since the last. *)
let tick t =
  let now = Clock.now () in
  if now -. t.last >= interval then begin
    t.last <- now;
    ignore (sample t)
  end

let slowness_of readings = Stats.interquartile_mean readings /. reference

(* [f ()] and its slowness, from three readings before and three after. *)
let around t f =
  let before = List.init 3 (fun _ -> sample t) in
  let r = f () in
  let after = List.init 3 (fun _ -> sample t) in
  (r, slowness_of (Array.of_list (before @ after)))

let readings t = Array.of_list (List.rev t.samples)

(* The run's slowness, from every reading so far: above 1 when the host
   ran slower than the reference speed. *)
let slowness t =
  if t.samples = [] then failwith "perfbench: no speed readings";
  slowness_of (readings t)
