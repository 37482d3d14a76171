(* Self-tests of the benchmark's own machinery: the percentile rule,
   self time from nested spans, plan_cold's no-repeat stream, and the
   reference checkers on hand-made cases.  Run with

     python3 perfbench/run.py --selftest *)

open Strdb
open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let percentile_rule () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  check "nearest-rank median of 1..1000 is 500" (Stats.percentile a 50.0 = 500.0);
  check "p99 of 1..1000 is 990" (Stats.percentile a 99.0 = 990.0);
  check "ten samples beyond p99 at n=1000" (Stats.samples_beyond 1000 99.0 = 10);
  check "nine beyond p99 at n=999" (Stats.samples_beyond 999 99.0 = 9);
  check "highest percentile at n=1000 is p99" (Stats.highest_percentile 1000 = Some 99.0);
  check "highest percentile at n=10000 is p99.9" (Stats.highest_percentile 10000 = Some 99.9);
  check "highest percentile at n=999 is p95" (Stats.highest_percentile 999 = Some 95.0);
  check "highest percentile at n=100 is p90" (Stats.highest_percentile 100 = Some 90.0);
  check "no tail percentile at n=15" (Stats.highest_percentile 15 = None);
  check "p100 is the maximum" (Stats.percentile a 100.0 = 1000.0);
  check "p0 is the minimum" (Stats.percentile a 0.0 = 1.0);
  check "interquartile mean drops a quarter at each end"
    (Stats.interquartile_mean [| 100.; 1.; 2.; 3.; 4.; 5.; 6.; -50. |] = 3.5);
  check "interquartile mean of three is their mean"
    (Stats.interquartile_mean [| 1.; 2.; 6. |] = 3.0)

let span id name parent start stop =
  { Trace.id; name; req = 0; parent; start = Int64.of_int start; stop = Int64.of_int stop }

let self_time () =
  (* root [0,100] with children [10,30] and [20,50] (overlapping) and
     [90,120] (sticking out); a grandchild inside the first child. *)
  let spans =
    [
      span 0 "root" (-1) 0 100;
      span 1 "a" 0 10 30;
      span 2 "b" 0 20 50;
      span 3 "c" 0 90 120;
      span 4 "a.inner" 1 12 18;
    ]
  in
  let self = List.map (fun (s, ns) -> (s.Trace.name, Int64.to_int ns)) (Trace.self_times spans) in
  check "root self = 100 - |[10,50] ∪ [90,100]|" (List.assoc "root" self = 50);
  check "child self excludes its grandchild" (List.assoc "a" self = 14);
  check "leaf self = duration" (List.assoc "a.inner" self = 6);
  let tr = Trace.create () in
  Trace.span tr "outer" (fun () ->
      Trace.span tr "inner" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  let recorded = Trace.spans tr in
  let find n = List.find (fun s -> s.Trace.name = n) recorded in
  check "recorded child points at its parent" ((find "inner").Trace.parent = (find "outer").Trace.id);
  let tbl = Trace.totals recorded in
  check "recorded outer self < outer duration"
    (Trace.self_ms tbl "outer" < Trace.dur_ms tbl "outer"
    && Trace.self_ms tbl "outer" > 1.0);
  (* two repetitions of one request: replica children cover 80 and 60
     of real spans lasting 100 each; the nearest-rank median of two
     samples is the lower one, so 60 / 100 *)
  let cov =
    Trace.coverage
      [
        span 0 "real" (-1) 0 100; span 1 "replica" (-1) 100 200;
        span 2 "stage" 1 110 150; span 3 "stage" 1 150 190;
        span 4 "real" (-1) 200 300; span 5 "replica" (-1) 300 400;
        span 6 "stage" 5 310 370;
      ]
      ~real:"real" ~replica:"replica"
  in
  check "coverage: median replica children over median real" (abs_float (cov -. 0.6) < 1e-9)

let no_repeat () =
  let db = Mix.serve_db ~seed:5 in
  let cold = Mix.cold_stream ~seed:5 db in
  let n = 4000 in
  let seen = Hashtbl.create n in
  let v1 = Array.to_list Mix.v1_wires in
  let ok = ref true and kinds_ok = ref true in
  for i = 0 to n - 1 do
    let q = Mix.next_cold cold in
    if Hashtbl.mem seen q.Mix.wire || List.mem q.Mix.wire v1 then ok := false;
    if q.Mix.kind <> Mix.cold_rotation.(i mod Array.length Mix.cold_rotation) then
      kinds_ok := false;
    Hashtbl.replace seen q.Mix.wire ()
  done;
  check "plan_cold stream never repeats a formula nor a V1 query" !ok;
  check "plan_cold stream follows its rotation" !kinds_ok;
  let again = Mix.cold_stream ~seed:5 db and other = Mix.cold_stream ~seed:6 db in
  let first c = (Mix.next_cold c).Mix.wire in
  let a = first again in
  check "same seed, same stream" (Hashtbl.mem seen a);
  check "another seed, another stream" (first other <> a || first other <> first again)

let references () =
  check "occurs: KMP finds an inner factor" (Refs.occurs ~pattern:"gtg" "acgtga");
  check "occurs: absent factor" (not (Refs.occurs ~pattern:"ttt" "acgtga"));
  check "occurs: empty pattern" (Refs.occurs ~pattern:"" "acg");
  check "edit distance 2 within 2" (Refs.edit_within "acgt" "aggta" 2);
  check "edit distance 3 not within 2" (not (Refs.edit_within "aaaa" "tttt" 2));
  let m = Refs.regex_matcher Mix.bulk_regex_prefix in
  check "regex (gc+a)*(c+t).*: gcac" (m "gcac");
  check "regex (gc+a)*(c+t).*: t" (m "t");
  check "regex (gc+a)*(c+t).*: not gg" (not (m "gg"));
  let g = Refs.regex_matcher Mix.bulk_regex_gap in
  check "regex .*g..c.*: aagtacaa" (g "aagtacaa");
  check "regex .*g..c.*: not gac" (not (g "gac"));
  check "halves: acg·tgc" (Refs.translated_halves Refs.dna_complement "acgtgc");
  check "halves: empty string" (Refs.translated_halves Refs.dna_complement "");
  check "halves: odd length fails" (not (Refs.translated_halves Refs.dna_complement "acg"));
  check "halves: wrong image fails" (not (Refs.translated_halves Refs.dna_complement "acgacg"));
  check "concatenations are sorted and unique"
    (Refs.concatenations [ [ "a"; "c" ]; [ "ac"; "" ]; [ "g"; "t" ] ] = [ [ "ac" ]; [ "gt" ] ]);
  (* every scan_bulk reference agrees with the engine on a small seed *)
  let db = Mix.bulk_db ~seed:3 in
  Array.iter
    (fun b ->
      let q = b.Mix.query in
      check
        ("scan_bulk reference agrees with Eval.run: " ^ q.Mix.name)
        (Eval.run Alphabet.dna db ~free:q.Mix.free q.Mix.phi = Ok (b.Mix.reference ())))
    (Mix.bulk_mix ~seed:3 db)

let () =
  percentile_rule ();
  self_time ();
  no_repeat ();
  references ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
