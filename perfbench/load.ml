(* Closed-loop load: every caller holds one outstanding request and sends
   the next only when the reply is in, as [Client] and [strdb client]
   do.  Caller 0 runs on the calling domain, every other caller on a
   domain of its own. *)

open Strdb

type outcome = {
  query : Mix.query;
  lat : float;  (** seconds, request sent → reply decoded. *)
  reply : (Database.tuple list, string) result;
}

(* A caller's next request, timed. *)
let timed query f =
  let t0 = Clock.now () in
  let reply = f () in
  { query; lat = Clock.now () -. t0; reply }

let over_wire conn query = timed query (fun () -> Client.query conn query.Mix.wire)

let in_process sigma db query =
  timed query (fun () -> Eval.run ~domains:1 sigma db ~free:query.Mix.free query.Mix.phi)

(* Run [List.length steps] closed loops until [seconds] have passed and
   at least [min_count] requests completed in total, or [max_seconds]
   have passed.  Caller 0 calls [pause] before each request; the time
   spent in it is left out of the wall time.  Returns every outcome and
   the wall time. *)
let phase ?(pause = ignore) ~seconds ~min_count ~max_seconds steps =
  let count = Atomic.make 0 in
  let t0 = Clock.now () in
  let paused = ref 0.0 in
  let go () =
    let el = Clock.now () -. t0 in
    el < max_seconds && (el < seconds || Atomic.get count < min_count)
  in
  let loop ~first step () =
    let acc = ref [] in
    while go () do
      if first then begin
        let (), dt = Clock.time pause in
        paused := !paused +. dt
      end;
      acc := step () :: !acc;
      Atomic.incr count
    done;
    List.rev !acc
  in
  match steps with
  | [] -> invalid_arg "Load.phase: no callers"
  | first :: others ->
      let domains = List.map (fun s -> Domain.spawn (loop ~first:false s)) others in
      let mine = loop ~first:true first () in
      let theirs = List.map Domain.join domains in
      let wall = Clock.now () -. t0 -. !paused in
      (List.concat (mine :: theirs), wall)

(* Two load levels measured in alternating slices — one caller, then
   two, [rounds] times — so that a slow spell of the host lands on both
   levels instead of biasing one.  Rounds continue past [rounds] until
   each level has [min_count] outcomes, up to [max_seconds] in all;
   [between k] runs after round [k], outside the slices; [pause] runs
   between the requests of one-caller slices, outside their wall time
   (with two callers on two cores it would measure their contention).
   Returns each level's slices in order, each as (outcomes, wall). *)
let alternate ~between ~pause ~seconds ~rounds ~min_count ~max_seconds one two =
  let slice = seconds /. float_of_int (2 * rounds) in
  let t0 = Clock.now () in
  let rec go k (o1, n1) (o2, n2) =
    if (k >= rounds && n1 >= min_count && n2 >= min_count) || Clock.now () -. t0 >= max_seconds
    then (List.rev o1, List.rev o2)
    else
      let a = phase ~pause ~seconds:slice ~min_count:0 ~max_seconds:slice one in
      let b = phase ~seconds:slice ~min_count:0 ~max_seconds:slice two in
      between k;
      go (k + 1) (a :: o1, n1 + List.length (fst a)) (b :: o2, n2 + List.length (fst b))
  in
  go 0 ([], 0) ([], 0)

type summary = {
  attempted : int;
  completed : int;
  qps : float;
  p50_ms : float;
  p99_ms : float;
  tail : float option;  (** the highest percentile with ten samples beyond it. *)
}

(* All outcomes of [slices] and their summed wall time. *)
let pooled slices = (List.concat_map fst slices, List.fold_left (fun w (_, dt) -> w +. dt) 0.0 slices)

(* A failed request counts as missing every latency limit: it enters the
   percentiles as an infinite latency. *)
let summarize outcomes wall =
  let lats =
    Array.of_list
      (List.map
         (fun o -> match o.reply with Ok _ -> o.lat | Error _ -> Float.infinity)
         outcomes)
  in
  let n = Array.length lats in
  let completed = List.length (List.filter (fun o -> Result.is_ok o.reply) outcomes) in
  let sorted = Stats.sorted lats in
  let pct p = if n = 0 then Float.nan else Stats.percentile sorted p *. 1e3 in
  {
    attempted = n;
    completed;
    qps = float_of_int completed /. wall;
    p50_ms = pct 50.0;
    p99_ms = pct 99.0;
    tail = Stats.highest_percentile n;
  }

(* [s] as on a host [slowness] times faster: latencies divided by it,
   throughput multiplied. *)
let at_reference slowness s =
  { s with qps = s.qps *. slowness; p50_ms = s.p50_ms /. slowness; p99_ms = s.p99_ms /. slowness }

(* Median latency per template kind, in ms (kinds with no sample omitted). *)
let median_by_kind outcomes =
  let tbl = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.add tbl o.query.Mix.kind o.lat) outcomes;
  Hashtbl.fold
    (fun k _ acc ->
      if List.mem_assoc k acc then acc
      else (k, Stats.median (Array.of_list (Hashtbl.find_all tbl k)) *. 1e3) :: acc)
    tbl []

(* Per template kind, how many samples lie beyond the [p]-th percentile
   of all samples: which queries make the tail. *)
let tail_by_kind outcomes p =
  match outcomes with
  | [] -> []
  | _ ->
      let cut = Stats.percentile (Stats.sorted (Array.of_list (List.map (fun o -> o.lat) outcomes))) p in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun o ->
          if o.lat > cut then
            Hashtbl.replace tbl o.query.Mix.kind
              (1 + Option.value (Hashtbl.find_opt tbl o.query.Mix.kind) ~default:0))
        outcomes;
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])
