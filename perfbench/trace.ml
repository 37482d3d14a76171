(* In-memory spans recorded around calls into the engine's layers.

   A span has a name, a start and an end (monotonic nanoseconds), the
   span that was open when it began (its parent, -1 for a root) and the
   request it belongs to.  Spans stay in memory while the benchmark runs
   and are written out once at the end ([write]).  A span's self time is
   its duration minus the part of its interval that its children cover,
   so nested spans never count the same nanosecond twice. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;
  start : int64;
  stop : int64;
}

type t = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  mutable req : int;
}

let create () = { spans = []; next = 0; stack = []; req = -1 }
let set_request t r = t.req <- r

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Clock.now_ns () in
  let finish () =
    let stop = Clock.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; req = t.req; parent; start; stop } :: t.spans
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* A span whose length was measured indirectly, e.g. as the difference
   of two timings: recorded as [seconds] long, ending now, under the
   currently open span.  The caller guarantees that no sibling span was
   recorded in that interval. *)
let derived t name seconds =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let stop = Clock.now_ns () in
  let start = Int64.sub stop (Int64.of_float (seconds *. 1e9)) in
  t.spans <- { id; name; req = t.req; parent; start; stop } :: t.spans

let spans t = List.rev t.spans
let duration s = Int64.sub s.stop s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
            else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

(* Self time of every span, keyed by span id. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, Int64.sub (duration s) (covered ~lo:s.start ~hi:s.stop kids)))
    spans

(* Per span name: (total self ns, total duration ns, count). *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let a, d, n =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0L, 0L, 0)
      in
      Hashtbl.replace tbl s.name (Int64.add a self, Int64.add d (duration s), n + 1))
    (self_times spans);
  tbl

(* Milliseconds of a name's self time, summed. *)
let self_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (self, _, _) -> Int64.to_float self *. 1e-6
  | None -> 0.0

let dur_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (_, d, _) -> Int64.to_float d *. 1e-6
  | None -> 0.0

let count tbl name =
  match Hashtbl.find_opt tbl name with Some (_, _, n) -> n | None -> 0

(* How much of the [real] spans the children of the [replica] spans
   account for.  Each request may repeat both; per request the median
   repetition is taken (single calls are noisy under GC), then the
   medians are summed over requests. *)
let coverage spans ~real ~replica =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = Int64.to_float (duration s) in
      Hashtbl.replace kids s.parent (d +. Option.value (Hashtbl.find_opt kids s.parent) ~default:0.0))
    spans;
  let per_req name value =
    let tbl = Hashtbl.create 64 in
    List.iter (fun s -> if s.name = name then Hashtbl.add tbl s.req (value s)) spans;
    Hashtbl.fold
      (fun r _ acc ->
        if List.mem_assoc r acc then acc
        else (r, Stats.median (Array.of_list (Hashtbl.find_all tbl r))) :: acc)
      tbl []
  in
  let sum l = List.fold_left (fun a (_, v) -> a +. v) 0.0 l in
  let real = per_req real (fun s -> Int64.to_float (duration s)) in
  let replica =
    per_req replica (fun s -> Option.value (Hashtbl.find_opt kids s.id) ~default:0.0)
  in
  Stats.ratio (sum replica) (sum real)

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"req\": %d, \"parent\": %d, \"start_ns\": %Ld, \
         \"end_ns\": %Ld}\n"
        s.id s.name s.req s.parent s.start s.stop)
    (spans t)
