(* A bounded LRU over a fixed array of hash buckets.  The table never
   holds more than [bound] entries, so the bucket array is sized once
   (a power of two at least twice the bound) and never resized.  A hit
   stamps its node with a fresh tick; eviction, which only a miss pays,
   scans for the stalest stamp — O(bound), cheaper than any computation
   worth memoizing. *)

type ('k, 'v) node = { key : 'k; hash : int; value : 'v; mutable used : int }

type ('k, 'v) t = {
  mu : Mutex.t;
  hash_of : 'k -> int;
  equal : 'k -> 'k -> bool;
  bound : int;
  buckets : ('k, 'v) node list array;
  mutable entries : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bound : int;
}

let stats (t : _ t) =
  Mutex.protect t.mu (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = t.entries;
        bound = t.bound;
      })

let registry : (string * (unit -> stats)) list ref = ref []
let registry_mu = Mutex.create ()

let registered () =
  Mutex.protect registry_mu (fun () -> List.rev !registry)
  |> List.map (fun (name, read) -> (name, read ()))

let create ?name ~bound ~hash ~equal () =
  let bound = max 0 bound in
  let size = ref 8 in
  while !size < 2 * bound do
    size := 2 * !size
  done;
  let t =
    {
      mu = Mutex.create ();
      hash_of = hash;
      equal;
      bound;
      buckets = Array.make !size [];
      entries = 0;
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }
  in
  Option.iter
    (fun name ->
      Mutex.protect registry_mu (fun () ->
          registry := (name, fun () -> stats t) :: !registry))
    name;
  t

(* Callers' hashes may vary only in their low bits (automaton sizes);
   the middle bits of a multiplicative hash depend on all of them. *)
let slot t h = ((h * 0x9E3779B1) lsr 8) land (Array.length t.buckets - 1)

(* [lookup], [touch] and [evict_stalest] run with [t.mu] held. *)

let lookup t k h =
  List.find_opt (fun n -> n.hash = h && t.equal n.key k) t.buckets.(slot t h)

let touch t n =
  t.tick <- t.tick + 1;
  n.used <- t.tick

let evict_stalest t =
  let stalest = ref None in
  Array.iter
    (List.iter (fun n ->
         match !stalest with
         | Some s when s.used <= n.used -> ()
         | _ -> stalest := Some n))
    t.buckets;
  Option.iter
    (fun n ->
      let i = slot t n.hash in
      t.buckets.(i) <- List.filter (fun m -> m != n) t.buckets.(i);
      t.entries <- t.entries - 1;
      t.evictions <- t.evictions + 1)
    !stalest

let find t k =
  let h = t.hash_of k in
  Mutex.protect t.mu (fun () ->
      match lookup t k h with
      | Some n ->
          t.hits <- t.hits + 1;
          touch t n;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          None)

let add t k v =
  let h = t.hash_of k in
  Mutex.protect t.mu (fun () ->
      match lookup t k h with
      | Some n ->
          touch t n;
          n.value
      | None ->
          if t.bound > 0 then begin
            if t.entries >= t.bound then evict_stalest t;
            t.tick <- t.tick + 1;
            let i = slot t h in
            t.buckets.(i) <- { key = k; hash = h; value = v; used = t.tick } :: t.buckets.(i);
            t.entries <- t.entries + 1
          end;
          v)

let find_or_add t k compute =
  match find t k with Some v -> v | None -> add t k (compute k)

let clear t =
  Mutex.protect t.mu (fun () ->
      Array.fill t.buckets 0 (Array.length t.buckets) [];
      t.entries <- 0;
      t.tick <- 0;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
