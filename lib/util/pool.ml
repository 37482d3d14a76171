(* A reusable fixed-size domain pool with chunked work-stealing parallel
   iteration, built directly on OCaml 5 Domains (the container has no
   domainslib).

   Design: [size - 1] worker domains are spawned once and then park on a
   condition variable.  A parallel region installs one closure ([job]),
   bumps an epoch counter and broadcasts; every worker runs the same
   closure, which internally steals chunks of the index space through an
   [Atomic.t] cursor, so the region is balanced even when per-element
   cost is wildly uneven (FSA acceptance on strings of different
   lengths).  The caller participates too — a pool of size [n] uses [n]
   domains total, not [n + 1].

   Crucially, the caller waits for the *work* to drain, not for every
   worker to have woken: region completion is an item counter inside the
   region's own closure.  A worker that never gets scheduled (routine on
   machines with fewer cores than the pool has domains) wakes later,
   finds the cursor exhausted and re-parks without ever blocking the
   caller, so an oversized pool degrades to roughly sequential speed
   instead of paying one scheduler timeslice per parked worker per
   region.  Regions are serialized per pool; the pool itself is cheap to
   keep around, so the engine reuses shared pools (see {!get}) instead
   of respawning domains per query. *)

type t = {
  size : int;
  mutable workers : unit Domain.t array;
  mu : Mutex.t;
  work_cv : Condition.t;  (* workers park here between regions *)
  done_cv : Condition.t;  (* the caller parks here until the work drains *)
  region_mu : Mutex.t;  (* serializes whole regions *)
  mutable job : (unit -> unit) option;
  mutable epoch : int;
  mutable stopped : bool;
}

let size t = t.size

let worker_loop pool =
  let seen = ref 0 in
  let live = ref true in
  while !live do
    Mutex.lock pool.mu;
    while
      (not pool.stopped)
      && (pool.epoch = !seen || Option.is_none pool.job)
    do
      if pool.epoch <> !seen then seen := pool.epoch;
      Condition.wait pool.work_cv pool.mu
    done;
    if pool.stopped then begin
      Mutex.unlock pool.mu;
      live := false
    end
    else begin
      seen := pool.epoch;
      let job = Option.get pool.job in
      Mutex.unlock pool.mu;
      (* Jobs are the chunk-stealing bodies below: they trap their own
         exceptions and count their own completion, so a worker never
         dies mid-pool and a late worker runs a body that immediately
         finds the cursor exhausted. *)
      job ()
    end
  done

let max_size = 128

let create n =
  let n = max 1 (min n max_size) in
  let pool =
    {
      size = n;
      workers = [||];
      mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      region_mu = Mutex.create ();
      job = None;
      epoch = 0;
      stopped = false;
    }
  in
  pool.workers <-
    Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let shutdown pool =
  Mutex.lock pool.region_mu;
  Mutex.lock pool.mu;
  let was = pool.stopped in
  pool.stopped <- true;
  Condition.broadcast pool.work_cv;
  Mutex.unlock pool.mu;
  if not was then Array.iter Domain.join pool.workers;
  Mutex.unlock pool.region_mu

(* Offer [job] to the pool's workers and run it on the caller too.
   [job] must be safe to run concurrently with itself, must not raise,
   and must be a no-op once its work is exhausted: the caller returns as
   soon as [done_ ()] holds, which workers signal through [done_cv], so
   a worker scheduled late may still run (and immediately finish) the
   closure after this function has returned. *)
let run_region pool job ~done_ =
  if pool.size = 1 then job ()
  else begin
    Mutex.lock pool.region_mu;
    Mutex.lock pool.mu;
    if pool.stopped then begin
      Mutex.unlock pool.mu;
      Mutex.unlock pool.region_mu;
      job ()
    end
    else begin
      pool.job <- Some job;
      pool.epoch <- pool.epoch + 1;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.mu;
      job ();
      Mutex.lock pool.mu;
      while not (done_ ()) do
        Condition.wait pool.done_cv pool.mu
      done;
      pool.job <- None;
      Mutex.unlock pool.mu;
      Mutex.unlock pool.region_mu
    end
  end

(* ------------------------------------------------------------------ *)
(* Chunked work-stealing maps.  The index space [lo, n) is dealt out in
   chunks through an atomic cursor; small inputs stay on the caller. *)

let chunk_size pool n = max 1 (n / (pool.size * 8))

(* Below this many items per domain the region wakeup costs more than
   the work it distributes; stay on the caller. *)
let min_items_per_domain = 2

(* Absolute floor regardless of pool width: P1 scaling shows wide pools
   losing to sequential on tiny batches (broadcast + GC barriers dwarf
   per-item work), so batches this small always stay on the caller. *)
let small_batch_limit = 32

let parallel_for pool ~lo ~n f =
  if
    pool.size = 1
    || n - lo <= max (pool.size * min_items_per_domain) small_batch_limit
  then
    for i = lo to n - 1 do
      f i
    done
  else begin
    let cursor = Atomic.make lo in
    let completed = Atomic.make 0 in
    let total = n - lo in
    let failure = Atomic.make None in
    let chunk = chunk_size pool total in
    let body () =
      let continue_ = ref true in
      let mine = ref 0 in
      while !continue_ do
        let start = Atomic.fetch_and_add cursor chunk in
        if start >= n then continue_ := false
        else begin
          let stop = min n (start + chunk) in
          (try
             for i = start to stop - 1 do
               f i
             done
           with e ->
             (* Remember the first failure; later chunks still count as
                completed so the region always drains. *)
             ignore (Atomic.compare_and_set failure None (Some e)));
          mine := !mine + (stop - start)
        end
      done;
      if !mine > 0 && Atomic.fetch_and_add completed !mine + !mine >= total
      then begin
        (* This domain retired the last item: wake the caller if it is
           parked on done_cv. *)
        Mutex.lock pool.mu;
        Condition.signal pool.done_cv;
        Mutex.unlock pool.mu
      end
    in
    run_region pool body ~done_:(fun () -> Atomic.get completed >= total);
    match Atomic.get failure with None -> () | Some e -> raise e
  end

let map_array pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    (* Seed the output with a real element so the array is well-typed
       without Obj trickery; index 0 is computed by the caller. *)
    let first = f arr.(0) in
    let out = Array.make n first in
    parallel_for pool ~lo:1 ~n (fun i -> out.(i) <- f arr.(i));
    out
  end

let map_list pool f l = Array.to_list (map_array pool f (Array.of_list l))

let filter_list pool p l =
  match l with
  | [] -> []
  | _ ->
      let arr = Array.of_list l in
      let keep = map_array pool p arr in
      let acc = ref [] in
      for i = Array.length arr - 1 downto 0 do
        if keep.(i) then acc := arr.(i) :: !acc
      done;
      !acc

let concat_map_list pool f l = List.concat (map_list pool f l)

(* ------------------------------------------------------------------ *)
(* Shared pools.  Spawning a domain costs far more than a parallel
   region, so the engine grabs a long-lived pool per requested size and
   keeps it; an [at_exit] hook joins every worker so the process ends
   cleanly. *)

let shared : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mu = Mutex.create ()
let exit_hooked = ref false

let sequential = create 1

(* Shared pools never oversubscribe the machine: minor collections are
   stop-the-world across running domains, so domains beyond the core
   count make every GC pay scheduler timeslices and the whole region
   runs slower than sequential.  [create] stays exact for callers (and
   tests) that want a specific worker count regardless. *)
let get n =
  let n = max 1 (min n max_size) in
  let n = min n (Domain.recommended_domain_count ()) in
  if n = 1 then sequential
  else begin
    Mutex.lock shared_mu;
    let pool =
      match Hashtbl.find_opt shared n with
      | Some p -> p
      | None ->
          if not !exit_hooked then begin
            exit_hooked := true;
            at_exit (fun () ->
                Mutex.lock shared_mu;
                let pools = Hashtbl.fold (fun _ p acc -> p :: acc) shared [] in
                Hashtbl.reset shared;
                Mutex.unlock shared_mu;
                List.iter shutdown pools)
          end;
          let p = create n in
          Hashtbl.replace shared n p;
          p
    in
    Mutex.unlock shared_mu;
    pool
  end

(* ------------------------------------------------------------------ *)
(* A task service: long-lived worker domains draining a bounded queue.

   The pool above is the wrong shape for a server's sessions: its
   regions are serialized per pool and the caller participates, whereas
   a session occupies a domain for the lifetime of a connection and the
   acceptor must never block.  A service is the complementary primitive
   — [submit] either enqueues (bounded) or fails immediately, which is
   what gives the server its fast BUSY reject instead of an unbounded
   backlog of parked connections. *)

module Service = struct
  (* Admission reserves a slot that its task holds until it returns:
     [admitted] counts queued plus running tasks, and
     [admitted <= workers + bound] before and after every [submit] and
     every task completion.  Counting reservations rather than parked
     workers means a worker that has been signalled but not yet woken
     is already taken (two quick submissions cannot both claim it), and
     a submission right after [create] does not race worker start-up. *)
  type t = {
    mu : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    bound : int;
    mutable admitted : int;
    mutable stopped : bool;
    mutable workers : unit Domain.t array;
  }

  let rec worker_loop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopped do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.queue then
      (* stopped with the queue drained: die. *)
      Mutex.unlock t.mu
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mu;
      (* Tasks own their errors: a raising task must not kill the
         worker (the server traps per-session errors itself; this is
         the last line of defense). *)
      (try task () with _ -> ());
      Mutex.protect t.mu (fun () -> t.admitted <- t.admitted - 1);
      worker_loop t
    end

  let create ?(workers = 2) ~queue () =
    let workers = max 1 (min workers max_size) in
    let t =
      {
        mu = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        bound = max 0 queue;
        admitted = 0;
        stopped = false;
        workers = [||];
      }
    in
    t.workers <-
      Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let workers t = Array.length t.workers
  let load t = Mutex.protect t.mu (fun () -> t.admitted)

  let submit t task =
    Mutex.lock t.mu;
    let accepted =
      (not t.stopped) && t.admitted < Array.length t.workers + t.bound
    in
    if accepted then begin
      t.admitted <- t.admitted + 1;
      Queue.push task t.queue;
      Condition.signal t.nonempty
    end;
    Mutex.unlock t.mu;
    accepted

  let shutdown t =
    Mutex.lock t.mu;
    let was = t.stopped in
    t.stopped <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mu;
    if not was then Array.iter Domain.join t.workers
end

(* The engine-wide default domain count: the STRDB_DOMAINS environment
   variable when set to a positive int, else 1 (sequential).  This is
   how CI forces the parallel path through the whole test suite. *)
let default_domains () = min max_size (Knob.int "STRDB_DOMAINS" ~default:1 ~off:1)
