module F = Strdb_calculus.Formula
module Sparser = Strdb_calculus.Sparser
module Db = Strdb_calculus.Database
module Pool = Strdb_util.Pool
module Plan = Strdb_algebra.Plan
module Eval = Strdb_algebra.Eval
module Store = Strdb_store.Store

(* ------------------------------------------------------------ config *)

type config = {
  socket : string;
  sigma : Strdb_util.Alphabet.t;
  db : Db.t;
  store : Store.t option;
  workers : int;
  backlog : int;
  domains : int;
  cache_bound : int option;
}

let config ?(workers = 4) ?(backlog = 16) ?domains ?cache_bound ?store ~socket
    sigma db =
  let domains =
    match domains with Some d -> d | None -> Pool.default_domains ()
  in
  { socket; sigma; db; store; workers; backlog; domains; cache_bound }

type counters = {
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  queries : int Atomic.t;
  errors : int Atomic.t;
}

type t = {
  cfg : config;
  cache : Plan_cache.t;
  service : Pool.Service.t;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  stop : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
  active_mu : Mutex.t;
  active : (Unix.file_descr, unit) Hashtbl.t;
  counters : counters;
}

let cache t = t.cache
let socket t = t.cfg.socket

let counters t =
  ( Atomic.get t.counters.accepted,
    Atomic.get t.counters.rejected,
    Atomic.get t.counters.queries,
    Atomic.get t.counters.errors )

(* ---------------------------------------------------------- protocol *)

(* One request per line, one-line status reply:

     QUERY <formula>            answers, columns = sorted free vars
     QUERY[v1,...,vn] <formula> answers, columns in the given order
     EXPLAIN <formula>          the plan, one step per line
     STATS                      "key value" telemetry lines
     PING                       liveness probe
     QUIT                       close this session

   Replies are "OK <n>" followed by n payload lines (tab-separated row
   components for QUERY), or "ERR <message>" on any failure.  A
   connection the server cannot admit gets a single "BUSY" line and is
   closed — the client sees backpressure immediately instead of
   queueing blind. *)
type request =
  | Ping
  | Quit
  | Stats
  | Explain of string
  | Query of string list option * string

let parse_request line =
  let line = String.trim line in
  let keyword_arg kw =
    let k = String.length kw in
    if
      String.length line > k
      && String.sub line 0 k = kw
      && line.[k] = ' '
    then Some (String.trim (String.sub line k (String.length line - k)))
    else None
  in
  match line with
  | "PING" -> Ok Ping
  | "QUIT" -> Ok Quit
  | "STATS" -> Ok Stats
  | _ -> (
      match keyword_arg "EXPLAIN" with
      | Some src when src <> "" -> Ok (Explain src)
      | Some _ -> Error "EXPLAIN needs a formula"
      | None -> (
          match keyword_arg "QUERY" with
          | Some src when src <> "" -> Ok (Query (None, src))
          | Some _ -> Error "QUERY needs a formula"
          | None ->
              if
                String.length line > 6
                && String.sub line 0 6 = "QUERY["
              then
                match String.index_opt line ']' with
                | None -> Error "unterminated free-variable list"
                | Some close ->
                    let vars = String.sub line 6 (close - 6) in
                    let free =
                      List.filter_map
                        (fun v ->
                          let v = String.trim v in
                          if v = "" then None else Some v)
                        (String.split_on_char ',' vars)
                    in
                    let src =
                      String.trim
                        (String.sub line (close + 1)
                           (String.length line - close - 1))
                    in
                    if src = "" then Error "QUERY needs a formula"
                    else Ok (Query (Some free, src))
              else Error "unknown request (QUERY, EXPLAIN, STATS, PING, QUIT)"))

(* Error payloads travel on the status line: newlines and tabs would
   desynchronise the framing. *)
let sanitize m =
  String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) m

let write_ok oc lines =
  Printf.fprintf oc "OK %d\n" (List.length lines);
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  flush oc

let write_err oc m =
  Printf.fprintf oc "ERR %s\n" (sanitize m);
  flush oc

let with_formula src f =
  match Sparser.formula src with
  | exception Sparser.Parse_error m -> Error ("parse: " ^ m)
  | phi -> f phi

let answer srv req =
  match req with
  | Ping -> Ok []
  | Quit -> Ok []
  | Stats ->
      let s = Plan_cache.stats srv.cache in
      let accepted, rejected, queries, errors = counters srv in
      let memo (name, (m : Strdb_util.Memo.stats)) =
        List.map
          (fun (field, v) -> (Printf.sprintf "memo_%s_%s" name field, v))
          [
            ("hits", m.hits); ("misses", m.misses); ("evictions", m.evictions);
            ("entries", m.entries);
          ]
      in
      let p = Strdb_fsa.Product.stats () in
      let st =
        match srv.cfg.store with
        | Some st -> Store.probe_stats st
        | None -> { Store.probes = 0; candidate_rows = 0; scanned_rows = 0 }
      in
      Ok
        (List.map
           (fun (k, v) -> Printf.sprintf "%s %d" k v)
           ([
              ("plan_cache_hits", s.Plan_cache.hits);
              ("plan_cache_misses", s.Plan_cache.misses);
              ("plan_cache_evictions", s.Plan_cache.evictions);
              ("plan_cache_entries", s.Plan_cache.entries);
              ("plan_cache_bound", s.Plan_cache.bound);
              ("connections", accepted);
              ("busy_rejected", rejected);
              ("queries", queries);
              ("errors", errors);
              ("store_probes", st.Store.probes);
              ("store_candidate_rows", st.Store.candidate_rows);
              ("store_scanned_rows", st.Store.scanned_rows);
            ]
           @ List.concat_map memo (Strdb_util.Memo.registered ())
           @ [
               ("product_deferred", p.deferred);
               ("product_built", p.sync_built + p.seq_built);
               ("product_budget_fallbacks", p.budget_fallbacks);
             ]))
  | Explain src ->
      with_formula src (fun phi ->
          let free = F.free_vars phi in
          match
            Plan_cache.prepare srv.cache ?store:srv.cfg.store srv.cfg.sigma
              srv.cfg.db ~free phi
          with
          | Error e -> Error e
          | Ok plan -> Ok (List.map Plan.step_to_string (Plan.explain plan)))
  | Query (free, src) ->
      with_formula src (fun phi ->
          let free =
            match free with Some f -> f | None -> F.free_vars phi
          in
          match
            Plan_cache.prepare srv.cache ?store:srv.cfg.store srv.cfg.sigma
              srv.cfg.db ~free phi
          with
          | Error e -> Error e
          | Ok plan -> (
              match Eval.execute ~pool:srv.pool plan with
              | Error e -> Error e
              | Ok rows ->
                  Atomic.incr srv.counters.queries;
                  Ok (List.map (String.concat "\t") rows)))

let respond srv oc line =
  let outcome =
    (* Sessions share every engine cache; anything unexpected becomes
       an ERR reply, never a dead worker domain. *)
    match parse_request line with
    | Error m -> Error m
    | Ok req -> (
        match answer srv req with
        | Ok lines -> Ok (req, lines)
        | Error m -> Error m
        | exception e -> Error ("internal: " ^ Printexc.to_string e))
  in
  match outcome with
  | Ok (Quit, _) ->
      write_ok oc [];
      `Quit
  | Ok (_, lines) ->
      write_ok oc lines;
      `Continue
  | Error m ->
      Atomic.incr srv.counters.errors;
      write_err oc m;
      `Continue

(* ----------------------------------------------------------- session *)

let register srv fd =
  Mutex.protect srv.active_mu (fun () -> Hashtbl.replace srv.active fd ())

let unregister srv fd =
  Mutex.protect srv.active_mu (fun () -> Hashtbl.remove srv.active fd)

let session srv fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let quit = ref false in
     while (not !quit) && not (Atomic.get srv.stop) do
       match input_line ic with
       | exception End_of_file -> quit := true
       | line -> if respond srv oc line = `Quit then quit := true
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  unregister srv fd;
  (try flush oc with _ -> ());
  (* Close the raw descriptor, not the channels: both channels wrap the
     same fd and closing each would close it twice. *)
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------ accept loop *)

let reject_busy srv fd =
  Atomic.incr srv.counters.rejected;
  (try
     let oc = Unix.out_channel_of_descr fd in
     output_string oc "BUSY\n";
     flush oc
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* How long a connection that finds every worker taken may wait for a
   session that is ending to hand its worker back. *)
let admit_grace = 0.5

(* True when some registered session other than [except]'s is about to
   return its worker: its descriptor reads ready (the client hung up, or
   sent a line the session has not picked up yet), or it has already
   unregistered while its slot is still held.  Sessions register before
   they are submitted and unregister before their task returns, so the
   second case shows as more held slots than registered sessions. *)
let winding_down srv ~except =
  let others =
    Mutex.protect srv.active_mu (fun () ->
        Hashtbl.fold
          (fun fd () acc -> if fd = except then acc else fd :: acc)
          srv.active [])
  in
  List.length others < Pool.Service.load srv.service
  ||
  match Unix.select others [] [] 0.0 with
  | ready, _, _ -> ready <> []
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      true (* a session closed its descriptor after we listed it *)
  | exception Unix.Unix_error _ -> false

(* Submit [fd]'s session.  When every slot is held and some session
   waits in the queue, the service is saturated and this fails at once.
   With none queued (a zero backlog) every held slot is a worker, and
   a client that has just hung up (the usual close-then-reconnect)
   still holds one until its session sees the EOF, so the new
   connection waits up to [admit_grace] for a worker that is winding
   down rather than getting a spurious BUSY. *)
let admit srv fd =
  let svc = srv.service in
  let task () = session srv fd in
  let deadline = Unix.gettimeofday () +. admit_grace in
  (* The last try follows the check that no session is winding down,
     so a worker handed back in between is still taken. *)
  let rec wait () =
    if
      (not (Atomic.get srv.stop))
      && Unix.gettimeofday () < deadline
      && winding_down srv ~except:fd
    then begin
      Unix.sleepf 0.0005;
      Pool.Service.submit svc task || wait ()
    end
    else Pool.Service.submit svc task
  in
  Pool.Service.submit svc task
  || (Pool.Service.load svc <= Pool.Service.workers svc && wait ())

(* Poll with a short timeout instead of blocking in [accept]: the stop
   flag (set by [stop] from another domain, or by the SIGINT handler in
   blocking mode) is honoured within a quarter second without any
   cross-domain wakeup machinery. *)
let accept_loop srv =
  while not (Atomic.get srv.stop) do
    match Unix.select [ srv.listen_fd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept ~cloexec:true srv.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            Atomic.incr srv.counters.accepted;
            register srv fd;
            if not (admit srv fd) then begin
              unregister srv fd;
              reject_busy srv fd
            end)
  done;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink srv.cfg.socket with Unix.Unix_error _ -> ()

(* ----------------------------------------------------------- lifecycle *)

let create cfg =
  (* A session writing to a client that hung up must get EPIPE, not
     kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen listen_fd (max 16 cfg.backlog)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let domains = max 1 cfg.domains in
  {
    cfg;
    cache = Plan_cache.create ?bound:cfg.cache_bound ();
    service = Pool.Service.create ~workers:cfg.workers ~queue:cfg.backlog ();
    pool = (if domains <= 1 then Pool.sequential else Pool.get domains);
    listen_fd;
    stop = Atomic.make false;
    acceptor = None;
    active_mu = Mutex.create ();
    active = Hashtbl.create 16;
    counters =
      {
        accepted = Atomic.make 0;
        rejected = Atomic.make 0;
        queries = Atomic.make 0;
        errors = Atomic.make 0;
      };
  }

(* Sessions block in [input_line]; shutting the read side down from
   here makes those reads return EOF so the workers drain, while
   letting in-flight replies finish writing. *)
let nudge_sessions srv =
  Mutex.protect srv.active_mu (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        srv.active)

let finish srv =
  nudge_sessions srv;
  Pool.Service.shutdown srv.service

let start cfg =
  let srv = create cfg in
  srv.acceptor <- Some (Domain.spawn (fun () -> accept_loop srv));
  srv

let stop srv =
  if not (Atomic.exchange srv.stop true) then begin
    (match srv.acceptor with
    | Some d ->
        Domain.join d;
        srv.acceptor <- None
    | None -> ());
    finish srv
  end

let run_blocking ?(on_signal = fun () -> ()) cfg =
  let srv = create cfg in
  let previous =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           on_signal ();
           Atomic.set srv.stop true))
  in
  accept_loop srv;
  Sys.set_signal Sys.sigint previous;
  Atomic.set srv.stop true;
  finish srv
