(* The query server under test, in a forked child process.

   The child is forked before the benchmark spawns any domain, so it
   inherits only the generated database and store; the load generator's
   domains share no heap and no GC with it.  The child serves until its
   control pipe closes — when the parent calls [stop], or when the
   parent dies — then shuts the server down and exits. *)

open Strdb

type t = { pid : int; socket : string; ctl : Unix.file_descr; mutable stopped : bool }

let workers = 2
let backlog = 4
let plan_cache_bound = 128

let rec read_retry fd buf =
  match Unix.read fd buf 0 1 with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd buf

let child ~socket ~store ~ctl sigma db =
  let cfg =
    Server.config ~workers ~backlog ~domains:1 ~cache_bound:plan_cache_bound ~store ~socket
      sigma db
  in
  let code =
    match Server.start cfg with
    | srv ->
        (try ignore (read_retry ctl (Bytes.create 1)) with Unix.Unix_error _ -> ());
        Server.stop srv;
        0
    | exception e ->
        prerr_endline ("perfbench: server failed to start: " ^ Printexc.to_string e);
        2
  in
  Unix._exit code

let start ~socket ~store sigma db =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close w;
      child ~socket ~store ~ctl:r sigma db
  | pid ->
      Unix.close r;
      { pid; socket; ctl = w; stopped = false }

(* Poll until the server answers PING. *)
let wait_ready ?(timeout = 30.0) t =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    let ok =
      match Client.connect t.socket with
      | c ->
          let ok = Client.ping c in
          Client.close c;
          ok
      | exception Unix.Unix_error _ -> false
    in
    if ok then ()
    else if Clock.now () > deadline then failwith "perfbench: server did not answer PING"
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (try Unix.close t.ctl with Unix.Unix_error _ -> ());
    waitpid_retry t.pid
  end

(* [STATS] counters of the running server, asked on an open connection:
   with every worker holding a session, a new connection would queue. *)
let stats conn =
  match Client.stats conn with
  | Ok kv -> kv
  | Error e -> failwith ("perfbench: STATS failed: " ^ e)

let stat kv k = Option.value (List.assoc_opt k kv) ~default:0
let delta before after k = stat after k - stat before k
