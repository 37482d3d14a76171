type config = { state : int; pos : int array }

let initial (a : Fsa.t) = { state = a.start; pos = Array.make a.arity 0 }

let symbols_under_heads ws config =
  Array.mapi (fun i n -> Symbol.of_tape ws.(i) n) config.pos

let transition_enabled ws config (tr : Fsa.transition) =
  tr.src = config.state
  && Array.length tr.read = Array.length config.pos
  &&
  let ok = ref true in
  Array.iteri
    (fun i s ->
      if not (Symbol.equal s (Symbol.of_tape ws.(i) config.pos.(i))) then
        ok := false)
    tr.read;
  !ok

let enabled (a : Fsa.t) ws config =
  List.filter (transition_enabled ws config) (Fsa.outgoing a config.state)

let apply (tr : Fsa.transition) config =
  { state = tr.dst; pos = Array.mapi (fun i n -> n + tr.moves.(i)) config.pos }

let successors a ws config = List.map (fun tr -> apply tr config) (enabled a ws config)

let check_input (a : Fsa.t) ws =
  if List.length ws <> a.arity then
    invalid_arg
      (Printf.sprintf "Run: tuple arity %d does not match FSA arity %d"
         (List.length ws) a.arity);
  List.iter (Strdb_util.Alphabet.check_string a.sigma) ws

(* Configurations are hashable as (state, positions-list). *)
let key config = (config.state, Array.to_list config.pos)

let search ~order (a : Fsa.t) ws0 =
  check_input a ws0;
  let ws = Array.of_list ws0 in
  let seen = Hashtbl.create 256 in
  let frontier = Queue.create () in
  let stack = ref [] in
  let push c =
    if not (Hashtbl.mem seen (key c)) then begin
      Hashtbl.replace seen (key c) ();
      match order with
      | `Bfs -> Queue.add c frontier
      | `Dfs -> stack := c :: !stack
    end
  in
  let pop () =
    match order with
    | `Bfs -> if Queue.is_empty frontier then None else Some (Queue.pop frontier)
    | `Dfs -> (
        match !stack with
        | [] -> None
        | c :: rest ->
            stack := rest;
            Some c)
  in
  push (initial a);
  let rec go () =
    match pop () with
    | None -> false
    | Some c ->
        let succs = successors a ws c in
        if Fsa.is_final a c.state && succs = [] then true
        else begin
          List.iter push succs;
          go ()
        end
  in
  go ()

let accepts_naive a ws = search ~order:`Bfs a ws
let accepts_dfs a ws = search ~order:`Dfs a ws

(* What a row needs, resolved once: the optimized automaton and its
   dispatch index.  The two memo lookups happen here, so a per-row loop
   takes none.  Optimizing keeps the arity and the alphabet, so the
   input is checked against the optimized automaton. *)
type prepared = { fsa : Fsa.t; rt : Runtime.t }

let prepare a =
  let fsa = Optimize.optimized a in
  { fsa; rt = Runtime.index fsa }

let accepts_prepared p ws =
  check_input p.fsa ws;
  match Runtime.accepts_indexed p.rt ws with
  | Some b -> b
  | None -> accepts_naive p.fsa ws

let accepts a ws = accepts_prepared (prepare a) ws

(* Batch acceptance over one FSA: the σ_A filter shape of the query
   pipeline.  The per-tuple searches are independent and share only
   the prepared automaton, so the batch spreads over the pool. *)
let accepts_batch ?(pool = Strdb_util.Pool.sequential) a tuples =
  let p = prepare a in
  Strdb_util.Pool.map_array pool (accepts_prepared p) (Array.of_list tuples)

let accepting_trace (a : Fsa.t) ws0 =
  check_input a ws0;
  let ws = Array.of_list ws0 in
  (* BFS storing the parent of each discovered configuration. *)
  let parent = Hashtbl.create 256 in
  let frontier = Queue.create () in
  let start = initial a in
  Hashtbl.replace parent (key start) None;
  Queue.add start frontier;
  let rec walk_back c acc =
    match Hashtbl.find parent (key c) with
    | None -> c :: acc
    | Some p -> walk_back p (c :: acc)
  in
  let rec go () =
    if Queue.is_empty frontier then None
    else
      let c = Queue.pop frontier in
      let succs = successors a ws c in
      if Fsa.is_final a c.state && succs = [] then Some (walk_back c [])
      else begin
        List.iter
          (fun s ->
            if not (Hashtbl.mem parent (key s)) then begin
              Hashtbl.replace parent (key s) (Some c);
              Queue.add s frontier
            end)
          succs;
        go ()
      end
  in
  go ()

let reachable_configs (a : Fsa.t) ws0 =
  check_input a ws0;
  let ws = Array.of_list ws0 in
  let seen = Hashtbl.create 256 in
  let acc = ref [] in
  let frontier = Queue.create () in
  let push c =
    if not (Hashtbl.mem seen (key c)) then begin
      Hashtbl.replace seen (key c) ();
      Queue.add c frontier
    end
  in
  push (initial a);
  while not (Queue.is_empty frontier) do
    let c = Queue.pop frontier in
    acc := c :: !acc;
    List.iter push (successors a ws c)
  done;
  List.rev !acc
