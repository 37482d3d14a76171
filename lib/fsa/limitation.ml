module Memo = Strdb_util.Memo

type bound = { formula : string; eval : int list -> int }
type verdict = Limited of bound | Unlimited of string

let normal_form_errors (a : Fsa.t) =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (match Fsa.finals_list a with
  | [] | [ _ ] -> ()
  | fs -> err "more than one final state (%d)" (List.length fs));
  List.iter
    (fun f ->
      if Fsa.outgoing a f <> [] then err "final state %d has outgoing transitions" f)
    (Fsa.finals_list a);
  Array.iter
    (fun (tr : Fsa.transition) ->
      if Fsa.is_final a tr.dst && not (Fsa.is_stationary tr) then
        err "non-stationary transition enters final state %d" tr.dst;
      if tr.dst = a.start then err "start state has incoming transitions")
    a.transitions;
  List.rev !errors

let check_partition (a : Fsa.t) ~inputs ~outputs =
  let all = List.sort compare (inputs @ outputs) in
  if all <> List.init a.arity (fun i -> i) then
    Error "inputs and outputs must partition the tapes"
  else Ok ()

(* --- shared helpers ------------------------------------------------------ *)

let is_reading ~inputs ~skip (tr : Fsa.transition) =
  List.exists (fun i -> i <> skip && tr.moves.(i) = 1) inputs

let written_outputs ~outputs ~skip (tr : Fsa.transition) =
  List.filter (fun o -> o <> skip && tr.moves.(o) = 1) outputs

(* Cycle detection among a set of transitions (by Kosaraju SCC): is there a
   cycle whose transitions all satisfy [keep], containing one satisfying
   [want]? *)
let cycle_with (a : Fsa.t) ~keep ~want =
  let trs = List.filter keep (Array.to_list a.transitions) in
  if trs = [] then false
  else begin
    let succ = Hashtbl.create 64 and pred = Hashtbl.create 64 in
    List.iter
      (fun (tr : Fsa.transition) ->
        Hashtbl.add succ tr.src tr.dst;
        Hashtbl.add pred tr.dst tr.src)
      trs;
    let nodes =
      List.concat_map (fun (tr : Fsa.transition) -> [ tr.src; tr.dst ]) trs
      |> List.sort_uniq compare
    in
    let visited = Hashtbl.create 64 in
    let order = ref [] in
    let rec dfs1 v =
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.replace visited v ();
        List.iter dfs1 (Hashtbl.find_all succ v);
        order := v :: !order
      end
    in
    List.iter dfs1 nodes;
    let comp = Hashtbl.create 64 in
    let c = ref 0 in
    let rec dfs2 v =
      if not (Hashtbl.mem comp v) then begin
        Hashtbl.replace comp v !c;
        List.iter dfs2 (Hashtbl.find_all pred v)
      end
    in
    List.iter
      (fun v ->
        if not (Hashtbl.mem comp v) then begin
          dfs2 v;
          incr c
        end)
      !order;
    let internal (tr : Fsa.transition) =
      Hashtbl.find comp tr.src = Hashtbl.find comp tr.dst
    in
    let cyclic =
      List.filter_map
        (fun tr -> if internal tr then Some (Hashtbl.find comp tr.src) else None)
        trs
      |> List.sort_uniq compare
    in
    List.exists
      (fun tr -> internal tr && want tr && List.mem (Hashtbl.find comp tr.src) cyclic)
      trs
  end

(* --- the unidirectional case --------------------------------------------- *)

let sum_formula inputs =
  if inputs = [] then "1"
  else
    "("
    ^ String.concat " + "
        (List.map (fun i -> Printf.sprintf "(n%d+1)" (i + 1)) inputs)
    ^ " + 1)"

let analyze_unidirectional (a : Fsa.t) ~inputs ~outputs =
  (* Easy: an accepting transition leaves an output tape short of ⊣. *)
  let easy =
    List.find_opt
      (fun o ->
        Array.exists
          (fun (tr : Fsa.transition) ->
            Fsa.is_final a tr.dst && not (Symbol.equal tr.read.(o) Symbol.Rend))
          a.transitions)
      outputs
  in
  match easy with
  | Some o ->
      Unlimited
        (Printf.sprintf
           "easy: the FSA can accept with output tape %d short of its right endmarker"
           o)
  | None ->
      (* Hard: a loop that consumes no input yet advances an output. *)
      let keep tr = not (is_reading ~inputs ~skip:(-1) tr) in
      let want tr = written_outputs ~outputs ~skip:(-1) tr <> [] in
      if cycle_with a ~keep ~want then
        Unlimited "hard: an input-free loop advances an output tape"
      else begin
        let size = Fsa.size a in
        let formula = Printf.sprintf "%d · %s" size (sum_formula inputs) in
        let eval ns =
          let rho =
            List.fold_left ( + ) 1 (List.map (fun n -> n + 1) ns)
          in
          size * rho
        in
        Limited { formula; eval }
      end

(* --- the right-restricted case ------------------------------------------- *)

(* Project the FSA onto the bidirectional tape [b], applying the cleanup
   normalisation of Theorem 5.2: transitions entering the (unique) final
   state are replaced by a winding gadget that drives tape b past ⊣.
   Stationary transitions are kept as-is — the crossing construction
   composes them into effective steps, subsuming the paper's dancing. *)
let project_two_way (a : Fsa.t) ~b ~inputs ~outputs =
  let sigma = a.sigma in
  let winder = a.num_states in
  let final2 = a.num_states + 1 in
  let trans = ref [] in
  let emit t = trans := t :: !trans in
  let base_meta (tr : Fsa.transition) =
    {
      Crossing.reading = is_reading ~inputs ~skip:b tr;
      writes = written_outputs ~outputs ~skip:b tr;
      synthetic = false;
      final_read = None;
    }
  in
  let synth = { Crossing.reading = false; writes = []; synthetic = true; final_read = None } in
  Array.iter
    (fun (tr : Fsa.transition) ->
      if Fsa.is_final a tr.dst then begin
        (* Cleanup: enter the winding loop instead of the final state.  The
           original accepting transition is recorded in the metadata so the
           easy-output check can inspect its read vector.  When it reads ⊣
           on tape b the head genuinely visited the right endmarker, so the
           step is *not* synthetic (tape b cannot be extended through it);
           otherwise the move into the winder starts the synthetic sweep. *)
        if Symbol.equal tr.read.(b) Symbol.Rend then
          emit
            {
              Crossing.src = tr.src;
              sym = Symbol.Rend;
              dst = final2;
              move = 1;
              meta = { synth with synthetic = false; final_read = Some tr.read };
            }
        else
          emit
            {
              Crossing.src = tr.src;
              sym = tr.read.(b);
              dst = winder;
              move = 1;
              meta = { synth with final_read = Some tr.read };
            }
      end
      else
        emit
          {
            Crossing.src = tr.src;
            sym = tr.read.(b);
            dst = tr.dst;
            move = tr.moves.(b);
            meta = base_meta tr;
          })
    a.transitions;
  (* The winding loop proper: sweep right over anything until ⊣, then cross
     past it into the new final state. *)
  List.iter
    (fun c ->
      emit { Crossing.src = winder; sym = Symbol.Chr c; dst = winder; move = 1; meta = synth })
    (Strdb_util.Alphabet.chars sigma);
  emit { Crossing.src = winder; sym = Symbol.Rend; dst = final2; move = 1; meta = synth };
  {
    Crossing.sigma;
    num_states = a.num_states + 2;
    start = a.start;
    final = final2;
    trans = List.rev !trans;
  }

(* Bounded search for the paper's Fig. 9 "returning loop" when the
   bidirectional tape is an input: a reading-free excursion of the two-way
   head over some window of tape b that writes an output and returns to its
   starting square and state.  The window contents are committed lazily. *)
let returning_loop (tw : Crossing.two_way) ~max_window =
  let chars = List.map (fun c -> Symbol.Chr c) (Strdb_util.Alphabet.chars tw.sigma) in
  let quiet = List.filter (fun (t : Crossing.ttrans) -> not t.meta.reading) tw.trans in
  (* A node: current state, offset from the anchor square, the window of
     committed symbols (offset -> symbol), whether an output has been
     written, and whether we have taken at least one step.  Endmarkers may
     be committed at the window edges: ⊢ strictly left of every other
     commitment, ⊣ strictly right. *)
  let module M = Map.Make (Int) in
  let found = ref false in
  let states = List.sort_uniq compare (List.map (fun (t : Crossing.ttrans) -> t.src) quiet) in
  (* Cheap necessary condition before the exponential lazy-window search:
     ignoring window contents, a returning loop needs a quiet path from
     (p, 0) back to (p, 0) with at least one write and displacements within
     the window.  The (state, displacement, wrote) graph is tiny. *)
  let feasible_anchor max_window p =
    let seen = Hashtbl.create 64 in
    let q = Queue.create () in
    let push c =
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.replace seen c ();
        Queue.add c q
      end
    in
    List.iter
      (fun (t : Crossing.ttrans) ->
        if t.src = p && abs t.move <= max_window then
          push (t.dst, t.move, t.meta.writes <> []))
      quiet;
    let ok = ref false in
    while (not !ok) && not (Queue.is_empty q) do
      let s, off, wrote = Queue.pop q in
      if s = p && off = 0 && wrote then ok := true
      else
        List.iter
          (fun (t : Crossing.ttrans) ->
            if t.src = s then begin
              let off' = off + t.move in
              if abs off' <= max_window then
                push (t.dst, off', wrote || t.meta.writes <> [])
            end)
          quiet
    done;
    !ok
  in
  let budget = ref 0 in
  let try_anchor max_window p =
    let seen = Hashtbl.create 256 in
    let stack = ref [ (p, 0, M.empty, false, false) ] in
    while (not !found) && !stack <> [] && !budget > 0 do
      decr budget;
      match !stack with
      | [] -> ()
      | (q, off, win, wrote, moved) :: rest ->
          stack := rest;
          if moved && q = p && off = 0 && wrote then found := true
          else begin
            let key = (q, off, M.bindings win, wrote) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              (* Determine (or branch on) the symbol at [off]. *)
              let symbols =
                match M.find_opt off win with
                | Some s -> [ (s, win) ]
                | None ->
                    let bounds = M.bindings win in
                    let lend_ok =
                      List.for_all
                        (fun (o, s) -> o > off || s = Symbol.Lend)
                        bounds
                      && not (List.exists (fun (_, s) -> s = Symbol.Lend) bounds)
                    in
                    let rend_ok =
                      List.for_all
                        (fun (o, s) -> o < off || s = Symbol.Rend)
                        bounds
                      && not (List.exists (fun (_, s) -> s = Symbol.Rend) bounds)
                    in
                    List.map (fun s -> (s, M.add off s win)) chars
                    @ (if lend_ok then [ (Symbol.Lend, M.add off Symbol.Lend win) ] else [])
                    @ if rend_ok then [ (Symbol.Rend, M.add off Symbol.Rend win) ] else []
              in
              List.iter
                (fun (sym, win) ->
                  List.iter
                    (fun (t : Crossing.ttrans) ->
                      if t.src = q && Symbol.equal t.sym sym then begin
                        let off' = off + t.move in
                        if abs off' <= max_window then
                          stack :=
                            ( t.dst,
                              off',
                              win,
                              wrote || t.meta.writes <> [],
                              true )
                            :: !stack
                      end)
                    quiet)
                symbols
            end
          end
    done
  in
  (* Iterative deepening on the window width: small loops are found cheaply
     before wide windows blow the search up. *)
  let width = ref 1 in
  while (not !found) && !width <= max_window do
    budget := 200_000;
    List.iter
      (fun p ->
        if (not !found) && feasible_anchor !width p then try_anchor !width p)
      states;
    incr width
  done;
  !found

let analyze_raw ~max_crossing_states ~max_window (a : Fsa.t) ~inputs ~outputs
    =
  match check_partition a ~inputs ~outputs with
  | Error _ as e -> e
  | Ok () -> (
      let a = Fsa.trim a in
      if Fsa.finals_list a = [] then
        Ok
          (Limited
             { formula = "0 (empty language)"; eval = (fun _ -> 0) })
      else
        match normal_form_errors a with
        | _ :: _ as errs ->
            Error
              ("FSA not in compiled normal form: " ^ String.concat "; " errs)
        | [] -> (
            match Fsa.bidirectional_tapes a with
            | [] -> Ok (analyze_unidirectional a ~inputs ~outputs)
            | [ b ] -> (
                let tw = project_two_way a ~b ~inputs ~outputs in
                match Crossing.build ~max_states:max_crossing_states tw with
                | exception Crossing.Too_large msg -> Error msg
                | axx ->
                    let uni_outputs = List.filter (fun o -> o <> b) outputs in
                    let easy_uni =
                      List.find_opt
                        (fun o ->
                          Crossing.exists_accepting_final_read axx (fun r ->
                              not (Symbol.equal r.(o) Symbol.Rend)))
                        uni_outputs
                    in
                    let verdict =
                      match easy_uni with
                      | Some o ->
                          Unlimited
                            (Printf.sprintf
                               "easy: accepts with output tape %d short of ⊣" o)
                      | None ->
                          if
                            List.mem b outputs
                            && Crossing.exists_all_synthetic_accepting_arc axx
                          then
                            Unlimited
                              "easy: accepts without truly scanning the \
                               bidirectional output tape to ⊣"
                          else if
                            List.mem b outputs
                            && Crossing.exists_quiet_cycle axx
                                 ~require_write:false
                          then
                            Unlimited
                              "hard: a reading-free crossing loop pumps the \
                               bidirectional output tape"
                          else if
                            List.mem b outputs && uni_outputs <> []
                            && Crossing.exists_quiet_cycle axx
                                 ~require_write:true
                          then
                            Unlimited
                              "hard: a reading-free crossing loop advances a \
                               unidirectional output tape"
                          else if
                            List.mem b inputs && uni_outputs <> []
                            && returning_loop tw ~max_window
                          then
                            Unlimited
                              "hard: a reading-free returning excursion of \
                               the bidirectional head writes an output \
                               (Fig. 9 loop)"
                          else begin
                            let size = Fsa.size a in
                            let axx_size = max 1 (Crossing.num_arcs axx) in
                            let uni_inputs =
                              List.filter (fun i -> i <> b) inputs
                            in
                            if List.mem b outputs then begin
                              (* b is linearly limited via |A''|; the other
                                 outputs quadratically via b. *)
                              let formula =
                                Printf.sprintf "%d · %d · %s · %s" size axx_size
                                  (sum_formula uni_inputs)
                                  (sum_formula uni_inputs)
                              in
                              let eval ns =
                                let rho =
                                  List.fold_left ( + ) 1
                                    (List.map (fun n -> n + 1) ns)
                                in
                                size * axx_size * rho * rho
                              in
                              Limited { formula; eval }
                            end
                            else begin
                              (* b is an input: quadratic in (n_b+2). *)
                              let b_index =
                                (* position of b within the input order *)
                                let rec idx k = function
                                  | [] -> -1
                                  | i :: _ when i = b -> k
                                  | _ :: tl -> idx (k + 1) tl
                                in
                                idx 0 inputs
                              in
                              let formula =
                                Printf.sprintf "%d · (n_b+2) · %s" size
                                  (sum_formula uni_inputs)
                              in
                              let eval ns =
                                let nb = List.nth ns b_index in
                                let rho =
                                  List.fold_left ( + ) 1
                                    (List.filteri (fun i _ -> List.nth inputs i <> b) ns
                                    |> List.map (fun n -> n + 1))
                                in
                                size * (nb + 2) * rho
                              in
                              Limited { formula; eval }
                            end
                          end
                    in
                    Ok verdict)
            | _ ->
                Error
                  "not right-restricted: more than one bidirectional tape \
                   (limitation is undecidable in general, Theorem 5.1)"))

(* Verdict memo, keyed on the FSA's physical identity plus the analysis
   parameters.  The crossing-sequence construction behind a
   right-restricted verdict costs milliseconds — more than the rest of a
   typical query put together — and the Eval planner re-certifies the
   same compile-memoized automaton on every run.  Verdicts are immutable
   (the [eval] closure captures only the automaton's sizes), so caching
   is purely a time win.  Identity keying is observable in the stats: a
   structurally-equal clone is a fresh miss, because deep-comparing
   whole automata per probe is the pathology the keying avoids. *)
let cache =
  Memo.create ~name:"limitation" ~bound:128
    ~hash:(fun (a, _, _, _, _) -> Fsa.size_hash a)
    ~equal:(fun (f, mcs, mw, ins, outs) (f', mcs', mw', ins', outs') ->
      f == f' && mcs = mcs' && mw = mw' && ins = ins' && outs = outs')
    ()

type stats = Memo.stats = { hits : int; misses : int; evictions : int; entries : int; bound : int }

let cache_stats () = Memo.stats cache
let clear_cache () = Memo.clear cache

let analyze ?(max_crossing_states = 50000) ?(max_window = 12) (a : Fsa.t)
    ~inputs ~outputs =
  Memo.find_or_add cache (a, max_crossing_states, max_window, inputs, outputs)
    (fun _ -> analyze_raw ~max_crossing_states ~max_window a ~inputs ~outputs)

let limits a ~inputs ~outputs =
  match analyze a ~inputs ~outputs with Ok (Limited _) -> true | _ -> false
