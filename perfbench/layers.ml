(* Layer-by-layer replays of a request, timed from outside the engine.

   Nothing here changes the engine: every span wraps a call into a
   layer's public functions.  [request] is the server's request path
   (parse → plan-cache lookup → prepare on a miss → execute → row
   formatting).  [prepare_replica] repeats [Eval.prepare]'s stages in
   planner order — index probes, cost ordering, fusion, certification,
   annotation — so each stage's time is visible; [execute_replica] runs
   a plan's steps one at a time on the rows the plan's own prefixes
   produce.  Comparing the replicas with the real calls ([coverage] in
   the traced run) keeps them honest. *)

open Strdb
module F = Formula
module S = Sformula

let clear_engine_caches () =
  Compile.clear_cache ();
  Runtime.clear_cache ();
  Optimize.clear_cache ();
  Product.clear_cache ();
  Limitation.clear_cache ();
  Generate.clear_spec_cache ()

let maybe_span tr name f = match tr with None -> f () | Some t -> Trace.span t name f

(* ------------------------------------------------------ request path *)

type path = {
  sigma : Alphabet.t;
  db : Database.t;
  store : Store.t option;
  cache : Plan_cache.t option;  (** [None]: no plan cache (library traffic). *)
}

(* One request as the server answers it, with an optional tracer. *)
let request ?tr p (q : Mix.query) =
  let sp name f = maybe_span tr name f in
  let phi = if q.Mix.wire = "" then q.Mix.phi else sp "parse" (fun () -> Sparser.formula q.Mix.wire) in
  let free = F.free_vars phi in
  let prepare () = sp "prepare" (fun () -> Eval.prepare ?store:p.store p.sigma p.db ~free phi) in
  let plan =
    match p.cache with
    | None -> prepare ()
    | Some cache -> (
        let key, hit =
          sp "plan_cache.lookup" (fun () ->
              let key = Plan_cache.key ~sigma:p.sigma ?store:p.store ~free phi in
              (key, Plan_cache.find cache key))
        in
        match hit with
        | Some plan when Plan.database plan == p.db -> Ok plan
        | _ ->
            let r = prepare () in
            Result.iter (Plan_cache.add cache key) r;
            r)
  in
  match plan with
  | Error e -> Error e
  | Ok plan -> (
      match sp "execute" (fun () -> Eval.execute plan) with
      | Error e -> Error e
      | Ok rows ->
          ignore (sp "format" (fun () -> List.map (String.concat "\t") rows));
          Ok rows)

(* ---------------------------------------------------------- prepare *)

let skeleton phi =
  let rec strip = function F.Exists (_, a) -> strip a | body -> body in
  let rec conjuncts = function F.And (a, b) -> conjuncts a @ conjuncts b | c -> [ c ] in
  conjuncts (strip phi)

(* [Eval.prepare]'s calls into Compile, Optimize, Factors/Store,
   Product, Limitation and the annotation helpers, in the planner's
   order, each under a span named after its stage. *)
let prepare_replica tr ?store sigma db phi =
  let span name f = Trace.span tr name f in
  let compile ~vars s =
    span "compile" (fun () -> try Some (Compile.compile sigma ~vars s) with _ -> None)
  in
  let optimized fsa =
    span "optimize" (fun () -> if Runtime.enabled () then Optimize.optimized fsa else fsa)
  in
  let annotate_fsa ~kernel fsa =
    let fsa = optimized fsa in
    span "annotate" (fun () ->
        ignore
          (Optimize.describe fsa
          ^ match kernel with `Accepts -> Runtime.kernel_name fsa | `Generate -> ""))
  in
  let annotate ~vars ~kernel s = Option.iter (annotate_fsa ~kernel) (compile ~vars s) in
  let conjs = skeleton phi in
  let rels = List.filter_map (function F.Rel (r, a) -> Some (r, a) | _ -> None) conjs in
  let strs = List.filter_map (function F.Str s -> Some s | _ -> None) conjs in
  let bound = Hashtbl.create 16 in
  let is_bound v = Hashtbl.mem bound v in
  let bind vs = List.iter (fun v -> Hashtbl.replace bound v ()) vs in
  (* 1. joins, behind σ-index probes *)
  List.iter
    (fun (r, args) ->
      (match store with
      | Some st when Store.database st == db && Store.enabled () && Store.indexed st r ->
          let cand = ref None in
          List.iteri
            (fun j v ->
              List.iter
                (fun s ->
                  if S.vars s = [ v ] then
                    match compile ~vars:[ v ] s with
                    | None -> ()
                    | Some fsa -> (
                        let fsa = optimized fsa in
                        let ids =
                          span "probe" (fun () ->
                              match Factors.necessary ~q:(Store.q st) fsa with
                              | Factors.Top -> None
                              | Factors.Factors fs ->
                                  Store.candidates st ~rel:r ~col:j ~factors:fs)
                        in
                        match (ids, !cand) with
                        | None, _ -> ()
                        | Some ids, None -> cand := Some ids
                        | Some ids, Some prev ->
                            cand := Some (span "probe" (fun () -> Store.intersect_ids prev ids))))
                strs)
            args;
          Option.iter
            (fun ids -> ignore (span "probe.select" (fun () -> Store.select st ~rel:r ~ids)))
            !cand
      | _ -> ());
      bind args)
    rels;
  (* 2. cost-ordered filters (fused) and certified generators *)
  let cost ~vars s =
    match compile ~vars s with
    | None -> (max_int, max_int, max_int)
    | Some fsa ->
        let fsa = optimized fsa in
        span "optimize" (fun () ->
            (Optimize.shape_rank (Optimize.shape_of fsa), fsa.Fsa.num_states, Fsa.size fsa))
  in
  let by_cost vars_of l =
    if not (Optimize.enabled ()) then l
    else
      List.stable_sort
        (fun a b -> compare (cost ~vars:(vars_of a) a) (cost ~vars:(vars_of b) b))
        l
  in
  let fuse_filters filters =
    if not (Product.enabled ()) then List.map (fun s -> ([ s ], None)) filters
    else
      let close cur groups =
        match cur with [], _ -> groups | members, fused -> (List.rev members, fused) :: groups
      in
      let groups, last =
        List.fold_left
          (fun (groups, cur) s ->
            match compile ~vars:(S.vars s) s with
            | None -> (close ([ s ], None) (close cur groups), ([], None))
            | Some fsa -> (
                let cf = (fsa, S.vars s) in
                match cur with
                | [], _ | _, None -> (close cur groups, ([ s ], Some cf))
                | members, Some pf -> (
                    match span "fuse" (fun () -> Product.fuse pf cf) with
                    | Some pf' -> (groups, (s :: members, Some pf'))
                    | None -> (close cur groups, ([ s ], Some cf)))))
          ([], ([], None))
          filters
      in
      List.rev (close last groups)
  in
  let unbound vs = List.filter (fun v -> not (is_bound v)) vs in
  let remaining = ref strs and stuck = ref false in
  while !remaining <> [] && not !stuck do
    let filters, gens = List.partition (fun s -> List.for_all is_bound (S.vars s)) !remaining in
    let filters = by_cost S.vars filters in
    let gens = by_cost (fun s -> List.filter is_bound (S.vars s) @ unbound (S.vars s)) gens in
    if filters <> [] then begin
      List.iter
        (function
          | [ s ], _ ->
              annotate ~vars:(S.vars s) ~kernel:`Accepts s;
              ignore (compile ~vars:(S.vars s) s)
          | _, Some (pfsa, _) -> annotate_fsa ~kernel:`Accepts pfsa
          | _ -> ())
        (fuse_filters filters);
      remaining := gens
    end
    else begin
      let rec attempt = function
        | [] -> stuck := true
        | s :: others -> (
            let known = List.filter is_bound (S.vars s) and unknown = unbound (S.vars s) in
            let gen_frame = known @ unknown in
            let certified =
              match compile ~vars:gen_frame s with
              | None -> None
              | Some fsa -> (
                  let nk = List.length known in
                  match
                    span "certify" (fun () ->
                        Limitation.analyze fsa ~inputs:(List.init nk Fun.id)
                          ~outputs:(List.init (List.length unknown) (fun i -> nk + i)))
                  with
                  | Ok (Limitation.Limited _) -> Some fsa
                  | _ -> None)
            in
            match certified with
            | None -> attempt others
            | Some fsa ->
                let fsa, pushed =
                  if not (Product.enabled ()) then (fsa, [])
                  else
                    List.fold_left
                      (fun (acc, pushed) s' ->
                        if s' == s || not (List.for_all (fun v -> List.mem v gen_frame) (S.vars s'))
                        then (acc, pushed)
                        else
                          match compile ~vars:(S.vars s') s' with
                          | None -> (acc, pushed)
                          | Some fb -> (
                              match
                                span "fuse" (fun () ->
                                    Product.fuse (acc, gen_frame) (fb, S.vars s'))
                              with
                              | Some (p, frame) when frame = gen_frame -> (p, s' :: pushed)
                              | _ -> (acc, pushed)))
                      (fsa, []) gens
                in
                if pushed = [] then annotate ~vars:gen_frame ~kernel:`Generate s
                else annotate_fsa ~kernel:`Generate fsa;
                bind unknown;
                remaining :=
                  List.filter (fun s' -> (not (s' == s)) && not (List.memq s' pushed)) !remaining)
      in
      attempt gens
    end
  done

(* ---------------------------------------------------------- execute *)

type counts = {
  mutable join_out : int;
  mutable filter_in : int;
  mutable filter_out : int;
  mutable gen_in : int;
  mutable gen_out : int;
}

let new_counts () = { join_out = 0; filter_in = 0; filter_out = 0; gen_in = 0; gen_out = 0 }

let columns_after cols = function
  | Plan.Join { args; _ } ->
      cols @ List.sort_uniq compare (List.filter (fun v -> not (List.mem v cols)) args)
  | Plan.Gen { unknown; _ } -> cols @ unknown
  | Plan.FilterFsa _ | Plan.NegFilter _ -> cols

let position cols v =
  let rec go i = function
    | [] -> invalid_arg ("Layers: unbound column " ^ v)
    | c :: rest -> if c = v then i else go (i + 1) rest
  in
  go 0 cols

(* [Eval]'s quantifier-free row predicate, on the plan's own checker. *)
let rec holds (p : Plan.t) cols row = function
  | F.Str s -> p.Plan.checker s (List.map (fun v -> (v, row.(position cols v))) (S.vars s))
  | F.Rel (r, args) -> Database.mem p.Plan.db r (List.map (fun v -> row.(position cols v)) args)
  | F.And (a, b) -> holds p cols row a && holds p cols row b
  | F.Not a -> not (holds p cols row a)
  | F.Exists _ -> invalid_arg "Layers: quantifier in a row predicate"

(* Rows and timing of a plan prefix, via [Eval.execute] on
   [{plan with steps = prefix; free = columns bound so far}]. *)
let prefix_rows (p : Plan.t) steps cols =
  match Eval.execute { p with Plan.steps; free = cols } with
  | Ok rows -> List.map Array.of_list rows
  | Error e -> failwith ("Layers: plan prefix failed: " ^ e)

let prefix_time (p : Plan.t) steps =
  snd (Clock.time (fun () -> ignore (Eval.execute { p with Plan.steps; free = [] })))

(* Each step of [p] under a span of its own.  Filters, generators and
   negations are timed on the rows the preceding prefix produces; a
   join's time is the difference between executing the prefix with and
   without it (projected on no column, so the projection costs nothing),
   recorded as a span of that length. *)
let execute_replica tr counts (p : Plan.t) =
  let span name f = Trace.span tr name f in
  let rec go prefix cols = function
    | [] -> cols
    | step :: rest ->
        let rows = prefix_rows p prefix cols in
        let cols' = columns_after cols step in
        (match step with
        | Plan.Join _ ->
            let with_ = prefix_time p (prefix @ [ step ]) and without = prefix_time p prefix in
            Trace.derived tr "join" (Float.max 0.0 (with_ -. without));
            counts.join_out <- counts.join_out + List.length (prefix_rows p (prefix @ [ step ]) cols')
        | Plan.FilterFsa { fsa; frame } ->
            let idx = List.map (position cols) frame in
            let tuples = List.map (fun row -> List.map (fun i -> row.(i)) idx) rows in
            let keep =
              span "filter" (fun () ->
                  match (rows, idx) with
                  | [], _ -> [||]
                  | _, [] -> Array.make (List.length rows) (Run.accepts fsa [])
                  | _ -> Run.accepts_batch fsa tuples)
            in
            counts.filter_in <- counts.filter_in + List.length rows;
            counts.filter_out <-
              counts.filter_out + Array.fold_left (fun n b -> if b then n + 1 else n) 0 keep
        | Plan.Gen { fsa; known; bound; _ } ->
            let idx = List.map (position cols) known in
            let out =
              span "generate" (fun () ->
                  Eval.dedup_rows
                    (List.concat_map
                       (fun row ->
                         let ins = List.map (fun i -> row.(i)) idx in
                         let max_len = bound.Limitation.eval (List.map String.length ins) in
                         List.map
                           (fun o -> Array.append row (Array.of_list o))
                           (Generate.outputs fsa ~inputs:ins ~max_len))
                       rows))
            in
            counts.gen_in <- counts.gen_in + List.length rows;
            counts.gen_out <- counts.gen_out + List.length out
        | Plan.NegFilter c ->
            ignore (span "negfilter" (fun () -> List.filter (fun row -> holds p cols row c) rows)));
        go (prefix @ [ step ]) cols' rest
  in
  let cols = go [] [] p.Plan.steps in
  let rows = prefix_rows p p.Plan.steps cols in
  let free_idx = List.map (position cols) p.Plan.free in
  ignore
    (span "project" (fun () ->
         List.sort_uniq compare (List.map (fun row -> List.map (fun i -> row.(i)) free_idx) rows)))
