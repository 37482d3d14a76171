(* Memo: the one bounded, hashed memo every engine cache is built on —
   LRU eviction, the zero bound, raising computations, clear, identity
   keys, a model check against a reference LRU and racing domains — and
   Knob, the one reader of the engine's environment switches. *)
open Strdb
open Helpers

let structural bound =
  Memo.create ~bound ~hash:Hashtbl.hash ~equal:(fun a b -> compare a b = 0) ()

let unit_tests =
  [
    tc "LRU eviction drops exactly the least-recently-used entry" (fun () ->
        let m = structural 3 in
        List.iter (fun k -> ignore (Memo.add m k (k * 10))) [ 1; 2; 3 ];
        ignore (Memo.find m 1) (* 2 is now the stalest *);
        ignore (Memo.add m 4 40);
        check_bool "2 evicted" true (Memo.find m 2 = None);
        List.iter
          (fun k -> check_bool (string_of_int k) true (Memo.find m k = Some (k * 10)))
          [ 1; 3; 4 ];
        let s = Memo.stats m in
        check_int "one eviction" 1 s.Memo.evictions;
        check_int "bounded" 3 s.Memo.entries);
    (* Regression: the compile memo used to evict by Hashtbl.reset when
       full, dropping every entry at once and severing the physical
       identity chains built on top of it. *)
    tc "eviction drops one cold entry, not the table" (fun () ->
        let m = structural 16 in
        let hot_key = "hot" in
        let hot = Memo.find_or_add m hot_key (fun k -> Bytes.of_string k) in
        for i = 1 to 40 do
          ignore
            (Memo.find_or_add m
               (String.init 6 (fun j -> if i land (1 lsl j) <> 0 then 'a' else 'b'))
               Bytes.of_string);
          (* Touch the hot entry so LRU keeps it while cold ones go. *)
          if Memo.find_or_add m hot_key Bytes.of_string != hot then
            Alcotest.failf "hot entry evicted at insertion %d" i
        done;
        let s = Memo.stats m in
        check_int "evictions happened" (41 - 16) s.Memo.evictions;
        check_int "memo stayed bounded" 16 s.Memo.entries);
    tc "bound 0 retains nothing and counts every miss" (fun () ->
        let m = structural 0 in
        for _ = 1 to 3 do
          check_int "computed" 7 (Memo.find_or_add m "k" (fun _ -> 7))
        done;
        check_int "add returns its value" 8 (Memo.add m "k" 8);
        check_bool "nothing found" true (Memo.find m "k" = None);
        let s = Memo.stats m in
        check_int "no entries" 0 s.Memo.entries;
        check_int "no hits" 0 s.Memo.hits;
        check_int "every lookup missed" 4 s.Memo.misses;
        check_int "bound" 0 s.Memo.bound);
    tc "a compute function that raises caches nothing" (fun () ->
        let m = structural 4 in
        (match Memo.find_or_add m "k" (fun _ -> failwith "boom") with
        | _ -> Alcotest.fail "the exception was swallowed"
        | exception Failure _ -> ());
        check_int "nothing cached" 0 (Memo.stats m).Memo.entries;
        check_int "the next call computes" 1 (Memo.find_or_add m "k" (fun _ -> 1)));
    tc "clear zeroes the entries and the counters" (fun () ->
        let m = structural 2 in
        List.iter (fun k -> ignore (Memo.find_or_add m k Fun.id)) [ 1; 2; 3; 3 ];
        Memo.clear m;
        check_bool "counters and entries zeroed" true
          (Memo.stats m
          = { Memo.hits = 0; misses = 0; evictions = 0; entries = 0; bound = 2 });
        check_bool "entries gone" true (Memo.find m 3 = None));
    tc "an identity memo counts a structural clone as a miss" (fun () ->
        let a =
          Compile.compile Alphabet.binary ~vars:[ "x"; "y" ] (Combinators.prefix "x" "y")
        in
        let clone =
          Fsa.make ~sigma:a.Fsa.sigma ~arity:a.Fsa.arity ~num_states:a.Fsa.num_states
            ~start:a.Fsa.start ~finals:(Fsa.finals_list a)
            ~transitions:(Array.to_list a.Fsa.transitions)
        in
        check_bool "structurally equal" true (clone = a);
        let m = Memo.create ~bound:8 ~hash:Fsa.size_hash ~equal:( == ) () in
        let v = Memo.find_or_add m a (fun _ -> ref 0) in
        check_bool "same automaton hits" true (Memo.find_or_add m a (fun _ -> ref 1) == v);
        check_bool "clone gets its own value" true
          (Memo.find_or_add m clone (fun _ -> ref 2) != v);
        let s = Memo.stats m in
        check_int "clone is a miss" 2 s.Memo.misses;
        check_int "one hit" 1 s.Memo.hits;
        check_int "two entries" 2 s.Memo.entries);
  ]

(* ----------------------------------------------------- model check *)

type op = Find of int | Add of int * int | Find_or_add of int * int | Clear

let show_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find_or_add (k, v) -> Printf.sprintf "find_or_add %d %d" k v
  | Clear -> "clear"

let arb_schedule =
  let open QCheck.Gen in
  let key = int_bound 7 and value = int_bound 99 in
  let op =
    frequency
      [
        (4, map (fun k -> Find k) key);
        (3, map2 (fun k v -> Add (k, v)) key value);
        (4, map2 (fun k v -> Find_or_add (k, v)) key value);
        (1, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun (bound, ops) ->
      Printf.sprintf "bound %d: %s" bound (String.concat "; " (List.map show_op ops)))
    (pair (int_bound 4) (list_size (int_bound 60) op))

(* The reference: an association list, most recently used first. *)
type model = {
  mutable lru : (int * int) list;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let model_find md k =
  match List.assoc_opt k md.lru with
  | Some v ->
      md.hits <- md.hits + 1;
      md.lru <- (k, v) :: List.remove_assoc k md.lru;
      Some v
  | None ->
      md.misses <- md.misses + 1;
      None

let model_add md bound k v =
  match List.assoc_opt k md.lru with
  | Some v' ->
      md.lru <- (k, v') :: List.remove_assoc k md.lru;
      v'
  | None ->
      if bound > 0 then begin
        if List.length md.lru = bound then begin
          md.lru <- List.filteri (fun i _ -> i < bound - 1) md.lru;
          md.evictions <- md.evictions + 1
        end;
        md.lru <- (k, v) :: md.lru
      end;
      v

let model_step md bound = function
  | Find k -> model_find md k
  | Add (k, v) -> Some (model_add md bound k v)
  | Find_or_add (k, v) -> (
      match model_find md k with Some v -> Some v | None -> Some (model_add md bound k v))
  | Clear ->
      md.lru <- [];
      md.hits <- 0;
      md.misses <- 0;
      md.evictions <- 0;
      None

let memo_step m = function
  | Find k -> Memo.find m k
  | Add (k, v) -> Some (Memo.add m k v)
  | Find_or_add (k, v) -> Some (Memo.find_or_add m k (fun _ -> v))
  | Clear ->
      Memo.clear m;
      None

let model_props =
  [
    Test_qcheck.prop ~count:300 "Memo ≡ reference LRU on random schedules" arb_schedule
      (fun (bound, ops) ->
        let m = structural bound in
        let md = { lru = []; hits = 0; misses = 0; evictions = 0 } in
        List.for_all
          (fun op ->
            let got = memo_step m op and want = model_step md bound op in
            let s = Memo.stats m in
            got = want
            && s
               = {
                   Memo.hits = md.hits;
                   misses = md.misses;
                   evictions = md.evictions;
                   entries = List.length md.lru;
                   bound;
                 }
            && s.Memo.entries <= bound)
          ops);
  ]

(* ----------------------------------------------------- concurrency *)

let concurrency_tests =
  [
    tc "racing domains share one value per key" (fun () ->
        let m = structural 64 in
        let keys = Array.init 4000 (fun i -> i mod 16) in
        let got =
          Pool.map_array (Pool.get 4)
            (fun k ->
              Memo.find_or_add m k (fun k ->
                  (* widen the window between the miss and the insert *)
                  for _ = 1 to 200 do
                    Domain.cpu_relax ()
                  done;
                  ref k))
            keys
        in
        let first = Array.make 16 None in
        Array.iteri
          (fun i v ->
            let k = keys.(i) in
            check_int "value of its key" k !v;
            match first.(k) with
            | None -> first.(k) <- Some v
            | Some w -> if v != w then Alcotest.failf "key %d: two values" k)
          got;
        let s = Memo.stats m in
        check_int "every lookup counted" 4000 (s.Memo.hits + s.Memo.misses);
        check_int "one entry per key" 16 s.Memo.entries);
  ]

(* ------------------------------------------------------------- knobs *)

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect ~finally:(fun () -> Unix.putenv name (Option.value old ~default:"")) f

let knob_tests =
  let var = "STRDB_TEST_KNOB" in
  [
    tc "flag spellings" (fun () ->
        List.iter
          (fun (value, default, want) ->
            with_env var value (fun () ->
                check_bool (Printf.sprintf "%S (default %b)" value default) want
                  (Knob.flag var ~default)))
          [
            ("", true, true);
            ("", false, false);
            ("  ", false, false);
            ("0", true, false);
            ("false", true, false);
            (" Off ", true, false);
            ("NO\n", true, false);
            ("1", false, true);
            ("on", false, true);
            ("yes", false, true);
            ("2", false, true);
          ]);
    tc "count spellings: plan-cache style (off is 0)" (fun () ->
        List.iter
          (fun (value, want) ->
            with_env var value (fun () ->
                check_int (Printf.sprintf "%S" value) want
                  (Knob.int var ~default:128 ~off:0)))
          [
            ("", 128);
            ("64", 64);
            (" 64 ", 64);
            ("0", 0);
            ("off", 0);
            ("False", 0);
            ("no", 0);
            ("-1", 128);
            ("lots", 128);
            ("on", 128);
          ]);
    tc "count spellings: domain style (off is 1)" (fun () ->
        List.iter
          (fun (value, want) ->
            with_env var value (fun () ->
                check_int (Printf.sprintf "%S" value) want
                  (Knob.int var ~default:1 ~off:1)))
          [ ("", 1); ("4", 4); (" 2\t", 2); ("0", 1); ("OFF", 1); ("-4", 1); ("x", 1) ]);
  ]

let suites =
  [
    ("util.memo", unit_tests);
    ("util.memo.model", model_props);
    ("util.memo.concurrency", concurrency_tests);
    ("util.knob", knob_tests);
  ]
