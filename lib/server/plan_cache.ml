module F = Strdb_calculus.Formula
module A = Strdb_util.Alphabet
module Plan = Strdb_algebra.Plan
module Eval = Strdb_algebra.Eval
module Store = Strdb_store.Store
module Memo = Strdb_util.Memo

(* The cache key: everything [Eval.prepare] reads that can differ
   between two requests against one server.  The alphabet is keyed by
   its character string (alphabets are small and structural), the
   formula and free list structurally (that is what two textually
   different but equal requests share), and the store by its unique
   [Store.id] stamp — a plan prepared with a store embeds that store's
   pruned survivor tuples, so plans of different stores are not
   interchangeable even over equal databases, and deep-comparing
   posting arrays inside a key is out of the question. *)
type key = { sigma : string; phi : F.t; free : string list; store : int }

let key ~sigma ?store ~free phi =
  {
    sigma = String.of_seq (List.to_seq (A.chars sigma));
    phi;
    free;
    store = (match store with None -> -1 | Some st -> Store.id st);
  }

type stats = Memo.stats = { hits : int; misses : int; evictions : int; entries : int; bound : int }

(* One memo per server, shared by its session workers; not registered,
   because STATS reports it under its own keys. *)
type t = (key, Plan.t) Memo.t

let create ?bound () =
  Memo.create
    ~bound:
      (match bound with
      | Some b -> b
      | None -> Strdb_util.Knob.int "STRDB_PLAN_CACHE" ~default:128 ~off:0)
    ~hash:Hashtbl.hash
    ~equal:(fun a b -> compare a b = 0)
    ()

let find = Memo.find
let add t k p = ignore (Memo.add t k p)
let stats = Memo.stats

(* A disabled cache (bound 0) still counts misses, so benches can
   report cold-path traffic through the same telemetry. *)
let prepare t ?store sigma db ~free phi =
  let k = key ~sigma ?store ~free phi in
  let cached =
    match find t k with
    (* The key deliberately omits the database (a server serves one);
       refuse a hit whose plan captured a different database rather
       than silently answering from the wrong data. *)
    | Some p when Plan.database p == db -> Some p
    | _ -> None
  in
  match cached with
  | Some p -> Ok p
  | None -> (
      match Eval.prepare ?store sigma db ~free phi with
      | Error _ as e -> e
      | Ok p ->
          add t k p;
          Ok p)
