module A = Strdb_util.Alphabet
module Db = Strdb_calculus.Database

(* ------------------------------------------------------------- toggle *)

let enabled_flag = Atomic.make (Strdb_util.Knob.flag "STRDB_INDEX" ~default:true)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ------------------------------------------------------------- layout *)

(* One int32 pool per column holds every gram's postings in one
   container chosen by density, as in the Roaring layout: a gram that
   occurs in at least 1/32 of the column's [n] rows — [card.(g) >=
   words], with [words = ⌈n/32⌉] — keeps a row bitmap of [words]
   32-bit words (bit [i land 31] of word [i lsr 5] is row [i]), which
   takes no more bytes than the [card] int32 ids it replaces; every
   other gram keeps its ids ascending (rows are scanned in id order and
   deduplicated per row, so each list is sorted and duplicate-free by
   construction).  [offsets.(g)] is where gram [g]'s container starts,
   so a probe is array reads and word operations, no hashing. *)
type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type col_index = {
  words : int;  (* ⌈n/32⌉: a bitmap's length, and the density threshold *)
  card : int array;  (* gram ↦ rows containing it *)
  offsets : int array;  (* gram ↦ start of its container in [pool] *)
  pool : int32s;
}

type rel_index = {
  rows : string array array;  (* row id ↦ tuple, Database.find order *)
  cols : col_index array;
}

type probe_stats = { probes : int; candidate_rows : int; scanned_rows : int }

type t = {
  id : int;  (* process-unique stamp; see [id] *)
  db : Db.t;
  sigma : A.t;
  q : int;
  space : int;  (* |Σ|^q, the dense gram-code space *)
  shift : int;  (* |Σ|^(q-1), the rolling-code modulus *)
  rels : (string, rel_index) Hashtbl.t;
  probes : int Atomic.t;
  candidate_rows : int Atomic.t;
  scanned_rows : int Atomic.t;
}

(* Stores are immutable once built, so a process-unique integer stamp
   is a faithful stand-in for physical identity — unlike the value
   itself it can sit inside a structural cache key (the server's plan
   cache) without dragging deep comparisons of posting arrays along. *)
let next_id = Atomic.make 0

let database t = t.db
let sigma t = t.sigma
let id t = t.id
let q t = t.q
let indexed t r = Hashtbl.mem t.rels r

let row_count t r =
  match Hashtbl.find_opt t.rels r with
  | None -> 0
  | Some ri -> Array.length ri.rows

let posting_entries t =
  Hashtbl.fold
    (fun _ ri acc ->
      Array.fold_left (fun acc c -> Array.fold_left ( + ) acc c.card) acc ri.cols)
    t.rels 0

(* -------------------------------------------------------------- build *)

(* The dense space must stay addressable: clamp q down until |Σ|^q fits
   (q=1 always does — an alphabet never has 2^22 characters). *)
let max_space = 1 lsl 22

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let fit_q base q =
  let q = max 1 q in
  let rec go q = if q > 1 && pow base q > max_space then go (q - 1) else q in
  go q

(* Iterate the rolling gram codes of [s]: [f code] once per window
   (duplicates included; callers dedup with a stamp array). *)
let iter_codes sigma q shift base s f =
  let len = String.length s in
  if len >= q then begin
    let code = ref 0 in
    for j = 0 to len - 1 do
      code := (!code mod shift * base) + A.rank sigma (String.unsafe_get s j);
      if j >= q - 1 then f !code
    done
  end

(* A gram's container is a bitmap when it is non-empty and its [words]
   32-bit words take no more room than its [card] int32 ids would. *)
let is_dense ~words card = card > 0 && card >= words
let dense ci g = is_dense ~words:ci.words ci.card.(g)

let build_col sigma q space shift base rows col =
  let n = Array.length rows in
  let words = (n + 31) / 32 in
  let card = Array.make space 0 in
  let stamp = Array.make space (-1) in
  for i = 0 to n - 1 do
    iter_codes sigma q shift base rows.(i).(col) (fun g ->
        if stamp.(g) <> i then begin
          stamp.(g) <- i;
          card.(g) <- card.(g) + 1
        end)
  done;
  (* prefix sums over container sizes: offsets.(g) = start of gram g's
     container *)
  let offsets = Array.make (space + 1) 0 in
  for g = 1 to space do
    let c = card.(g - 1) in
    offsets.(g) <- offsets.(g - 1) + if is_dense ~words c then words else c
  done;
  let pool =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout offsets.(space)
  in
  Bigarray.Array1.fill pool 0l;
  let ci = { words; card; offsets; pool } in
  let cursor = Array.copy offsets in
  Array.fill stamp 0 space (-1);
  for i = 0 to n - 1 do
    iter_codes sigma q shift base rows.(i).(col) (fun g ->
        if stamp.(g) <> i then begin
          stamp.(g) <- i;
          if dense ci g then begin
            let w = offsets.(g) + (i lsr 5) in
            Bigarray.Array1.unsafe_set pool w
              (Int32.logor
                 (Bigarray.Array1.unsafe_get pool w)
                 (Int32.shift_left 1l (i land 31)))
          end
          else begin
            Bigarray.Array1.unsafe_set pool cursor.(g) (Int32.of_int i);
            cursor.(g) <- cursor.(g) + 1
          end
        end)
  done;
  ci

let create ?q sigma db =
  Db.check_alphabet sigma db;
  let base = A.size sigma in
  let q = fit_q base (Option.value q ~default:3) in
  let space = pow base q in
  let shift = pow base (q - 1) in
  let rels = Hashtbl.create 8 in
  List.iter
    (fun (r, arity) ->
      let rows =
        Array.of_list (List.map Array.of_list (Db.find db r))
      in
      let cols =
        Array.init arity (fun c -> build_col sigma q space shift base rows c)
      in
      Hashtbl.replace rels r { rows; cols })
    (Db.relations db);
  {
    id = Atomic.fetch_and_add next_id 1;
    db;
    sigma;
    q;
    space;
    shift;
    rels;
    probes = Atomic.make 0;
    candidate_rows = Atomic.make 0;
    scanned_rows = Atomic.make 0;
  }

(* ------------------------------------------------------------- probes *)

let probe_stats t =
  {
    probes = Atomic.get t.probes;
    candidate_rows = Atomic.get t.candidate_rows;
    scanned_rows = Atomic.get t.scanned_rows;
  }

let reset_probe_stats t =
  Atomic.set t.probes 0;
  Atomic.set t.candidate_rows 0;
  Atomic.set t.scanned_rows 0

let record t ~candidates ~scanned =
  ignore (Atomic.fetch_and_add t.probes 1);
  ignore (Atomic.fetch_and_add t.candidate_rows candidates);
  ignore (Atomic.fetch_and_add t.scanned_rows scanned)

(* The gram codes of one factor, or None when a character leaves the
   alphabet (nothing stored can contain the factor then).  Factors
   longer than q decompose into all their q-windows; shorter ones carry
   no q-gram constraint and contribute nothing. *)
let codes_of_factor t f acc =
  if not (A.contains_string t.sigma f) then None
  else begin
    let r = ref acc in
    iter_codes t.sigma t.q t.shift (A.size t.sigma) f (fun g ->
        if not (List.mem g !r) then r := g :: !r);
    Some !r
  end

(* Bit tricks on one 32-bit bitmap word held in a non-negative int. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

(* de Bruijn table: the index of the power of two [p < 2^32] is
   [log2.(((p * 0x077CB531) land 0xFFFFFFFF) lsr 27)] *)
let log2 =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.((((1 lsl i) * 0x077CB531) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

(* [f] of each row of word [w] whose bit is set in [x], ascending. *)
let iter_bits w x f =
  let x = ref x in
  while !x <> 0 do
    let low = !x land (- !x) in
    f ((w lsl 5) + log2.(((low * 0x077CB531) land 0xFFFFFFFF) lsr 27));
    x := !x lxor low
  done

let word ci g w =
  Int32.to_int (Bigarray.Array1.unsafe_get ci.pool (ci.offsets.(g) + w))
  land 0xFFFFFFFF

let mem_dense ci g i =
  Int32.to_int (Bigarray.Array1.unsafe_get ci.pool (ci.offsets.(g) + (i lsr 5)))
  land (1 lsl (i land 31))
  <> 0

let id_at ci j = Int32.to_int (Bigarray.Array1.unsafe_get ci.pool j)

(* Rows in every bitmap of [gs] (all dense): AND the words, count the
   surviving bits, then list them. *)
let and_bitmaps ci gs =
  let conj w =
    let x = ref (word ci gs.(0) w) and j = ref 1 in
    while !x <> 0 && !j < Array.length gs do
      x := !x land word ci gs.(!j) w;
      incr j
    done;
    !x
  in
  let count = ref 0 in
  for w = 0 to ci.words - 1 do
    count := !count + popcount (conj w)
  done;
  let out = Array.make !count 0 and k = ref 0 in
  for w = 0 to ci.words - 1 do
    iter_bits w (conj w) (fun i ->
        out.(!k) <- i;
        incr k)
  done;
  out

(* Rows in the id list of sparse [g0] and in each container of [gs]:
   filter the ids in place, by a bit test against a bitmap and by a
   two-pointer merge against another id list. *)
let filter_ids ci g0 gs =
  let lo = ci.offsets.(g0) in
  let cur = Array.init ci.card.(g0) (fun i -> id_at ci (lo + i)) in
  let len = ref (Array.length cur) in
  Array.iter
    (fun g ->
      let k = ref 0 in
      if dense ci g then
        for i = 0 to !len - 1 do
          if mem_dense ci g cur.(i) then begin
            cur.(!k) <- cur.(i);
            incr k
          end
        done
      else begin
        let i = ref 0 and j = ref ci.offsets.(g) in
        let hi = !j + ci.card.(g) in
        while !i < !len && !j < hi do
          let a = cur.(!i) and b = id_at ci !j in
          if a = b then begin
            cur.(!k) <- a;
            incr k;
            incr i;
            incr j
          end
          else if a < b then incr i
          else incr j
        done
      end;
      len := !k)
    gs;
  if !len = Array.length cur then cur else Array.sub cur 0 !len

let intersect_ids a b =
  let out = Array.make (min (Array.length a) (Array.length b)) 0 in
  let k = ref 0 and i = ref 0 and j = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    if a.(!i) = b.(!j) then begin
      out.(!k) <- a.(!i);
      incr k;
      incr i;
      incr j
    end
    else if a.(!i) < b.(!j) then incr i
    else incr j
  done;
  Array.sub out 0 !k

let lookup t ~rel ~col =
  match Hashtbl.find_opt t.rels rel with
  | None -> None
  | Some ri ->
      if col < 0 || col >= Array.length ri.cols then None
      else Some (ri, ri.cols.(col))

let candidates t ~rel ~col ~factors =
  match lookup t ~rel ~col with
  | None -> None
  | Some (ri, ci) -> (
      let scanned = Array.length ri.rows in
      let codes =
        List.fold_left
          (fun acc f ->
            match acc with
            | None -> None
            | Some acc -> codes_of_factor t f acc)
          (Some []) factors
      in
      match codes with
      | None ->
          (* some factor cannot occur in any stored string *)
          record t ~candidates:0 ~scanned;
          Some [||]
      | Some [] -> None (* ⊤: no usable q-gram constraint *)
      | Some codes ->
          (* smallest container first: every later step is bounded by
             the running candidate count, and since density grows with
             the count, a dense smallest container means all are dense *)
          let gs =
            Array.of_list
              (List.sort (fun a b -> compare ci.card.(a) ci.card.(b)) codes)
          in
          let ids =
            if dense ci gs.(0) then and_bitmaps ci gs
            else filter_ids ci gs.(0) (Array.sub gs 1 (Array.length gs - 1))
          in
          record t ~candidates:(Array.length ids) ~scanned;
          Some ids)

let candidates_atleast t ~rel ~col ~factors ~min_hits =
  match lookup t ~rel ~col with
  | None -> None
  | Some (ri, ci) ->
      if min_hits <= 0 then None
      else begin
        let scanned = Array.length ri.rows in
        (* distinct exact-length grams only: the q-gram-lemma threshold
           counts distinct pattern grams *)
        let codes = ref [] in
        List.iter
          (fun f ->
            if String.length f = t.q && A.contains_string t.sigma f then
              iter_codes t.sigma t.q t.shift (A.size t.sigma) f (fun g ->
                  if not (List.mem g !codes) then codes := g :: !codes))
          factors;
        if List.length !codes < min_hits then begin
          record t ~candidates:0 ~scanned;
          Some [||]
        end
        else begin
          let hits = Array.make scanned 0 in
          let hit i = hits.(i) <- hits.(i) + 1 in
          List.iter
            (fun g ->
              if dense ci g then
                for w = 0 to ci.words - 1 do
                  iter_bits w (word ci g w) hit
                done
              else
                let lo = ci.offsets.(g) in
                for j = lo to lo + ci.card.(g) - 1 do
                  hit (id_at ci j)
                done)
            !codes;
          let count = ref 0 in
          Array.iter (fun h -> if h >= min_hits then incr count) hits;
          let out = Array.make !count 0 in
          let k = ref 0 in
          Array.iteri
            (fun i h ->
              if h >= min_hits then begin
                out.(!k) <- i;
                incr k
              end)
            hits;
          record t ~candidates:!count ~scanned;
          Some out
        end
      end

let select t ~rel ~ids =
  match Hashtbl.find_opt t.rels rel with
  | None -> raise (Db.Schema_error ("Store.select: unknown relation " ^ rel))
  | Some ri ->
      List.map
        (fun i ->
          if i < 0 || i >= Array.length ri.rows then
            invalid_arg "Store.select: row id out of range"
          else Array.to_list ri.rows.(i))
        (Array.to_list ids)

let grams t s =
  let acc = ref [] in
  iter_codes t.sigma t.q t.shift (A.size t.sigma) s (fun g ->
      if not (List.mem g !acc) then acc := g :: !acc);
  let base = A.size t.sigma in
  let decode g =
    String.init t.q (fun i ->
        A.nth t.sigma (g / pow base (t.q - 1 - i) mod base))
  in
  List.sort compare (List.map decode !acc)
