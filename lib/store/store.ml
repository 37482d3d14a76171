module A = Strdb_util.Alphabet
module Db = Strdb_calculus.Database

(* ------------------------------------------------------------- toggle *)

let enabled_flag = Atomic.make (Strdb_util.Knob.flag "STRDB_INDEX" ~default:true)
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* ------------------------------------------------------------- layout *)

(* One posting pool per column: [postings] holds the row ids of gram 0,
   then gram 1, … — [offsets.(g) .. offsets.(g+1) - 1] is gram [g]'s
   slice, ascending (rows are scanned in id order and deduplicated per
   row, so each slice is sorted and duplicate-free by construction). *)
type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type col_index = { offsets : int array; postings : int32s }

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
      Array.fold_left
        (fun acc c -> acc + Bigarray.Array1.dim c.postings)
        acc ri.cols)
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

let build_col sigma q space shift base rows col =
  let n = Array.length rows in
  let counts = Array.make (space + 1) 0 in
  let stamp = Array.make space (-1) in
  for i = 0 to n - 1 do
    iter_codes sigma q shift base rows.(i).(col) (fun g ->
        if stamp.(g) <> i then begin
          stamp.(g) <- i;
          counts.(g) <- counts.(g) + 1
        end)
  done;
  (* prefix sums: offsets.(g) = start of gram g's slice *)
  let offsets = Array.make (space + 1) 0 in
  for g = 1 to space do
    offsets.(g) <- offsets.(g - 1) + counts.(g - 1)
  done;
  let total = offsets.(space) in
  let postings = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout total in
  let cursor = Array.copy offsets in
  Array.fill stamp 0 space (-1);
  for i = 0 to n - 1 do
    iter_codes sigma q shift base rows.(i).(col) (fun g ->
        if stamp.(g) <> i then begin
          stamp.(g) <- i;
          Bigarray.Array1.unsafe_set postings cursor.(g) (Int32.of_int i);
          cursor.(g) <- cursor.(g) + 1
        end)
  done;
  { offsets; postings }

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

let slice ci g = (ci.offsets.(g), ci.offsets.(g + 1))

let slice_to_array ci g =
  let lo, hi = slice ci g in
  Array.init (hi - lo) (fun i ->
      Int32.to_int (Bigarray.Array1.unsafe_get ci.postings (lo + i)))

(* Intersect the current candidate array with one posting slice:
   both ascending, two-pointer merge. *)
let intersect_slice ci g cur =
  let lo, hi = slice ci g in
  let out = Array.make (min (Array.length cur) (hi - lo)) 0 in
  let k = ref 0 and i = ref 0 and j = ref lo in
  while !i < Array.length cur && !j < hi do
    let a = cur.(!i)
    and b = Int32.to_int (Bigarray.Array1.unsafe_get ci.postings !j) in
    if a = b then begin
      out.(!k) <- a;
      incr k;
      incr i;
      incr j
    end
    else if a < b then incr i
    else incr j
  done;
  Array.sub out 0 !k

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
          (* smallest posting list first: every later intersection is
             bounded by the running candidate count *)
          let codes =
            List.sort
              (fun a b ->
                compare (snd (slice ci a) - fst (slice ci a))
                  (snd (slice ci b) - fst (slice ci b)))
              codes
          in
          let first = List.hd codes in
          let cur = ref (slice_to_array ci first) in
          List.iter
            (fun g -> if Array.length !cur > 0 then cur := intersect_slice ci g !cur)
            (List.tl codes);
          record t ~candidates:(Array.length !cur) ~scanned;
          Some !cur)

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
          List.iter
            (fun g ->
              let lo, hi = slice ci g in
              for j = lo to hi - 1 do
                let i = Int32.to_int (Bigarray.Array1.unsafe_get ci.postings j) in
                hits.(i) <- hits.(i) + 1
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
