(* The benchmark's inputs, all generated from the run's seed.

   - [serve_db]: the V1 serving database — 50k planted-motif [seq] rows
     (length 20, motif [v1_motif] in 0.1% of rows) next to the 8-pair
     genomic [pair] relation.  serve_hot and plan_cold both use it.
   - [v1_mix]: the eight V1 wire queries, sent by serve_hot in the order
     of [serve_rotation].
   - [cold]: plan_cold's request stream — the same eight templates with
     seed-drawn literals, in the order of [cold_rotation]; no formula is
     ever issued twice.
   - [bulk_db] / [bulk_mix]: scan_bulk's in-process mix, each query
     paired with an independent reference answer ([Refs]). *)

open Strdb

let dna = Alphabet.dna
let any = "(a+c+g+t)*"

(* Independent sub-seeds for the parts of one run's inputs. *)
let derive seed part = (seed * 1_000_003) + (part * 7_919) + 17

type query = {
  kind : int;  (** template index: the round-robin slot of the mix. *)
  name : string;
  wire : string;  (** the request line's formula ([""] for in-process-only queries). *)
  phi : Formula.t;
  free : string list;
}

let of_wire kind name wire =
  let phi = Sparser.formula wire in
  { kind; name; wire; phi; free = Formula.free_vars phi }

let of_formula kind name phi = { kind; name; wire = ""; phi; free = Formula.free_vars phi }

(* ------------------------------------------------------------ serving *)

let v1_motif = "acgtgacgta"
let serve_rows = 50_000
let sf = Sformula.to_string
let s_of re = sf (Regex_embed.matches "x" (Regex.parse re))

let serve_db ~seed =
  let planted =
    Workload.planted_motif_db ~seed:(derive seed 1) ~n:serve_rows ~len:20 ~motif:v1_motif
      ~hit_rate:0.001
  in
  (* V1's own pair relation: eight pairs are too few to vary with the
     seed without moving every E1 query's cost. *)
  let genomic = Workload.genomic_db ~seed:11 ~n:16 ~len:6 in
  Database.of_list
    [ ("seq", Database.find planted "seq"); ("pair", Database.find genomic "pair") ]

let template_names =
  [| "E1-equal"; "E1-concat"; "E1-occurs"; "E1-edit2"; "Q7-motif"; "Q7-anchored";
     "fused-triple"; "negated-guard" |]

let e1_main =
  [|
    sf (Combinators.equal_s "u" "v");
    sf (Combinators.concat3 "x" "u" "v");
    sf (Combinators.occurs_in "u" "v");
    sf (Combinators.edit_distance_le "u" "v" 2);
  |]

let fused_triple a b c =
  Printf.sprintf "seq(x) & S{%s} & S{%s} & S{%s}" (s_of (any ^ a ^ any)) (s_of (any ^ b ^ any))
    (s_of (any ^ c ^ any))

let negated_guard motif guard =
  Printf.sprintf "seq(x) & S{%s} & ~S{%s}" (s_of (any ^ motif ^ any)) (s_of (any ^ guard ^ any))

let v1_wires =
  [|
    "pair(u,v) & S{" ^ e1_main.(0) ^ "}";
    "pair(u,v) & S{" ^ e1_main.(1) ^ "}";
    "pair(u,v) & S{" ^ e1_main.(2) ^ "}";
    "pair(u,v) & S{" ^ e1_main.(3) ^ "}";
    Printf.sprintf "seq(x) & S{%s}" (s_of (any ^ v1_motif ^ any));
    Printf.sprintf "seq(x) & S{%s}" (s_of (v1_motif ^ any));
    fused_triple "acgtga" "gtgacg" "gacgta";
    negated_guard v1_motif "ggggg";
  |]

let v1_mix () = Array.mapi (fun i w -> of_wire i template_names.(i) w) v1_wires

(* The order requests are sent in.  Nine slots, one template twice: with
   eight equal shares the median falls on the gap between the fourth and
   fifth cheapest template, where it reads an extreme sample of one or
   the other; with nine it lands inside one template's distribution.
   serve_hot repeats E1-concat, plan_cold Q7-anchored — each a template
   just below the mix's median.  (Before this, p50_ms moved by 20%
   between seeds.) *)
let serve_rotation = [| 0; 1; 2; 3; 4; 5; 6; 7; 1 |]
let cold_rotation = [| 0; 1; 2; 3; 4; 5; 6; 7; 5 |]

(* scan_bulk's nine templates, Q7-scan and negated-guard twice, each
   sent at every size level ([bulk_cycle]). *)
let bulk_rotation = [| 0; 1; 2; 3; 4; 5; 6; 7; 8; 2; 8 |]
let rotate rotation mix = Array.map (fun k -> mix.(k)) rotation

(* ---------------------------------------------------------- plan_cold *)

type cold = {
  g : Prng.t;
  seqs : string array;
  seen : (string, unit) Hashtbl.t;
  mutable issued : int;
  mu : Mutex.t;
}

let cold_stream ~seed db =
  let seen = Hashtbl.create 4096 in
  Array.iter (fun w -> Hashtbl.replace seen w ()) v1_wires;
  {
    g = Prng.create (derive seed 3);
    seqs = Array.of_list (List.concat (Database.find db "seq"));
    seen;
    issued = 0;
    mu = Mutex.create ();
  }

(* A factor of a stored row, so motif templates have answers. *)
let row_factor c ~len =
  let s = c.seqs.(Prng.int c.g (Array.length c.seqs)) in
  let len = min len (String.length s) in
  String.sub s (Prng.int c.g (String.length s - len + 1)) len

(* Literal lengths follow [step], not the seed: a literal's automaton, and
   so the plan built around it, grows with its length, and lengths drawn
   from the seed gave each run its own share of long and short literals
   in the few requests that make the tail.  The seed picks the characters
   and the rows. *)
let draw_cold c kind ~step =
  let g = c.g in
  match kind with
  | 0 | 1 | 2 | 3 ->
      let lit = Prng.string g dna (3 + step) in
      Printf.sprintf "pair(u,v) & S{%s} & S{%s}" e1_main.(kind) (sf (Combinators.literal "u" lit))
  | 4 ->
      Printf.sprintf "seq(x) & S{%s}" (s_of (any ^ row_factor c ~len:(6 + (step mod 5)) ^ any))
  | 5 ->
      let s = c.seqs.(Prng.int g (Array.length c.seqs)) in
      let motif = String.sub s 0 (min (String.length s) (6 + (step mod 5))) in
      Printf.sprintf "seq(x) & S{%s}" (s_of (motif ^ any))
  | 6 ->
      let w = row_factor c ~len:10 in
      fused_triple (String.sub w 0 6) (String.sub w 2 6) (String.sub w 4 6)
  | _ -> negated_guard (row_factor c ~len:(8 + (step mod 3))) (Prng.string g dna 5)

(* The next request of the stream: templates rotate, each slot's literal
   lengths cycle through five steps, and a draw that repeats any earlier
   formula (or a V1 query) is redrawn, one step longer after every 100
   repeats (the 64 E1 literals of length 3 run out in a long run). *)
let next_cold c =
  Mutex.protect c.mu (fun () ->
      let slots = Array.length cold_rotation in
      let kind = cold_rotation.(c.issued mod slots) in
      let step = c.issued / slots mod 5 in
      c.issued <- c.issued + 1;
      let rec go tries =
        if tries = 10_000 then failwith "plan_cold: template literal space exhausted";
        let w = draw_cold c kind ~step:(step + (tries / 100)) in
        if Hashtbl.mem c.seen w then go (tries + 1)
        else begin
          Hashtbl.replace c.seen w ();
          of_wire kind template_names.(kind) w
        end
      in
      go 0)

(* ---------------------------------------------------------- scan_bulk *)

type bulk = { query : query; reference : unit -> Database.tuple list }

(* Every scan_bulk query runs on five slices of its relation, from half
   to twice the base size, so request costs spread evenly from about 1.5
   to 30 ms instead of clustering in nine values.  This host's speed
   switches between a fast and a 1.7x slower state every few seconds; the
   median of nine clustered costs sat on one cluster's fast or slow value
   and jumped between them as the slow share of a run passed a half,
   where over an even spread it moves with the slow share as smoothly as
   throughput does. *)
let bulk_levels = [| 0.5; 0.71; 1.0; 1.41; 2.0 |]
let bulk_mid_level = 2

(* Base sizes (level 1.0) that keep the mix's mean cost near 10 ms on a
   2-core x86-64 host, with Q12 the slowest and Q3 mid-mix, so that the
   generator queries carry p99, and one
   caller completes 1000 queries within its half of a 30-second run even
   when the host runs slow.  The largest generator slices together stay
   under the 512 entries of [Generate]'s specialization memo: above it
   every generator row misses the memo on every run. *)
let bulk_seq_rows = 800
let bulk_pair_rows = 640
let bulk_near_rows = 32
let bulk_concat_rows = 150
let bulk_half_rows = 90

let level_rel r j = r ^ string_of_int j
let level_rows base j = max 1 (int_of_float (Float.round (float_of_int base *. bulk_levels.(j))))
let largest = Array.length bulk_levels - 1

let bulk_db ~seed =
  let g = Prng.create (derive seed 4) in
  let str n = Prng.string g dna n in
  let full base = level_rows base largest in
  let seq = List.init (full bulk_seq_rows) (fun _ -> [ str 20 ]) in
  (* Lengths, shares and edit counts follow the row index, so only the
     characters vary with the seed and every query's cost stays put. *)
  let pair =
    List.init (full bulk_pair_rows) (fun i ->
        let u = str (4 + (i / 4 mod 5)) in
        match i mod 4 with
        | 0 -> [ u; u ]
        | 1 -> [ u; str (i / 4 mod 7) ^ u ^ str (i / 8 mod 5) ]
        | 2 -> [ u; Workload.mutate g dna ~edits:(i / 4 mod 4) u ]
        | _ -> [ u; str (4 + (i / 8 mod 5)) ])
  in
  let near =
    List.init (full bulk_near_rows) (fun i ->
        let u = str (8 + (i mod 3)) in
        [ u; Workload.mutate g dna ~edits:(i mod 4) u ])
  in
  let pair3 =
    List.init (full bulk_concat_rows) (fun i -> [ str (10 + (i mod 3)); str (12 - (i mod 3)) ])
  in
  let half =
    List.init (full bulk_half_rows) (fun i ->
        let y = str (3 + (i / 2 mod 3)) in
        [ y ^ (if i mod 2 = 0 then String.map Refs.dna_complement y else str (String.length y)) ])
  in
  (* Each level's slice is a prefix of the largest, so the levels share
     their rows (and the generators' memo entries). *)
  Database.of_list
    (List.concat_map
       (fun (r, base, rows) ->
         List.init (Array.length bulk_levels) (fun j ->
             (level_rel r j, List.filteri (fun i _ -> i < level_rows base j) rows)))
       [
         ("seq", bulk_seq_rows, seq); ("pair", bulk_pair_rows, pair); ("near", bulk_near_rows, near);
         ("pair3", bulk_concat_rows, pair3); ("half", bulk_half_rows, half);
       ])

let bulk_regex_prefix = "(gc+a)*(c+t)" ^ any
let bulk_regex_gap = any ^ "g(a+c+g+t)(a+c+g+t)c" ^ any

(* The nine queries at every level: [kind] = level * 9 + template. *)
let bulk_mix ~seed db =
  let g = Prng.create (derive seed 5) in
  let seqs = Array.of_list (List.concat (Database.find db (level_rel "seq" largest))) in
  let motif =
    let s = seqs.(Prng.int g (Array.length seqs)) in
    String.sub s (Prng.int g (String.length s - 3)) 4
  in
  let guard = Prng.string g dna 3 in
  let str s = Formula.Str s in
  let matches v re = Regex_embed.matches v (Regex.parse re) in
  let split, translated =
    Combinators.translation_halves_parts "x" "y" "z"
      [ ('a', 't'); ('t', 'a'); ('c', 'g'); ('g', 'c') ]
  in
  let at_level j =
    let rel r vs = Formula.Rel (level_rel r j, vs) in
    let tuples r = Database.find db (level_rel r j) in
    let seq_filter re = Formula.And (rel "seq" [ "x" ], str (matches "x" re)) in
    [
      ( "regex-prefix", seq_filter bulk_regex_prefix,
        fun () -> Refs.filter_unary (tuples "seq") (Refs.regex_matcher bulk_regex_prefix) );
      ( "regex-gap", seq_filter bulk_regex_gap,
        fun () -> Refs.filter_unary (tuples "seq") (Refs.regex_matcher bulk_regex_gap) );
      ( "Q7-scan", seq_filter (any ^ motif ^ any),
        fun () -> Refs.filter_unary (tuples "seq") (Refs.occurs ~pattern:motif) );
      ( "Q2-equal", Formula.And (rel "pair" [ "u"; "v" ], str (Combinators.equal_s "u" "v")),
        fun () -> Refs.filter_binary (tuples "pair") String.equal );
      ( "Q7-occurs", Formula.And (rel "pair" [ "u"; "v" ], str (Combinators.occurs_in "u" "v")),
        fun () -> Refs.filter_binary (tuples "pair") (fun u v -> Refs.occurs ~pattern:u v) );
      ( "Q8-edit2",
        Formula.And (rel "near" [ "u"; "v" ], str (Combinators.edit_distance_le "u" "v" 2)),
        fun () -> Refs.filter_binary (tuples "near") (fun u v -> Refs.edit_within u v 2) );
      ( "Q3-concat",
        Formula.exists_many [ "u"; "v" ]
          (Formula.and_list [ rel "pair3" [ "u"; "v" ]; str (Combinators.concat3 "x" "u" "v") ]),
        fun () -> Refs.concatenations (tuples "pair3") );
      ( "Q12-halves",
        Formula.exists_many [ "y"; "z" ]
          (Formula.and_list [ rel "half" [ "x" ]; str split; str translated ]),
        fun () ->
          Refs.filter_unary (tuples "half") (Refs.translated_halves Refs.dna_complement) );
      ( "negated-guard",
        Formula.and_list
          [ rel "seq" [ "x" ]; str (matches "x" (any ^ motif ^ any));
            Formula.Not (str (matches "x" (any ^ guard ^ any))) ],
        fun () ->
          Refs.filter_unary (tuples "seq") (fun x ->
              Refs.occurs ~pattern:motif x && not (Refs.occurs ~pattern:guard x)) );
    ]
  in
  Array.of_list
    (List.mapi
       (fun i (name, phi, reference) ->
         { query = of_formula i (Printf.sprintf "%s@%g" name bulk_levels.(i / 9)) phi; reference })
       (List.concat (List.init (Array.length bulk_levels) at_level)))

(* One level's nine queries. *)
let bulk_at_level mix j = Array.sub mix (j * 9) 9

(* The request cycle: slot [i] sends template [bulk_rotation.(i mod 11)]
   at level [i mod 5]; 11 and 5 are coprime, so one cycle of 55 sends
   every slot at every level. *)
let bulk_cycle mix =
  let slots = Array.length bulk_rotation and levels = Array.length bulk_levels in
  Array.init (slots * levels) (fun i -> mix.(((i mod levels) * 9) + bulk_rotation.(i mod slots)).query)
