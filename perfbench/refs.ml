(* Independent reference answers for the scan_bulk mix.

   None of these go through the alignment calculus: occurs-in is KMP
   ([Strmatch]), edit distance is the banded DP ([Edit_distance]),
   equality and concatenation are plain string operations, and the
   regular filters run a classical subset-construction DFA.  A bug in
   compilation, fusion, the kernels or generation therefore shows up as
   a mismatch instead of being reproduced on both sides. *)

open Strdb

let occurs ~pattern s = Strmatch.kmp_find ~pattern s <> None
let edit_within u v k = Edit_distance.within u v k

let regex_matcher re =
  let d = Dfa.of_regex Alphabet.dna (Regex.parse re) in
  fun s -> Dfa.accepts d s

(* [x = y·z] with [z] the letter-by-letter image of [y] under [f]. *)
let translated_halves f x =
  let n = String.length x in
  n mod 2 = 0
  &&
  let m = n / 2 in
  let ok = ref true in
  for i = 0 to m - 1 do
    if f x.[i] <> x.[m + i] then ok := false
  done;
  !ok

let dna_complement = function
  | 'a' -> 't'
  | 't' -> 'a'
  | 'c' -> 'g'
  | 'g' -> 'c'
  | c -> c

(* Answers as the engine returns them: sorted and duplicate-free. *)
let canonical rows = List.sort_uniq compare rows

let filter_unary tuples keep =
  canonical (List.filter_map (function [ x ] when keep x -> Some [ x ] | _ -> None) tuples)

let filter_binary tuples keep =
  canonical
    (List.filter_map (function [ u; v ] when keep u v -> Some [ u; v ] | _ -> None) tuples)

let concatenations tuples =
  canonical (List.filter_map (function [ u; v ] -> Some [ u ^ v ] | _ -> None) tuples)
