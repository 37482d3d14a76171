type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close t =
  (try flush t.oc with _ -> ());
  (* Close the raw fd once; both channels wrap it. *)
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let request t line =
  let unsent =
    match
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc
    with
    | () -> None
    | exception Sys_error m -> Some m
  in
  (* A server that cannot admit the connection writes BUSY and closes
     it, possibly before this request is written: the write then fails,
     but the BUSY line is still there to read. *)
  let failed m = Error (Option.value unsent ~default:m) in
  match input_line t.ic with
  | exception End_of_file -> failed "connection closed"
  | exception Sys_error m -> failed m
  | "BUSY" -> Error "server busy"
  | _ when Option.is_some unsent -> failed ""
  | resp when starts_with "ERR " resp ->
      Error (String.sub resp 4 (String.length resp - 4))
  | resp when starts_with "OK " resp -> (
      match int_of_string_opt (String.sub resp 3 (String.length resp - 3)) with
      | None -> Error ("malformed response: " ^ resp)
      | Some n ->
          let rec read k acc =
            if k = 0 then Ok (List.rev acc)
            else
              match input_line t.ic with
              | exception End_of_file -> Error "connection closed mid-response"
              | l -> read (k - 1) (l :: acc)
          in
          read n [])
  | resp -> Error ("malformed response: " ^ resp)

let query t ?free src =
  let line =
    match free with
    | None -> "QUERY " ^ src
    | Some vs -> Printf.sprintf "QUERY[%s] %s" (String.concat "," vs) src
  in
  Result.map
    (List.map (fun l -> if l = "" then [] else String.split_on_char '\t' l))
    (request t line)

let explain t src = request t ("EXPLAIN " ^ src)

let stats t =
  Result.map
    (List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | None -> None
         | Some i -> (
             let k = String.sub l 0 i in
             match
               int_of_string_opt
                 (String.sub l (i + 1) (String.length l - i - 1))
             with
             | None -> None
             | Some v -> Some (k, v))))
    (request t "STATS")

let ping t = match request t "PING" with Ok _ -> true | Error _ -> false
