exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

let magic = "codetomo-profile 1"

let kind_to_string = function
  | Cfg.K_taken -> "taken"
  | Cfg.K_fall -> "fall"
  | Cfg.K_jump -> "jump"

let kind_of_string = function
  | "taken" -> Cfg.K_taken
  | "fall" -> Cfg.K_fall
  | "jump" -> Cfg.K_jump
  | s -> fail "unknown edge kind %S" s

(* Invocation counts and edge weights are counts: a NaN, infinite or
   negative one would silently skew the layout built from the profile. *)
let count_of_string what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v && v >= 0.0 -> v
  | _ -> fail "bad %s %S: not a finite non-negative number" what s

let to_string profiles =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (magic ^ "\n");
  List.iter
    (fun (name, freq) ->
      Buffer.add_string buf
        (Printf.sprintf "proc %s blocks %d invocations %.6f\n" name
           (Cfg.num_blocks (Freq.cfg freq))
           (Freq.invocations freq));
      List.iter
        (fun ((src, dst, kind), w) ->
          Buffer.add_string buf
            (Printf.sprintf "edge %d %d %s %.6f\n" src dst (kind_to_string kind) w))
        (Freq.weights freq))
    profiles;
  Buffer.contents buf

let of_string ~lookup text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  (match lines with
  | first :: _ when first = magic -> ()
  | _ -> fail "missing %S header" magic);
  let profiles = ref [] in
  let current : (string * Freq.t option) option ref = ref None in
  let flush () =
    match !current with
    | Some (name, Some freq) -> profiles := (name, freq) :: !profiles
    | Some (_, None) | None -> ()
  in
  List.iteri
    (fun i line ->
      if i > 0 then
        match String.split_on_char ' ' line with
        | [ "proc"; name; "blocks"; blocks; "invocations"; inv ] ->
            flush ();
            let blocks =
              match int_of_string_opt blocks with
              | Some b -> b
              | None -> fail "bad block count %S" blocks
            in
            let inv = count_of_string "invocation count" inv in
            (match lookup name with
            | None -> current := Some (name, None) (* unknown: skip its edges *)
            | Some cfg ->
                if Cfg.num_blocks cfg <> blocks then
                  fail "stale profile for %s: %d blocks saved, CFG has %d" name blocks
                    (Cfg.num_blocks cfg);
                current := Some (name, Some (Freq.create cfg ~invocations:inv)))
        | [ "edge"; src; dst; kind; w ] -> (
            match !current with
            | None -> fail "edge line before any proc line"
            | Some (_, None) -> ()
            | Some (name, Some freq) -> (
                let int_of s =
                  match int_of_string_opt s with
                  | Some v -> v
                  | None -> fail "bad block id %S" s
                in
                let weight = count_of_string "weight" w in
                try
                  Freq.bump freq ~src:(int_of src) ~dst:(int_of dst)
                    ~kind:(kind_of_string kind) weight
                with Invalid_argument _ ->
                  fail "stale profile for %s: edge %s->%s not in CFG" name src dst))
        | _ -> fail "unparseable line %S" line)
    lines;
  flush ();
  List.rev !profiles

let save ~path profiles =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string profiles))

let load ~path ~lookup =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ~lookup (really_input_string ic (in_channel_length ic)))
