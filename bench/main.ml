(* Evaluation driver: `dune exec bench/main.exe` regenerates every table
   and figure; `dune exec bench/main.exe -- t4` runs a single one.

   Options:
     -j N, --domains N   size of the session's domain pool (default:
                         CODETOMO_DOMAINS, else the recommended count)
     --timings FILE      write per-experiment wall-clock seconds as JSON
                         (the tables themselves are unaffected, so serial
                         and parallel stdout stay byte-identical)
     --reduced           run the small f3, r13 and f15 grids CI gates on
                         (the other experiments ignore it) *)

let experiments =
  [
    ("t1", Experiments.t1);
    ("f2", Experiments.f2);
    ("f3", Experiments.f3);
    ("t4", Experiments.t4);
    ("f5", Experiments.f5);
    ("t6", Experiments.t6);
    ("f7", Experiments.f7);
    ("a8", Experiments.a8);
    ("a9", Experiments.a9);
    ("a11", Experiments.a11);
    ("s12", Experiments.s12);
    ("f13", Experiments.f13);
    ("f14", Experiments.f14);
    ("r13", Experiments.r13);
    ("a15", Experiments.a15);
    ("f15", Experiments.f15);
    ("b10", Micro.b10);
  ]

let usage () =
  Printf.eprintf
    "usage: main.exe [-j N] [--timings FILE] [--reduced] [experiment ...]\navailable: %s\n"
    (String.concat ", " (List.map fst experiments));
  exit 1

let parse_args argv =
  let rec go args names domains timings reduced =
    match args with
    | [] -> (List.rev names, domains, timings, reduced)
    | ("-j" | "--domains") :: value :: rest -> (
        match int_of_string_opt value with
        | Some d when d >= 1 -> go rest names (Some d) timings reduced
        | _ ->
            Printf.eprintf "-j expects a positive integer, got %S\n" value;
            exit 1)
    | [ ("-j" | "--domains") ] ->
        Printf.eprintf "-j expects a domain count\n";
        exit 1
    | "--timings" :: file :: rest -> go rest names domains (Some file) reduced
    | [ "--timings" ] ->
        Printf.eprintf "--timings expects a file path\n";
        exit 1
    | "--reduced" :: rest -> go rest names domains timings true
    | name :: rest -> go rest (name :: names) domains timings reduced
  in
  go (List.tl (Array.to_list argv)) [] None None false

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_timings ~path ~domains timed =
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 timed in
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "cannot write timings: %s\n" msg;
      exit 1
  in
  Printf.fprintf oc "{\n  \"domains\": %d,\n  \"total_seconds\": %.3f,\n  \"experiments\": [\n"
    domains total;
  List.iteri
    (fun i (name, seconds) ->
      Printf.fprintf oc "    { \"name\": \"%s\", \"seconds\": %.3f }%s\n"
        (json_escape name) seconds
        (if i = List.length timed - 1 then "" else ","))
    timed;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.eprintf "[timings written to %s]\n%!" path

let () =
  let names, domains, timings, reduced = parse_args Sys.argv in
  Option.iter Experiments.set_domains domains;
  if reduced then Experiments.set_reduced ();
  let chosen =
    match names with
    | [] -> experiments
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some run -> (String.lowercase_ascii name, run)
            | None ->
                Printf.eprintf "unknown experiment %S; available: %s\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 1)
          names
  in
  if chosen = [] then usage ();
  let timed =
    List.map
      (fun (name, run) ->
        let t0 = Unix.gettimeofday () in
        run ();
        (name, Unix.gettimeofday () -. t0))
      chosen
  in
  Option.iter (fun path -> write_timings ~path ~domains:(Experiments.domains ()) timed) timings
