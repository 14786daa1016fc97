let fmt_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let fmt_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (v *. 100.0)

let render ~headers rows =
  let cols = List.length headers in
  List.iteri
    (fun i row ->
      if List.length row <> cols then
        invalid_arg (Printf.sprintf "Table.render: row %d has %d cells, expected %d" i
                       (List.length row) cols))
    rows;
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    rows;
  (* The first column (the row's name) is left-aligned, the rest right. *)
  let pad i s =
    let gap = String.make (widths.(i) - String.length s) ' ' in
    if i = 0 then s ^ gap else gap ^ s
  in
  let line ch junction =
    junction
    ^ String.concat junction
        (Array.to_list (Array.map (fun w -> String.make (w + 2) ch) widths))
    ^ junction
  in
  let render_row cells =
    "|"
    ^ String.concat "|"
        (List.mapi (fun i cell -> " " ^ pad i cell ^ " ") cells)
    ^ "|"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-' "+");
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line '=' "+");
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (line '-' "+");
  Buffer.contents buf
