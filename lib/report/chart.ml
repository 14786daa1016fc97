let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |]

let width = 64
let height = 16

let line ?(x_label = "x") ?(y_label = "y") ?(log_x = false) ~title series =
  let series = List.filter (fun (_, pts) -> Array.length pts > 0) series in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ title ^ " ==\n");
  if series = [] then Buffer.contents buf
  else begin
    let tx x = if log_x then log10 (Stdlib.max 1e-12 x) else x in
    let all_pts = List.concat_map (fun (_, pts) -> Array.to_list pts) series in
    let xs = List.map (fun (x, _) -> tx x) all_pts in
    let ys = List.map snd all_pts in
    let x_min = List.fold_left Stdlib.min infinity xs in
    let x_max = List.fold_left Stdlib.max neg_infinity xs in
    let y_min = List.fold_left Stdlib.min infinity ys in
    let y_max = List.fold_left Stdlib.max neg_infinity ys in
    let x_span = if x_max > x_min then x_max -. x_min else 1.0 in
    let y_span = if y_max > y_min then y_max -. y_min else 1.0 in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun si (_, pts) ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        Array.iter
          (fun (x, y) ->
            let cx =
              int_of_float (Float.round ((tx x -. x_min) /. x_span *. float_of_int (width - 1)))
            in
            let cy =
              int_of_float (Float.round ((y -. y_min) /. y_span *. float_of_int (height - 1)))
            in
            let row = height - 1 - cy in
            if row >= 0 && row < height && cx >= 0 && cx < width then
              grid.(row).(cx) <- glyph)
          pts)
      series;
    Buffer.add_string buf (Printf.sprintf "%s (top=%.4g bottom=%.4g)\n" y_label y_max y_min);
    Array.iter
      (fun row ->
        Buffer.add_string buf "  |";
        Array.iter (Buffer.add_char buf) row;
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf ("  +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "   %s: %.4g .. %.4g%s\n" x_label
         (if log_x then 10.0 ** x_min else x_min)
         (if log_x then 10.0 ** x_max else x_max)
         (if log_x then " (log scale)" else ""));
    List.iteri
      (fun si (name, _) ->
        Buffer.add_string buf
          (Printf.sprintf "   %c = %s\n" glyphs.(si mod Array.length glyphs) name))
      series;
    Buffer.contents buf
  end
