(* Report: Table, Chart, Csv. *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_renders () =
  let t =
    Report.Table.render ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  Alcotest.(check bool) "has header" true (contains ~needle:"name" t);
  Alcotest.(check bool) "has row" true (contains ~needle:"alpha" t);
  Alcotest.(check bool) "aligned right" true (contains ~needle:" 22 " t)

let test_table_ragged () =
  Alcotest.(check bool) "ragged rejected" true
    (match Report.Table.render ~headers:[ "a"; "b" ] [ [ "only one" ] ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_fmt_helpers () =
  Alcotest.(check string) "float" "3.14" (Report.Table.fmt_float ~decimals:2 3.14159);
  Alcotest.(check string) "pct" "12.3%" (Report.Table.fmt_pct 0.1234)

let test_chart_renders () =
  let c =
    Report.Chart.line ~title:"test"
      [
        ("a", [| (1.0, 1.0); (2.0, 4.0); (3.0, 9.0) |]);
        ("b", [| (1.0, 2.0); (2.0, 2.0) |]);
      ]
  in
  Alcotest.(check bool) "title" true (contains ~needle:"test" c);
  Alcotest.(check bool) "glyph a" true (contains ~needle:"*" c);
  Alcotest.(check bool) "glyph b" true (contains ~needle:"o" c);
  Alcotest.(check bool) "legend" true (contains ~needle:"* = a" c)

let test_chart_empty () =
  let c = Report.Chart.line ~title:"empty" [ ("a", [||]) ] in
  Alcotest.(check bool) "just title" true (contains ~needle:"empty" c)

let test_chart_log_x () =
  let c =
    Report.Chart.line ~log_x:true ~title:"log"
      [ ("s", [| (10.0, 1.0); (100.0, 2.0); (1000.0, 3.0) |]) ]
  in
  Alcotest.(check bool) "log annotation" true (contains ~needle:"log scale" c)

let test_csv () =
  let s = Report.Csv.to_string ~headers:[ "a"; "b" ] [ [ "1"; "hello, world" ]; [ "2"; "q\"q" ] ] in
  Alcotest.(check bool) "quoted comma" true (contains ~needle:"\"hello, world\"" s);
  Alcotest.(check bool) "escaped quote" true (contains ~needle:"\"q\"\"q\"" s);
  Alcotest.(check bool) "header row" true (contains ~needle:"a,b" s)

let test_csv_file () =
  let path = Filename.temp_file "codetomo" ".csv" in
  Report.Csv.write_file ~path ~headers:[ "x" ] [ [ "1" ] ];
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "first line" "x" line

let suite =
  [
    Alcotest.test_case "table renders" `Quick test_table_renders;
    Alcotest.test_case "table ragged" `Quick test_table_ragged;
    Alcotest.test_case "fmt helpers" `Quick test_fmt_helpers;
    Alcotest.test_case "chart renders" `Quick test_chart_renders;
    Alcotest.test_case "chart empty" `Quick test_chart_empty;
    Alcotest.test_case "chart log x" `Quick test_chart_log_x;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "csv file" `Quick test_csv_file;
  ]
