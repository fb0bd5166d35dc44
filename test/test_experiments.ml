(* Tests for the experiment registry: tables, plots, CSV, and quick runs
   of every registered experiment (so the harness can never rot). *)

module Table = Repro_experiments.Table
module Plot = Repro_experiments.Ascii_plot
module Runs = Repro_experiments.Runs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sample =
  Table.make ~title:"sample" ~columns:[ "a"; "b"; "c" ]
    ~notes:[ "a note" ]
    [
      [ Table.Int 1; Table.Float 2.5; Table.Str "x" ];
      [ Table.Int 10; Table.Float 0.25; Table.Str "y, z" ];
    ]

let test_table_shape () =
  check_int "rows" 2 (List.length sample.Table.rows);
  check "mismatched row rejected" true
    (try
       ignore (Table.make ~title:"t" ~columns:[ "a" ] [ [ Table.Int 1; Table.Int 2 ] ]);
       false
     with Invalid_argument _ -> true)

let test_table_pp () =
  let s = Format.asprintf "%a" Table.pp sample in
  let contains sub =
    let ls = String.length sub and l = String.length s in
    let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
    go 0
  in
  check "title" true (contains "sample");
  check "header" true (contains "a");
  check "float format" true (contains "2.50");
  check "note" true (contains "a note")

let test_table_csv () =
  let csv = Table.to_csv sample in
  let lines = String.split_on_char '\n' csv in
  check_string "header" "a,b,c" (List.nth lines 0);
  check_string "row 1" "1,2.50,x" (List.nth lines 1);
  check_string "quoted comma" "10,0.25,\"y, z\"" (List.nth lines 2)

let test_table_columns () =
  check "column a" true (Table.column sample "a" = [ Table.Int 1; Table.Int 10 ]);
  check "floats" true (Table.float_column sample "b" = [ 2.5; 0.25 ]);
  check "missing raises" true
    (try
       ignore (Table.column sample "zzz");
       false
     with Not_found -> true)

let test_csv_roundtrip_file () =
  let path = Filename.temp_file "repro" ".csv" in
  Table.write_csv ~path sample;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  check_string "file header" "a,b,c" first

let test_plot_renders () =
  let s =
    Plot.render ~width:20 ~height:5 ~title:"t"
      [
        { Plot.label = 'x'; points = [ (10.0, 1.0); (100.0, 2.0); (1000.0, 4.0) ] };
      ]
  in
  check "has title" true (String.length s > 0 && String.sub s 0 1 = "t");
  check "has mark" true (String.contains s 'x')

let test_plot_empty () =
  let s = Plot.render ~title:"empty" [] in
  check "graceful" true (String.length s > 0)

let test_registry_ids_unique () =
  let ids = Runs.ids in
  Alcotest.(check (list string))
    "exactly the registered experiments, in order"
    [ "F1"; "F3"; "F2"; "T1a"; "T1b"; "F4"; "T6"; "L9"; "F78"; "T11"; "T1g";
      "IDS"; "R1" ]
    ids;
  check "unique" true (List.length (List.sort_uniq compare ids) = List.length ids);
  check "find works" true (Runs.find "t11" <> None);
  check "find missing" true (Runs.find "nope" = None)

(* quick runs: every experiment must produce non-empty tables without
   raising. These exercise the full stack end to end. *)
let quick_run_tests =
  List.map
    (fun (e : Runs.experiment) ->
      ( Printf.sprintf "quick run %s" e.Runs.id,
        `Slow,
        fun () ->
          let outcome = e.Runs.run ~quick:true in
          check (e.Runs.id ^ " has tables") true (outcome.Runs.tables <> []);
          List.iter
            (fun t -> check (e.Runs.id ^ " rows") true (t.Table.rows <> []))
            outcome.Runs.tables ))
    Runs.all

let suite =
  [
    ("table shape", `Quick, test_table_shape);
    ("table pp", `Quick, test_table_pp);
    ("table csv", `Quick, test_table_csv);
    ("table columns", `Quick, test_table_columns);
    ("csv file roundtrip", `Quick, test_csv_roundtrip_file);
    ("plot renders", `Quick, test_plot_renders);
    ("plot empty", `Quick, test_plot_empty);
    ("registry ids", `Quick, test_registry_ids_unique);
  ]
  @ quick_run_tests
