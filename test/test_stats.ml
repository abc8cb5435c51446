(* Tests for descriptive statistics and report rendering. *)

open Stats

let feq = Alcotest.(check (float 1e-9))

let test_mean () = feq "mean" 2.5 (Descriptive.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_mean_single () = feq "singleton" 7.0 (Descriptive.mean [| 7.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Descriptive.mean") (fun () ->
      ignore (Descriptive.mean [||]))

let test_stddev () =
  (* sample sd of 2,4,4,4,5,5,7,9 = sqrt(32/7) *)
  feq "stddev" (sqrt (32.0 /. 7.0)) (Descriptive.summarize ~tukey:false [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]).stddev

let test_stddev_singleton () = feq "singleton sd" 0.0 (Descriptive.summarize [| 3.0 |]).stddev

let test_minmax () =
  let xs = [| 3.0; 1.0; 4.0; 1.5; 9.0 |] in
  feq "min" 1.0 (Descriptive.minimum xs);
  feq "max" 9.0 (Descriptive.maximum xs)

let test_percentile_median_odd () =
  feq "median odd" 3.0 (Descriptive.summarize ~tukey:false [| 5.0; 3.0; 1.0 |]).p50

let test_percentile_median_even () =
  feq "median even" 2.5 (Descriptive.summarize ~tukey:false [| 4.0; 1.0; 3.0; 2.0 |]).p50

let test_percentile_extremes () =
  let xs = [| 10.0; 20.0; 30.0 |] in
  feq "p0" 10.0 (Descriptive.percentile xs 0.0);
  feq "p100" 30.0 (Descriptive.percentile xs 100.0)

let test_percentile_interpolates () =
  feq "p25 of 1..5" 2.0 (Descriptive.percentile [| 1.; 2.; 3.; 4.; 5. |] 25.0)

let test_percentile_unsorted_input () =
  feq "unsorted" 2.0 (Descriptive.percentile [| 5.; 1.; 3.; 2.; 4. |] 25.0)

let test_percentile_out_of_range () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Descriptive.percentile: p outside [0,100]") (fun () ->
      ignore (Descriptive.percentile [| 1.0 |] 101.0))


let test_tukey_removes_outlier () =
  let xs = Array.append (Array.init 50 (fun i -> float_of_int (i mod 10))) [| 1000.0 |] in
  let kept = Descriptive.tukey_filter xs in
  Alcotest.(check bool) "outlier removed" true
    (Array.for_all (fun x -> x < 100.0) kept);
  Alcotest.(check int) "one value removed" (Array.length xs - 1) (Array.length kept)

let test_tukey_keeps_clean_data () =
  let xs = Array.init 100 (fun i -> float_of_int (i mod 7)) in
  Alcotest.(check int) "nothing removed" (Array.length xs)
    (Array.length (Descriptive.tukey_filter xs))

let test_harmonic_mean () =
  (* harmonic mean of 1, 2, 4 = 3 / (1 + 0.5 + 0.25) = 12/7 *)
  feq "harmonic" (12.0 /. 7.0) (Descriptive.harmonic_mean [| 1.0; 2.0; 4.0 |])

let test_harmonic_mean_rejects_nonpositive () =
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Descriptive.harmonic_mean: nonpositive value") (fun () ->
      ignore (Descriptive.harmonic_mean [| 1.0; 0.0 |]))

let test_summary () =
  let s = Descriptive.summarize ~tukey:false (Array.init 101 (fun i -> float_of_int i)) in
  Alcotest.(check int) "n" 101 s.n;
  feq "mean" 50.0 s.mean;
  feq "p50" 50.0 s.p50;
  feq "min" 0.0 s.min;
  feq "max" 100.0 s.max

let test_summary_tukey_default () =
  let xs = Array.append (Array.init 99 (fun i -> float_of_int (i mod 5))) [| 1e9 |] in
  let s = Descriptive.summarize xs in
  Alcotest.(check bool) "outlier filtered by default" true (s.max < 10.0)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_renders () =
  let out = Report.table ~header:[ "name"; "value" ] [ [ "a"; "1" ]; [ "bb"; "22" ] ] in
  Alcotest.(check bool) "contains header" true (contains out "name");
  Alcotest.(check bool) "contains row" true (contains out "bb");
  Alcotest.(check bool) "contains rule" true (contains out "---")

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "ragged" (Invalid_argument "Report.table: row width mismatch")
    (fun () -> ignore (Report.table ~header:[ "a"; "b" ] [ [ "only-one" ] ]))

let test_table_alignment_width () =
  let out = Report.table ~header:[ "k"; "v" ] [ [ "xxxx"; "1" ] ] in
  (* every rendered row has the same width *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_bar_chart () =
  let out = Report.bar_chart [ ("small", 1.0); ("big", 10.0) ] in
  Alcotest.(check bool) "has bars" true (contains out "#");
  Alcotest.(check bool) "labels present" true (contains out "small" && contains out "big")

let test_bar_chart_log_rejects_nonpositive () =
  Alcotest.check_raises "log nonpositive"
    (Invalid_argument "Report.bar_chart: log of nonpositive value") (fun () ->
      ignore (Report.bar_chart ~log:true [ ("bad", 0.0) ]))

let () =
  Alcotest.run "stats"
    [
      ( "descriptive",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean singleton" `Quick test_mean_single;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "stddev singleton" `Quick test_stddev_singleton;
          Alcotest.test_case "min/max" `Quick test_minmax;
          Alcotest.test_case "median odd" `Quick test_percentile_median_odd;
          Alcotest.test_case "median even" `Quick test_percentile_median_even;
          Alcotest.test_case "percentile extremes" `Quick test_percentile_extremes;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolates;
          Alcotest.test_case "percentile unsorted" `Quick test_percentile_unsorted_input;
          Alcotest.test_case "percentile range check" `Quick test_percentile_out_of_range;
          Alcotest.test_case "tukey removes outlier" `Quick test_tukey_removes_outlier;
          Alcotest.test_case "tukey keeps clean data" `Quick test_tukey_keeps_clean_data;
          Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
          Alcotest.test_case "harmonic mean positivity" `Quick
            test_harmonic_mean_rejects_nonpositive;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary tukey default" `Quick test_summary_tukey_default;
        ] );
      ( "report",
        [
          Alcotest.test_case "table renders" `Quick test_table_renders;
          Alcotest.test_case "table rejects ragged rows" `Quick test_table_rejects_ragged_rows;
          Alcotest.test_case "table alignment" `Quick test_table_alignment_width;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
          Alcotest.test_case "bar chart log check" `Quick test_bar_chart_log_rejects_nonpositive;
        ] );
    ]
