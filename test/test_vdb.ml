(* Tests for the database substrate: tables, virtine-isolated UDFs, and
   the query executor (the §7.1 UDF scenario). *)

module T = Vdb.Table
module V = Vjs.Jsvalue

let people () =
  let t =
    T.create ~name:"people" [ ("id", T.Tint); ("name", T.Ttext); ("age", T.Tint) ]
  in
  T.insert_all t
    [
      [ T.Int 1L; T.Text "ada"; T.Int 36L ];
      [ T.Int 2L; T.Text "grace"; T.Int 85L ];
      [ T.Int 3L; T.Text "alan"; T.Int 41L ];
      [ T.Int 4L; T.Text "edsger"; T.Int 72L ];
    ];
  t

let setup () =
  let w = Wasp.Runtime.create ~clean:`Async () in
  (Vdb.Udf.create w, people ())

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)
(* ------------------------------------------------------------------ *)

(* [field f row] is column [f] of the row object a UDF receives, or
   [Null] for a column the table does not have *)
let field f = function
  | V.Obj tbl -> Ok (Option.value (Hashtbl.find_opt tbl f) ~default:V.Null)
  | _ -> Error "expected a row object"

(* One column of every row, as a projecting UDF sees it *)
let project udfs t f =
  Vdb.Udf.register_native udfs ~name:f (field f);
  match Vdb.Query.select udfs t ~project:f () with
  | Ok rows -> List.map List.hd rows
  | Error e -> Alcotest.fail e

let test_table_basics () =
  let udfs, t = setup () in
  Alcotest.(check int) "4 rows" 4 (T.length t);
  Alcotest.(check bool) "column by name" true
    (project udfs t "age" = [ T.Int 36L; T.Int 85L; T.Int 41L; T.Int 72L ]);
  (* a missing column reads as null, which projects to 0 *)
  Alcotest.(check bool) "missing column" true
    (project udfs t "salary" = [ T.Int 0L; T.Int 0L; T.Int 0L; T.Int 0L ])

let test_table_schema_validation () =
  let t = people () in
  Alcotest.check_raises "arity" (T.Schema_error "table people: expected 3 values, got 1")
    (fun () -> T.insert t [ T.Int 9L ]);
  (match T.insert t [ T.Int 9L; T.Int 9L; T.Int 9L ] with
  | exception T.Schema_error _ -> ()
  | _ -> Alcotest.fail "type mismatch accepted");
  (match T.create ~name:"bad" [ ("x", T.Tint); ("x", T.Ttext) ] with
  | exception T.Schema_error _ -> ()
  | _ -> Alcotest.fail "duplicate column accepted");
  match T.create ~name:"empty" [] with
  | exception T.Schema_error _ -> ()
  | _ -> Alcotest.fail "empty schema accepted"

let test_row_to_js_roundtrip () =
  let udfs, t = setup () in
  Alcotest.(check bool) "name field" true (List.hd (project udfs t "name") = T.Text "ada");
  Alcotest.(check bool) "age field" true (List.hd (project udfs t "age") = T.Int 36L)

(* ------------------------------------------------------------------ *)
(* JS UDFs                                                              *)
(* ------------------------------------------------------------------ *)

let adults_src = "function adults(row) { return row.age >= 40; }"
let shout_src = "function shout(row) { return row.name.toUpperCase(); }"

let test_select_where_per_query () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"adults" ~source:adults_src ~entry:"adults";
  match Vdb.Query.select udfs t ~where_:"adults" () with
  | Ok rows ->
      Alcotest.(check int) "three adults" 3 (List.length rows);
      Alcotest.(check bool) "ada filtered out" true
        (List.for_all
           (fun row -> List.nth row 1 <> T.Text "ada")
           rows)
  | Error e -> Alcotest.fail e

let test_select_where_per_row () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"adults" ~source:adults_src ~entry:"adults";
  match Vdb.Query.select udfs t ~where_:"adults" ~isolation:Vdb.Query.Per_row () with
  | Ok rows -> Alcotest.(check int) "same answer as per-query" 3 (List.length rows)
  | Error e -> Alcotest.fail e

let test_select_project () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"shout" ~source:shout_src ~entry:"shout";
  match Vdb.Query.select udfs t ~project:"shout" () with
  | Ok rows ->
      Alcotest.(check int) "all rows" 4 (List.length rows);
      Alcotest.(check bool) "projected" true
        (List.mem [ T.Text "GRACE" ] rows && List.mem [ T.Text "ADA" ] rows)
  | Error e -> Alcotest.fail e

let test_select_where_and_project () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"adults" ~source:adults_src ~entry:"adults";
  Vdb.Udf.register_js udfs ~name:"shout" ~source:shout_src ~entry:"shout";
  match Vdb.Query.select udfs t ~where_:"adults" ~project:"shout" () with
  | Ok rows ->
      Alcotest.(check bool) "grace shouted" true (List.mem [ T.Text "GRACE" ] rows);
      Alcotest.(check bool) "no ada" true (not (List.mem [ T.Text "ADA" ] rows))
  | Error e -> Alcotest.fail e

let test_isolation_levels_agree () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"adults" ~source:adults_src ~entry:"adults";
  Vdb.Udf.register_js udfs ~name:"shout" ~source:shout_src ~entry:"shout";
  let run isolation =
    Vdb.Query.select udfs t ~where_:"adults" ~project:"shout" ~isolation ()
  in
  match (run Vdb.Query.Per_query, run Vdb.Query.Per_row) with
  | Ok a, Ok b -> Alcotest.(check bool) "identical results" true (a = b)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_hostile_udf_contained () =
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"evil"
    ~source:"function evil(row) { while (true) { } }" ~entry:"evil";
  Vdb.Udf.register_js udfs ~name:"adults" ~source:adults_src ~entry:"adults";
  (match Vdb.Query.select udfs t ~where_:"evil" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hostile UDF should fail");
  (* the engine survives and other UDFs still work *)
  match Vdb.Query.select udfs t ~where_:"adults" () with
  | Ok rows -> Alcotest.(check int) "still works" 3 (List.length rows)
  | Error e -> Alcotest.fail e

let test_udfs_isolated_from_each_other () =
  (* a UDF that tries to poison global state cannot affect later
     evaluations: each per-row call restores the snapshot *)
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"sneaky"
    ~source:
      {|var counter = 0;
        function sneaky(row) { counter = counter + 1; return counter; }|}
    ~entry:"sneaky";
  match Vdb.Query.select udfs t ~project:"sneaky" ~isolation:Vdb.Query.Per_row () with
  | Ok rows ->
      (* per-row isolation: every call sees a fresh counter = 1 *)
      Alcotest.(check bool) "no state carried across rows" true
        (List.for_all (fun r -> r = [ T.Int 1L ]) rows)
  | Error e -> Alcotest.fail e

let test_batch_mode_shares_state_within_query () =
  (* the flip side: per-query isolation runs all rows in one virtine, so
     the counter increments across rows (and resets across queries) *)
  let udfs, t = setup () in
  Vdb.Udf.register_js udfs ~name:"sneaky"
    ~source:
      {|var counter = 0;
        function sneaky(row) { counter = counter + 1; return counter; }|}
    ~entry:"sneaky";
  let run () = Vdb.Query.select udfs t ~project:"sneaky" ~isolation:Vdb.Query.Per_query () in
  match (run (), run ()) with
  | Ok first, Ok second ->
      Alcotest.(check bool) "counts within query" true
        (first = [ [ T.Int 1L ]; [ T.Int 2L ]; [ T.Int 3L ]; [ T.Int 4L ] ]);
      Alcotest.(check bool) "reset across queries" true (first = second)
  | Error e, _ | _, Error e -> Alcotest.fail e

let test_unknown_udf () =
  let udfs, t = setup () in
  match Vdb.Query.select udfs t ~where_:"ghost" () with
  | exception Vdb.Udf.Unknown_udf "ghost" -> ()
  | _ -> Alcotest.fail "expected Unknown_udf"

let test_native_udf_baseline () =
  let udfs, t = setup () in
  Vdb.Udf.register_native udfs ~name:"adults" (fun row ->
      match row with
      | V.Obj tbl -> (
          match Hashtbl.find_opt tbl "age" with
          | Some (V.Num age) -> Ok (V.Bool (age >= 40.0))
          | _ -> Error "no age")
      | _ -> Error "not a row");
  match Vdb.Query.select udfs t ~where_:"adults" () with
  | Ok rows -> Alcotest.(check int) "native matches" 3 (List.length rows)
  | Error e -> Alcotest.fail e

(* Registering a name again replaces the UDF on the same runtime, under
   either reset: no answer comes from the old registration's snapshot. *)
let on_both_resets f =
  List.iter
    (fun reset ->
      let w = Wasp.Runtime.create ~reset ~clean:`Async () in
      f w (Vdb.Udf.create w))
    [ `Memcpy; `Cow ]

let test_js_reregister_replaces () =
  on_both_resets (fun w udfs ->
      let js n =
        Vdb.Udf.register_js udfs ~name:"j"
          ~source:(Printf.sprintf "function j(r) { return %d; }" n)
          ~entry:"j";
        match Vdb.Udf.apply_row udfs ~name:"j" (V.Obj (Hashtbl.create 1)) with
        | Ok (V.Num v) -> int_of_float v
        | Ok _ -> Alcotest.fail "not a number"
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) "JS UDF" 1 (js 1);
      Alcotest.(check int) "JS UDF replaced" 2 (js 2);
      let row_snapshot () = Wasp.Snapshot_store.mem (Wasp.Runtime.snapshots w) ~key:"udf:j:row" in
      Alcotest.(check bool) "its row isolate snapshotted" true (row_snapshot ());
      Vdb.Udf.register_native udfs ~name:"j" (fun _ -> Ok V.Null);
      Alcotest.(check bool) "a native UDF in its place drops it" false (row_snapshot ()))

(* ------------------------------------------------------------------ *)
(* C UDFs                                                               *)
(* ------------------------------------------------------------------ *)

let test_c_udf () =
  (* "virtines would allow functions in unsafe languages to be safely
     used for UDFs": predicate over (id, age) int columns *)
  let udfs, t = setup () in
  Vdb.Udf.register_c udfs ~name:"age_over_40"
    ~source:"virtine int pred(int id, int age) { return age > 40; }" ~fn:"pred";
  match Vdb.Query.select_c udfs t ~where_:"age_over_40" () with
  | Ok rows -> Alcotest.(check int) "grace, alan, edsger" 3 (List.length rows)
  | Error e -> Alcotest.fail e

let test_c_udf_crash_contained () =
  let udfs, t = setup () in
  Vdb.Udf.register_c udfs ~name:"crash"
    ~source:"virtine int pred(int id, int age) { int *p = (int*) 900000000; return *p; }"
    ~fn:"pred";
  (match Vdb.Query.select_c udfs t ~where_:"crash" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "crashing UDF should error");
  (* engine survives *)
  Vdb.Udf.register_c udfs ~name:"ok"
    ~source:"virtine int pred(int id, int age) { return 1; }" ~fn:"pred";
  match Vdb.Query.select_c udfs t ~where_:"ok" () with
  | Ok rows -> Alcotest.(check int) "all rows" 4 (List.length rows)
  | Error e -> Alcotest.fail e

let test_c_reregister_replaces () =
  on_both_resets (fun _ udfs ->
      let c body =
        Vdb.Udf.register_c udfs ~name:"c"
          ~source:(Printf.sprintf "virtine int f(int x) { return %s; }" body)
          ~fn:"f";
        match Vdb.Udf.apply_c udfs ~name:"c" [ 5L ] with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int64) "C UDF" 6L (c "x + 1");
      Alcotest.(check int64) "C UDF replaced" 500L (c "x * 100"))

let test_kind_and_registry () =
  let udfs, _ = setup () in
  Vdb.Udf.register_js udfs ~name:"a" ~source:adults_src ~entry:"adults";
  Vdb.Udf.register_native udfs ~name:"b" (fun _ -> Ok V.Null);
  Vdb.Udf.register_c udfs ~name:"c"
    ~source:"virtine int f(int x) { return x; }" ~fn:"f";
  let row = V.Obj (Hashtbl.create 1) in
  let answers = function Ok _ -> true | Error _ -> false in
  (* each kind answers through its own path and refuses the other *)
  Alcotest.(check bool) "js answers a row" true (answers (Vdb.Udf.apply_row udfs ~name:"a" row));
  Alcotest.(check bool) "native answers a row" true
    (answers (Vdb.Udf.apply_row udfs ~name:"b" row));
  Alcotest.(check bool) "C refuses a row" false (answers (Vdb.Udf.apply_row udfs ~name:"c" row));
  Alcotest.(check bool) "C answers integers" true
    (answers (Vdb.Udf.apply_c udfs ~name:"c" [ 1L ]));
  Alcotest.(check bool) "js refuses integers" false
    (answers (Vdb.Udf.apply_c udfs ~name:"a" [ 1L ]));
  Alcotest.check_raises "unregistered name" (Vdb.Udf.Unknown_udf "d") (fun () ->
      ignore (Vdb.Udf.apply_row udfs ~name:"d" row))

let test_js_to_value_conversions () =
  let udfs, t = setup () in
  (* what a projection returning [v] puts in the first result row *)
  let projected v =
    Vdb.Udf.register_native udfs ~name:"conv" (fun _ -> Ok v);
    match Vdb.Query.select udfs t ~project:"conv" () with
    | Ok (row :: _) -> List.hd row
    | Ok [] -> Alcotest.fail "no rows"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "num" true (projected (V.Num 41.9) = T.Int 41L);
  Alcotest.(check bool) "str" true (projected (V.Str "x") = T.Text "x");
  Alcotest.(check bool) "bool" true (projected (V.Bool true) = T.Int 1L);
  Alcotest.(check bool) "null" true (projected V.Null = T.Int 0L);
  match projected (V.Arr (V.vec_of_list [ V.Num 1.0 ])) with
  | T.Text json -> Alcotest.(check string) "array as json" "[1]" json
  | _ -> Alcotest.fail "expected text"

let () =
  Alcotest.run "vdb"
    [
      ( "tables",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "schema validation" `Quick test_table_schema_validation;
          Alcotest.test_case "row to js" `Quick test_row_to_js_roundtrip;
        ] );
      ( "js-udfs",
        [
          Alcotest.test_case "where per-query" `Quick test_select_where_per_query;
          Alcotest.test_case "where per-row" `Quick test_select_where_per_row;
          Alcotest.test_case "project" `Quick test_select_project;
          Alcotest.test_case "where + project" `Quick test_select_where_and_project;
          Alcotest.test_case "isolation levels agree" `Quick test_isolation_levels_agree;
          Alcotest.test_case "hostile UDF contained" `Quick test_hostile_udf_contained;
          Alcotest.test_case "UDFs isolated from each other" `Quick
            test_udfs_isolated_from_each_other;
          Alcotest.test_case "batch shares state within query" `Quick
            test_batch_mode_shares_state_within_query;
          Alcotest.test_case "unknown UDF" `Quick test_unknown_udf;
          Alcotest.test_case "native baseline" `Quick test_native_udf_baseline;
          Alcotest.test_case "re-registration replaces" `Quick test_js_reregister_replaces;
        ] );
      ( "c-udfs",
        [
          Alcotest.test_case "integer predicate" `Quick test_c_udf;
          Alcotest.test_case "crash contained" `Quick test_c_udf_crash_contained;
          Alcotest.test_case "re-registration replaces" `Quick test_c_reregister_replaces;
        ] );
      ( "conversions",
        [
          Alcotest.test_case "registry kinds" `Quick test_kind_and_registry;
          Alcotest.test_case "js to value" `Quick test_js_to_value_conversions;
        ] );
    ]
