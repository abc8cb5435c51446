type align = Left | Right

(* the length of the longest bar, in characters *)
let bar_width = 50

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let table ?title ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Report.table: row width mismatch")
    rows;
  let aligns = List.mapi (fun i _ -> if i = 0 then Left else Right) header in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let render_row row =
    let cells =
      List.mapi (fun i cell -> pad (List.nth aligns i) (List.nth widths i) cell) row
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule = "|" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|" in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let bar_chart ?title ?(log = false) entries =
  let value (_, v) =
    if log then begin
      if v <= 0.0 then invalid_arg "Report.bar_chart: log of nonpositive value";
      log10 v
    end
    else v
  in
  let vmax = List.fold_left (fun acc e -> max acc (value e)) 0.0 entries in
  let label_w = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun ((label, raw) as e) ->
      let v = value e in
      let n =
        if vmax <= 0.0 then 0 else max 1 (int_of_float (v /. vmax *. float_of_int bar_width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s %.1f\n" (pad Left label_w label) (String.make n '#') raw))
    entries;
  Buffer.contents buf

let percentile_table ?title ?(unit_label = "") ?slo rows =
  let u = if unit_label = "" then "" else Printf.sprintf " (%s)" unit_label in
  let slo_header = match slo with None -> [] | Some _ -> [ "slo p99" ^ u; "slo" ] in
  let header =
    [ "label"; "n"; "p50" ^ u; "p90" ^ u; "p99" ^ u; "p99.9" ^ u; "max" ^ u ]
    @ slo_header
  in
  let fmt v = Printf.sprintf "%.2f" v in
  (* Verdict against the row's declared p99 target; rows without a
     target (or without samples) show a dash. *)
  let verdict label xs =
    match slo with
    | None -> []
    | Some targets -> (
        match List.assoc_opt label targets with
        | None -> [ "-"; "-" ]
        | Some target ->
            if Array.length xs = 0 then [ fmt target; "-" ]
            else if Descriptive.percentile xs 99.0 <= target then [ fmt target; "met" ]
            else [ fmt target; "MISSED" ])
  in
  let body =
    List.map
      (fun (label, xs) ->
        if Array.length xs = 0 then
          [ label; "0"; "-"; "-"; "-"; "-"; "-" ] @ verdict label xs
        else
          [
            label;
            string_of_int (Array.length xs);
            fmt (Descriptive.percentile xs 50.0);
            fmt (Descriptive.percentile xs 90.0);
            fmt (Descriptive.percentile xs 99.0);
            fmt (Descriptive.percentile xs 99.9);
            fmt (Descriptive.maximum xs);
          ]
          @ verdict label xs)
      rows
  in
  table ?title ~header body

let histogram ?title entries =
  let cmax = List.fold_left (fun acc (_, c) -> max acc c) 0 entries in
  let label_w = List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries in
  let count_w =
    List.fold_left (fun acc (_, c) -> max acc (String.length (string_of_int c))) 0 entries
  in
  let buf = Buffer.create 256 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun (label, count) ->
      let n =
        if cmax <= 0 || count <= 0 then 0
        else max 1 (count * bar_width / cmax)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s\n" (pad Left label_w label)
           (pad Right count_w (string_of_int count))
           (String.make n '#')))
    entries;
  Buffer.contents buf

let section name =
  let bar = String.make (String.length name + 8) '=' in
  Printf.sprintf "\n%s\n=== %s ===\n%s\n" bar name bar
