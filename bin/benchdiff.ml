(* benchdiff: the CI bench gate.

     benchdiff --baseline bench/baselines --fresh /tmp/bench-out fig12 memshare

   Compares freshly generated BENCH_<fig>.json files (bench/main.exe
   --json-out) against the committed baselines, cell for cell and with
   no tolerance: every figure is simulated on the virtual clock, so the
   same code prints the same cells. Each differing cell is named
   (figure, table, row, column, baseline and fresh values). Exit 0 =
   identical, 1 = some cell differs, 2 = a missing or malformed file, a
   changed shape (table count, title, header or row count), or a usage
   error. An intended change lands by regenerating the baselines
   with `make bench-baselines`. *)

open Cmdliner

exception Shape of string

(* The differing cells' descriptions, in table order; raises [Shape] on
   a changed shape. Every row is as wide as its header (Bench_json.read
   checks it), so equal headers and row counts mean equal shapes. *)
let compare_fig fig baseline fresh =
  let shape fmt = Printf.ksprintf (fun m -> raise (Shape m)) fmt in
  let nb = List.length baseline and nf = List.length fresh in
  if nb <> nf then shape "%s: %d tables in baseline, %d fresh" fig nb nf;
  let diffs = ref [] in
  List.iteri
    (fun ti ((b : Bench_json.table), (f : Bench_json.table)) ->
      let where =
        match b.title with
        | Some t -> Printf.sprintf "%s table %d (%s)" fig ti t
        | None -> Printf.sprintf "%s table %d" fig ti
      in
      if b.title <> f.title then shape "%s: title changed" where;
      if b.header <> f.header then shape "%s: header changed" where;
      let rb = List.length b.rows and rf = List.length f.rows in
      if rb <> rf then shape "%s: %d rows in baseline, %d fresh" where rb rf;
      List.iteri
        (fun ri (br, fr) ->
          List.iter2
            (fun (col, bc) fc ->
              if bc <> fc then
                diffs :=
                  Printf.sprintf "%s, row %d (%s), column %S: baseline %S, fresh %S" where
                    ri (List.hd br) col bc fc
                  :: !diffs)
            (List.combine b.header br) fr)
        (List.combine b.rows f.rows))
    (List.combine baseline fresh);
  List.rev !diffs

(* 0 identical, 1 differing cells, 2 unreadable file or changed shape *)
let check_fig baseline_dir fresh_dir fig =
  let read dir = Bench_json.read (Filename.concat dir (Bench_json.file fig)) in
  match (read baseline_dir, read fresh_dir) with
  | Error m, _ ->
      Printf.eprintf "UNREADABLE baseline %s\n" m;
      2
  | _, Error m ->
      Printf.eprintf "UNREADABLE fresh %s\n" m;
      2
  | Ok b, Ok f -> (
      match compare_fig fig b f with
      | [] ->
          Printf.printf "%s: identical to baseline\n" fig;
          0
      | diffs ->
          List.iter (Printf.eprintf "DIFF %s\n") diffs;
          1
      | exception Shape m ->
          Printf.eprintf "SHAPE %s\n" m;
          2)

let run baseline_dir fresh_dir figs =
  if figs = [] then begin
    prerr_endline "benchdiff: name at least one figure (e.g. fig12 memshare)";
    2
  end
  else
    match
      List.fold_left max 0 (List.map (check_fig baseline_dir fresh_dir) figs)
    with
    | 0 -> 0
    | status ->
        prerr_endline
          "benchdiff: fresh output differs from the baselines -- if the change is \
           intended, regenerate them with `make bench-baselines` and commit the diff";
        status

let () =
  let baseline =
    Arg.(
      value
      & opt string "bench/baselines"
      & info [ "baseline" ] ~docv:"DIR" ~doc:"Directory of committed BENCH_*.json baselines")
  in
  let fresh =
    Arg.(
      required
      & opt (some string) None
      & info [ "fresh" ] ~docv:"DIR" ~doc:"Directory of freshly generated BENCH_*.json")
  in
  let figs = Arg.(value & pos_all string [] & info [] ~docv:"FIG") in
  let cmd =
    Cmd.v
      (Cmd.info "benchdiff" ~doc:"compare bench JSON outputs against committed baselines")
      Term.(const run $ baseline $ fresh $ figs)
  in
  exit (Cmd.eval' cmd)
