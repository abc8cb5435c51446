(* compare.exe: judge a change against its parent from paired runs.

     compare.exe [--benchmark BENCHMARK.json] [--claim METRIC@WORKLOAD]
                 PARENT_DIR CHANGE_DIR

   Each directory holds the stdout of single runs, one file per run,
   named WORKLOAD.N.out; run N of the parent and run N of the change
   form a pair (run at least ten pairs, alternating which side goes
   first). For the claimed metric on the claimed workload, a gain needs
   the change to win at least nine tenths of the pairs (ties count for
   neither) and the medians to differ by more than the parent's
   interquartile range. Every other end-to-end metric must not be worse
   than the parent's median by more than its bound from BENCHMARK.json;
   where the parent's own spread exceeds the bound the metric is
   unresolved, unless every change run beats every parent run. One row
   per workload; exit status 1 when anything regressed or the claim was
   not met. *)

type verdict = Improved | Unchanged | Regressed | Unresolved | Not_met

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Not_met -> "claim not met"

(* worst first, for the per-workload row *)
let severity = function
  | Regressed -> 4
  | Not_met -> 3
  | Unresolved -> 2
  | Improved -> 1
  | Unchanged -> 0

let runs dir workload =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         match String.split_on_char '.' f with
         | [ w; n; "out" ] when w = workload -> (
             match int_of_string_opt n with
             | Some n -> (
                 match Util.parse_output (Util.read_file (Filename.concat dir f)) with
                 | Ok r -> Some (n, r)
                 | Error e -> failwith (Printf.sprintf "%s/%s: %s" dir f e))
             | None -> None)
         | _ -> None)
  |> List.sort compare

let value (r : Util.result) name =
  match List.assoc_opt name r.Util.metrics with
  | Some (v, _) -> v
  | None -> failwith ("a run lacks metric " ^ name)

let judge (d : Util.decl) ~claimed parent change =
  let p = Array.of_list parent and c = Array.of_list change in
  let q1, mp, q3 = Util.quartiles p in
  let mc = Util.median c in
  (* positive when [a] is better than [b] *)
  let gain a b = if d.Util.d_higher then a -. b else b -. a in
  let pairs = Array.length p in
  let wins = ref 0 in
  Array.iteri (fun i x -> if gain c.(i) x > 0.0 then incr wins) p;
  let all_better =
    Array.for_all (fun x -> Array.for_all (fun y -> gain x y > 0.0) p) c
  in
  let bound = Option.value ~default:0.0 d.Util.d_bound in
  let v =
    if claimed then
      if 10 * !wins >= 9 * pairs && gain mc mp > q3 -. q1 then Improved else Not_met
    else if gain mc mp < -.(bound *. Float.abs mp) then Regressed
    else if (q3 -. q1) > bound *. Float.abs mp && not all_better then Unresolved
    else Unchanged
  in
  (v, (mp, q1, q3), mc, !wins, pairs)

let () =
  let bench = ref "BENCHMARK.json" and claim = ref "" and dirs = ref [] in
  Arg.parse
    [
      ( "--benchmark",
        Arg.Set_string bench,
        "FILE the benchmark definition (default BENCHMARK.json)" );
      ("--claim", Arg.Set_string claim, "METRIC@WORKLOAD the gain the change claims");
    ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--benchmark FILE] [--claim METRIC@WORKLOAD] PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir =
    match !dirs with
    | [ p; c ] -> (p, c)
    | _ ->
        prerr_endline "compare.exe: need PARENT_DIR and CHANGE_DIR";
        exit 2
  in
  let claim_metric, claim_workload =
    match String.split_on_char '@' !claim with [ m; w ] -> (m, w) | _ -> ("", "")
  in
  let workloads, e2e, _ = Util.benchmark_decls !bench in
  let known =
    List.mem claim_workload workloads
    && List.exists (fun d -> d.Util.d_name = claim_metric) e2e
  in
  if !claim <> "" && not known then begin
    Printf.eprintf "compare.exe: --claim %s names no end-to-end metric and workload\n" !claim;
    exit 2
  end;
  let bad = ref false in
  Printf.printf "%-11s %-13s %-15s %28s %28s %6s  %s\n" "workload" "row" "metric"
    "parent median [q1, q3]" "change median" "wins" "verdict";
  List.iter
    (fun workload ->
      let pr = runs parent_dir workload and cr = runs change_dir workload in
      let paired =
        List.filter_map (fun (n, p) -> Option.map (fun c -> (p, c)) (List.assoc_opt n cr)) pr
      in
      if List.length paired < 2 then
        Printf.printf "%-11s %-13s (fewer than two pairs)\n" workload "-"
      else begin
        if List.length paired < 10 then
          Printf.printf "%-11s note: %d pairs; a gain needs at least ten\n" workload
            (List.length paired);
        let ps = List.map fst paired and cs = List.map snd paired in
        let wrong = List.exists (fun (r : Util.result) -> not r.Util.correct) (ps @ cs) in
        let failed rs = List.fold_left (fun a (r : Util.result) -> a + r.Util.failed) 0 rs in
        let rows =
          List.map
            (fun (d : Util.decl) ->
              let claimed = d.Util.d_name = claim_metric && workload = claim_workload in
              let v, (mp, q1, q3), mc, wins, n =
                judge d ~claimed
                  (List.map (fun r -> value r d.Util.d_name) ps)
                  (List.map (fun r -> value r d.Util.d_name) cs)
              in
              (* a gain does not count when more operations fail *)
              let v = if v = Improved && failed cs > failed ps then Not_met else v in
              (d.Util.d_name, v, mp, q1, q3, mc, wins, n))
            e2e
        in
        let row =
          if wrong then "wrong output"
          else
            verdict_name
              (List.fold_left
                 (fun acc (_, v, _, _, _, _, _, _) -> if severity v > severity acc then v else acc)
                 Unchanged rows)
        in
        if wrong then bad := true;
        List.iter
          (fun (name, v, mp, q1, q3, mc, wins, n) ->
            if v = Regressed || v = Not_met then bad := true;
            Printf.printf "%-11s %-13s %-15s %12.4g [%.4g, %.4g] %28.4g %3d/%-2d  %s\n" workload row
              name mp q1 q3 mc wins n (verdict_name v))
          rows
      end)
    workloads;
  exit (if !bad then 1 else 0)
