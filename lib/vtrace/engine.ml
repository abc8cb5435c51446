type compiled = {
  index : int;
  cspec : Lang.probe;
  pred : Ctx.t -> bool;
  by : string list;
  operand : string option;
  agg : Agg.t;
  budget : int;
  mutable fired : int;
  mutable dropped : int;
}

type t = {
  probes : compiled array;
  by_site : (string, compiled list) Hashtbl.t;
  mutable metrics : Telemetry.Metrics.t option;
  mutable total_fires : int;
  mutable budget_drops : int;
  mutable key_drops : int;
  (* drops already counted into a registry, per kind *)
  mutable pushed_budget_drops : int;
  mutable pushed_key_drops : int;
}

(* ------------------------------------------------------------- compile *)

let compile_term = function
  | Lang.Field f -> fun ctx -> Ctx.get ctx f
  | Lang.Lit (Lang.Int i) -> fun _ -> Ctx.Int i
  | Lang.Lit (Lang.Str s) -> fun _ -> Ctx.Str s

let cmp_values op a b =
  match (a, b) with
  | Ctx.Int x, Ctx.Int y -> (
      let c = Int64.compare x y in
      match op with
      | Lang.Eq -> c = 0
      | Lang.Ne -> c <> 0
      | Lang.Lt -> c < 0
      | Lang.Le -> c <= 0
      | Lang.Gt -> c > 0
      | Lang.Ge -> c >= 0)
  | Ctx.Str x, Ctx.Str y -> (
      match op with
      | Lang.Eq -> String.equal x y
      | Lang.Ne -> not (String.equal x y)
      | _ -> false)
  | _ -> false

let rec compile_pred = function
  | Lang.True -> fun _ -> true
  | Lang.Not p ->
      let f = compile_pred p in
      fun ctx -> not (f ctx)
  | Lang.And (a, b) ->
      let fa = compile_pred a and fb = compile_pred b in
      fun ctx -> fa ctx && fb ctx
  | Lang.Or (a, b) ->
      let fa = compile_pred a and fb = compile_pred b in
      fun ctx -> fa ctx || fb ctx
  | Lang.Cmp (l, op, r) ->
      let fl = compile_term l and fr = compile_term r in
      fun ctx -> cmp_values op (fl ctx) (fr ctx)

let create ?(budget = 1_000_000) ?key_capacity ?sample_cap spec =
  let probes =
    Array.of_list
      (List.mapi
         (fun index (p : Lang.probe) ->
           {
             index;
             cspec = p;
             pred = compile_pred p.pred;
             by = p.action.by;
             operand = p.action.operand;
             agg = Agg.create ?key_capacity ?sample_cap p.action.agg;
             budget;
             fired = 0;
             dropped = 0;
           })
         spec)
  in
  let by_site = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      let prev =
        Option.value (Hashtbl.find_opt by_site c.cspec.Lang.site) ~default:[]
      in
      (* keep spec order within a site *)
      Hashtbl.replace by_site c.cspec.Lang.site (prev @ [ c ]))
    probes;
  {
    probes;
    by_site;
    metrics = None;
    total_fires = 0;
    budget_drops = 0;
    key_drops = 0;
    pushed_budget_drops = 0;
    pushed_key_drops = 0;
  }

let of_string ?budget ?key_capacity ?sample_cap src =
  match Lang.parse src with
  | Error _ as e -> e
  | Ok spec -> Ok (create ?budget ?key_capacity ?sample_cap spec)

let spec t = Array.to_list (Array.map (fun c -> c.cspec) t.probes)
let wants t site = Hashtbl.mem t.by_site site
let set_metrics t m = t.metrics <- m

let drops_help = "probe firings dropped (budget exhausted or key table full)"

let drop t p kind =
  p.dropped <- p.dropped + 1;
  (match kind with
  | `Budget -> t.budget_drops <- t.budget_drops + 1
  | `Keys -> t.key_drops <- t.key_drops + 1);
  match t.metrics with
  | None -> ()
  | Some m ->
      let label = match kind with `Budget -> "budget" | `Keys -> "keys" in
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter m ~help:drops_help
           ~labels:[ ("kind", label) ] "vtrace_drops_total");
      (match kind with
      | `Budget -> t.pushed_budget_drops <- t.pushed_budget_drops + 1
      | `Keys -> t.pushed_key_drops <- t.pushed_key_drops + 1)

(* ---------------------------------------------------------------- fire *)

let fire t ctx =
  match Hashtbl.find_opt t.by_site ctx.Ctx.site with
  | None -> 0
  | Some ps ->
      List.fold_left
        (fun matched p ->
          if not (p.pred ctx) then matched
          else begin
            if p.fired >= p.budget then drop t p `Budget
            else begin
              let key = List.map (fun f -> Ctx.render ctx f) p.by in
              let v =
                match p.operand with
                | None -> 1L
                | Some f -> (
                    match Ctx.get ctx f with Ctx.Int i -> i | Ctx.Str _ -> 0L)
              in
              if Agg.observe p.agg ~key v then begin
                p.fired <- p.fired + 1;
                t.total_fires <- t.total_fires + 1
              end
              else drop t p `Keys
            end;
            matched + 1
          end)
        0 ps

let fires t = t.total_fires
let drops t = t.budget_drops + t.key_drops

let values t ~probe =
  let p = t.probes.(probe) in
  List.map (fun (key, cell) -> (key, Agg.value p.agg cell)) (Agg.cells p.agg)

(* Flattened per-site firing map: one "site|probe#|key,key" feature per
   aggregation cell, plus a "site|probe#" fire count per probe. The
   fuzzer hashes these (feature, value) pairs into its coverage bitmap;
   the rendering is deterministic (spec order, then key insertion
   order), so identical executions export identical coverage. *)
let coverage t =
  Array.to_list t.probes
  |> List.concat_map (fun p ->
         let prefix = Printf.sprintf "%s|%d" p.cspec.Lang.site p.index in
         (prefix, float_of_int p.fired)
         :: List.map
              (fun (key, cell) ->
                (prefix ^ "|" ^ String.concat "," key, Agg.value p.agg cell))
              (Agg.cells p.agg))

(* -------------------------------------------------------------- output *)

let agg_column p =
  match p.operand with
  | None -> Lang.agg_name p.cspec.Lang.action.Lang.agg
  | Some f ->
      Printf.sprintf "%s(%s)" (Lang.agg_name p.cspec.Lang.action.Lang.agg) f

let format_value agg v =
  match agg with
  | Lang.Avg | Lang.Quantile _ -> Printf.sprintf "%.2f" v
  | _ -> Printf.sprintf "%.0f" v

let hist_entries samples =
  let counts = Array.make 64 0 in
  List.iter
    (fun s ->
      let i = Telemetry.Metrics.bucket_index (Int64.of_float s) in
      counts.(i) <- counts.(i) + 1)
    samples;
  let acc = ref [] in
  for i = Array.length counts - 1 downto 0 do
    if counts.(i) > 0 then begin
      let lo, hi = Telemetry.Metrics.bucket_bounds i in
      let label =
        if Int64.equal hi Int64.max_int then Printf.sprintf "[%Ld,inf)" lo
        else Printf.sprintf "[%Ld,%Ld)" lo hi
      in
      acc := (label, counts.(i)) :: !acc
    end
  done;
  !acc

let render t =
  let buf = Buffer.create 512 in
  Array.iter
    (fun p ->
      let aggfun = p.cspec.Lang.action.Lang.agg in
      let title =
        Printf.sprintf "vtrace probe %d: %s" p.index
          (Lang.probe_to_string p.cspec)
      in
      let header = p.by @ [ agg_column p ] in
      let rows =
        List.map
          (fun (key, cell) -> key @ [ format_value aggfun (Agg.value p.agg cell) ])
          (Agg.cells p.agg)
      in
      let rows = if rows = [] then [ List.map (fun _ -> "-") header ] else rows in
      Buffer.add_string buf (Stats.Report.table ~title ~header rows);
      Buffer.add_string buf
        (Printf.sprintf "fires=%d drops=%d\n" p.fired p.dropped);
      (match aggfun with
      | Lang.Hist ->
          List.iter
            (fun (key, cell) ->
              let label =
                if key = [] then "all" else String.concat "," key
              in
              Buffer.add_string buf
                (Stats.Report.histogram
                   ~title:(Printf.sprintf "hist %s" label)
                   (hist_entries (List.rev cell.Agg.samples))))
            (Agg.cells p.agg)
      | _ -> ());
      Buffer.add_char buf '\n')
    t.probes;
  Buffer.contents buf

let folded t =
  let buf = Buffer.create 256 in
  Array.iter
    (fun p ->
      let aggfun = p.cspec.Lang.action.Lang.agg in
      List.iter
        (fun (key, cell) ->
          let stack =
            String.concat ";" (p.cspec.Lang.site :: key)
          in
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" stack
               (format_value aggfun (Agg.value p.agg cell))))
        (Agg.cells p.agg))
    t.probes;
  Buffer.contents buf

let export t m =
  Array.iter
    (fun p ->
      let aggfun = p.cspec.Lang.action.Lang.agg in
      let family =
        Printf.sprintf "vtrace_%s_%s" p.cspec.Lang.site (Lang.agg_name aggfun)
      in
      List.iter
        (fun (key, cell) ->
          let labels =
            ("probe", string_of_int p.index)
            :: List.map2 (fun f k -> (f, k)) p.by key
          in
          let g =
            Telemetry.Metrics.gauge m ~help:"vtrace probe aggregate" ~labels
              family
          in
          Telemetry.Metrics.set g (Agg.value p.agg cell))
        (Agg.cells p.agg))
    t.probes;
  let push kind total pushed commit =
    let delta = total - pushed in
    if delta > 0 then begin
      Telemetry.Metrics.incr ~by:delta
        (Telemetry.Metrics.counter m ~help:drops_help
           ~labels:[ ("kind", kind) ] "vtrace_drops_total");
      commit total
    end
  in
  push "budget" t.budget_drops t.pushed_budget_drops (fun n ->
      t.pushed_budget_drops <- n);
  push "keys" t.key_drops t.pushed_key_drops (fun n -> t.pushed_key_drops <- n)
