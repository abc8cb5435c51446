type cell = {
  mutable n : int;
  mutable sum : int64;
  mutable mn : int64;
  mutable mx : int64;
  mutable samples : float list;
  mutable sample_drops : int;
}

type t = {
  agg : Lang.aggfun;
  keep_samples : bool;
  sample_cap : int;
  key_capacity : int;
  tbl : (string list, cell) Hashtbl.t;
  mutable order : string list list; (* newest first *)
  mutable nkeys : int;
  mutable key_drops : int;
}

let create ?(key_capacity = 512) ?(sample_cap = 8192) agg =
  let keep_samples =
    match agg with Lang.Hist | Lang.Quantile _ -> true | _ -> false
  in
  {
    agg;
    keep_samples;
    sample_cap;
    key_capacity;
    tbl = Hashtbl.create 16;
    order = [];
    nkeys = 0;
    key_drops = 0;
  }

let update t c v =
  c.n <- c.n + 1;
  c.sum <- Int64.add c.sum v;
  if Int64.compare v c.mn < 0 then c.mn <- v;
  if Int64.compare v c.mx > 0 then c.mx <- v;
  if t.keep_samples then
    if c.n - c.sample_drops <= t.sample_cap then
      c.samples <- Int64.to_float v :: c.samples
    else c.sample_drops <- c.sample_drops + 1

let observe t ~key v =
  match Hashtbl.find_opt t.tbl key with
  | Some c ->
      update t c v;
      true
  | None ->
      if t.nkeys >= t.key_capacity then begin
        t.key_drops <- t.key_drops + 1;
        false
      end
      else begin
        let c =
          { n = 0; sum = 0L; mn = v; mx = v; samples = []; sample_drops = 0 }
        in
        Hashtbl.add t.tbl key c;
        t.order <- key :: t.order;
        t.nkeys <- t.nkeys + 1;
        update t c v;
        true
      end

let value t c =
  match t.agg with
  | Lang.Count | Lang.Hist -> float_of_int c.n
  | Lang.Sum -> Int64.to_float c.sum
  | Lang.Min -> Int64.to_float c.mn
  | Lang.Max -> Int64.to_float c.mx
  | Lang.Avg -> if c.n = 0 then 0.0 else Int64.to_float c.sum /. float_of_int c.n
  | Lang.Quantile q ->
      if c.samples = [] then 0.0
      else Stats.Descriptive.percentile (Array.of_list c.samples) q

let cells t =
  List.rev_map (fun key -> (key, Hashtbl.find t.tbl key)) t.order

let find t key = Hashtbl.find_opt t.tbl key
let key_drops t = t.key_drops
