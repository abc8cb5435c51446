type counter = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  mutable c_value : int;
  c_bad : int ref;  (* the registry's shared bad-sample tally *)
}

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  mutable g_value : float;
  g_bad : int ref;
}

type exemplar = { e_trace : string; e_value : int64 }

type histogram = {
  h_name : string;
  h_help : string;
  h_labels : (string * string) list;
  h_buckets : int array;
  h_exemplars : exemplar option array;
  mutable h_count : int;
  mutable h_sum : int64;
  mutable h_min : int64;
  mutable h_max : int64;
  h_bad : int ref;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list;  (* newest first *)
  bad : int ref;  (* rejected samples across all series *)
}

let num_buckets = 63

let create () = { tbl = Hashtbl.create 32; order = []; bad = ref 0 }

(* [order] records first registration only: re-registering a key (e.g. a
   lookup racing a replace) must not move it, or exposition order would
   depend on call history rather than creation order. *)
let register t key metric =
  if not (Hashtbl.mem t.tbl key) then t.order <- key :: t.order;
  Hashtbl.replace t.tbl key metric

(* Labeled series live in the same registry as plain ones, keyed by
   name plus the rendered label set so each (name, labels) pair is its
   own find-or-register identity. Unlabeled metrics keep the bare name
   as their key, so [find] by name is unaffected. *)
let series_key name labels =
  match labels with
  | [] -> name
  | _ ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let counter t ?(help = "") ?(labels = []) name =
  let key = series_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ key ^ " is not a counter")
  | None ->
      let c =
        { c_name = name; c_help = help; c_labels = labels; c_value = 0; c_bad = t.bad }
      in
      register t key (Counter c);
      c

let gauge t ?(help = "") ?(labels = []) name =
  let key = series_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ key ^ " is not a gauge")
  | None ->
      let g =
        { g_name = name; g_help = help; g_labels = labels; g_value = 0.0; g_bad = t.bad }
      in
      register t key (Gauge g);
      g

let histogram t ?(help = "") ?(labels = []) name =
  let key = series_key name labels in
  match Hashtbl.find_opt t.tbl key with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ key ^ " is not a histogram")
  | None ->
      let h =
        {
          h_name = name;
          h_help = help;
          h_labels = labels;
          h_buckets = Array.make num_buckets 0;
          h_exemplars = Array.make num_buckets None;
          h_count = 0;
          h_sum = 0L;
          h_min = Int64.max_int;
          h_max = 0L;
          h_bad = t.bad;
        }
      in
      register t key (Histogram h);
      h

(* Bad samples (negative counter increments, NaN gauge values, negative
   histogram observations) never corrupt a series: counters stay
   monotone, gauges keep their last good value, observations clamp to
   zero. Each rejection bumps the registry-wide tally, exported as
   [telemetry_bad_samples_total] once nonzero. *)
let incr ?(by = 1) c =
  if by < 0 then c.c_bad := !(c.c_bad) + 1 else c.c_value <- c.c_value + by

let set g v =
  if Float.is_nan v then g.g_bad := !(g.g_bad) + 1 else g.g_value <- v

(* Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i). *)
let bucket_index v =
  if Int64.compare v 1L < 0 then 0
  else begin
    let v = Int64.to_int v in
    let rec find i = if i >= num_buckets - 1 || v < 1 lsl i then i else find (i + 1) in
    find 1
  end

let bucket_bounds i =
  if i < 0 || i >= num_buckets then invalid_arg "Metrics.bucket_bounds";
  let lo = if i = 0 then 0L else Int64.of_int (1 lsl (i - 1)) in
  let hi = if i >= num_buckets - 1 then Int64.max_int else Int64.of_int (1 lsl i) in
  (lo, hi)

let observe ?exemplar h v =
  let v =
    if Int64.compare v 0L < 0 then begin
      h.h_bad := !(h.h_bad) + 1;
      0L
    end
    else v
  in
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  (match exemplar with
  | Some trace -> h.h_exemplars.(i) <- Some { e_trace = trace; e_value = v }
  | None -> ());
  h.h_count <- h.h_count + 1;
  h.h_sum <- Int64.add h.h_sum v;
  if Int64.compare v h.h_min < 0 then h.h_min <- v;
  if Int64.compare v h.h_max > 0 then h.h_max <- v

let nonempty_buckets h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then begin
      let lo, hi = bucket_bounds i in
      acc := (lo, hi, h.h_buckets.(i)) :: !acc
    end
  done;
  !acc

let cumulative_buckets h =
  let cum = ref 0 in
  List.map
    (fun (_, hi, c) ->
      cum := !cum + c;
      (hi, !cum))
    (nonempty_buckets h)

(* Exemplars aligned with [cumulative_buckets]: one (upper bound,
   exemplar) pair per occupied bucket that recorded one. *)
let bucket_exemplars h =
  let acc = ref [] in
  for i = num_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then
      match h.h_exemplars.(i) with
      | Some e ->
          let _, hi = bucket_bounds i in
          acc := (hi, e) :: !acc
      | None -> ()
  done;
  !acc

(* [telemetry_bad_samples_total] materializes lazily, on the first read
   after a rejection: registering it eagerly in [create] would put it at
   the head of every exposition whether or not anything misbehaved. *)
let sync_bad t =
  if !(t.bad) > 0 then begin
    let key = "telemetry_bad_samples_total" in
    let c =
      match Hashtbl.find_opt t.tbl key with
      | Some (Counter c) -> c
      | Some _ | None ->
          let c =
            {
              c_name = key;
              c_help = "samples rejected by the registry (negative increment, NaN gauge, negative observation)";
              c_labels = [];
              c_value = 0;
              c_bad = t.bad;
            }
          in
          register t key (Counter c);
          c
    in
    c.c_value <- !(t.bad)
  end

let find t name =
  sync_bad t;
  Hashtbl.find_opt t.tbl name

let to_list t =
  sync_bad t;
  List.rev_map (fun name -> Hashtbl.find t.tbl name) t.order
