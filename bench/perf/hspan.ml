(* Host-time spans the benchmark records around its own calls into the
   library (traced runs only; every entry point is a no-op until
   [enable]). Spans are kept in memory and written out at exit as a
   Chrome trace. Self time is a span's duration minus the part its
   children cover, so the self times of one request's span tree sum to
   the request's duration. *)

type frame = { name : string; t0 : int; mutable child : int; first_rec : int }

type agg = { mutable calls : int; mutable total_ns : int; mutable self_ns : int }

type record = { r_name : string; r_t0 : int; r_dur : int; r_depth : int; mutable r_req : int }

let on = ref false
let stack : frame list ref = ref []
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* spans retained for the Chrome trace; beyond the cap only aggregates
   are kept *)
let cap = 400_000
let records : record array ref = ref [||]
let nrec = ref 0
let dropped = ref 0

let enable () = on := true

let reset () =
  Hashtbl.reset aggs;
  stack := [];
  nrec := 0;
  dropped := 0

let enter name =
  if !on then stack := { name; t0 = Util.now_ns (); child = 0; first_rec = !nrec } :: !stack

let push_record r =
  if !nrec >= cap then incr dropped
  else begin
    if !nrec = Array.length !records then begin
      let bigger = Array.make (max 1024 (2 * !nrec)) r in
      Array.blit !records 0 bigger 0 !nrec;
      records := bigger
    end;
    !records.(!nrec) <- r;
    incr nrec
  end

(* Close the innermost span. [req] (given on a root span) stamps the
   root and every span recorded under it with the request id. *)
let leave ?req () =
  if !on then
    match !stack with
    | [] -> ()
    | f :: rest ->
        let dur = Util.now_ns () - f.t0 in
        stack := rest;
        (match rest with p :: _ -> p.child <- p.child + dur | [] -> ());
        let a =
          match Hashtbl.find_opt aggs f.name with
          | Some a -> a
          | None ->
              let a = { calls = 0; total_ns = 0; self_ns = 0 } in
              Hashtbl.replace aggs f.name a;
              a
        in
        a.calls <- a.calls + 1;
        a.total_ns <- a.total_ns + dur;
        a.self_ns <- a.self_ns + (dur - f.child);
        push_record
          { r_name = f.name; r_t0 = f.t0; r_dur = dur; r_depth = List.length rest; r_req = -1 };
        match req with
        | Some id ->
            for i = f.first_rec to !nrec - 1 do
              !records.(i).r_req <- id
            done
        | None -> ()

let span name f =
  if not !on then f ()
  else begin
    enter name;
    match f () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  end

let find name = Hashtbl.find_opt aggs name

(* Mean inclusive microseconds per call (0 for a span never entered). *)
let mean_us name =
  match find name with
  | Some a when a.calls > 0 -> float_of_int a.total_ns /. float_of_int a.calls /. 1e3
  | Some _ | None -> 0.0

let total_ns name = match find name with Some a -> a.total_ns | None -> 0
let self_us name = match find name with Some a -> float_of_int a.self_ns /. 1e3 | None -> 0.0

(* The self-time table over every span name seen, largest first:
   (name, calls, self_ns). *)
let self_table () =
  Hashtbl.fold (fun name a acc -> (name, a.calls, a.self_ns) :: acc) aggs []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

let write_chrome path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      (* records are kept in closing order; the earliest start is the origin *)
      let base = ref max_int in
      for i = 0 to !nrec - 1 do
        base := min !base !records.(i).r_t0
      done;
      let base = !base in
      for i = 0 to !nrec - 1 do
        let r = !records.(i) in
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
           \"args\":{\"req\":%d,\"depth\":%d}}"
          r.r_name
          (float_of_int (r.r_t0 - base) /. 1e3)
          (float_of_int r.r_dur /. 1e3)
          r.r_req r.r_depth
      done;
      output_string oc "\n]}\n")
