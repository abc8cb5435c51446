(* Helpers shared by perf.exe, compare.exe and smoke.exe: host clock,
   quantiles, and the result-line format. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default 'exclusive' method), so the spreads this tree reports match
   the ones an outside checker computes. Needs at least two values. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Linear-interpolation percentile, p in [0, 100]. *)
let percentile xs p = if Array.length xs = 0 then nan else Stats.Descriptive.percentile xs p

(* A growable float buffer: per-request samples of a run of unknown
   length. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let to_array t = Array.sub t.a 0 t.n
end

(* The last line of every run is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}
   Values keep all their digits ([%.17g]); a value that is not finite
   is written as 0 so the line stays valid JSON. *)
let json_number x =
  if Float.is_finite x then
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* Parsed back with the JSON reader the repo already has. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
  info : (string * string) list;  (** the run's ["# key value"] lines *)
}

let field obj key =
  match obj with
  | Vjs.Jsvalue.Obj h -> Hashtbl.find_opt h key
  | _ -> None

let parse_result_line line =
  match Vjs.Json.parse line with
  | exception Vjs.Jsvalue.Js_error e -> Error e
  | obj -> (
      let num k =
        match field obj k with Some (Vjs.Jsvalue.Num f) -> Some f | _ -> None
      in
      match (field obj "correct", num "attempted", num "failed", field obj "metrics") with
      | Some (Vjs.Jsvalue.Bool correct), Some attempted, Some failed, Some (Vjs.Jsvalue.Obj ms)
        ->
          let metrics =
            Hashtbl.fold
              (fun name v acc ->
                match (field v "value", field v "unit") with
                | Some (Vjs.Jsvalue.Num x), Some (Vjs.Jsvalue.Str u) -> (name, (x, u)) :: acc
                | _ -> acc)
              ms []
          in
          Ok
            {
              correct;
              attempted = int_of_float attempted;
              failed = int_of_float failed;
              metrics = List.sort compare metrics;
              info = [];
            }
      | _ -> Error "result line lacks correct/attempted/failed/metrics")

(* A run's whole stdout: the ["# key value"] info lines plus the final
   result line. *)
let parse_output text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] -> Error "empty output"
  | last :: _ -> (
      match parse_result_line last with
      | Error e -> Error e
      | Ok r ->
          let info =
            List.filter_map
              (fun l ->
                if String.length l > 2 && String.sub l 0 2 = "# " then
                  match String.index_from_opt l 2 ' ' with
                  | Some i ->
                      Some (String.sub l 2 (i - 2), String.sub l (i + 1) (String.length l - i - 1))
                  | None -> None
                else None)
              lines
          in
          Ok { r with info })

(* Run [exe] with [args] to completion: its exit status and stdout. *)
let run_process exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* BENCHMARK.json's metric declarations: (name, unit, better, bound). *)
type decl = { d_name : string; d_unit : string; d_higher : bool; d_bound : float option }

let benchmark_decls path =
  let j = Vjs.Json.parse (read_file path) in
  let decls key =
    match field j key with
    | Some (Vjs.Jsvalue.Arr v) ->
        List.filter_map
          (fun m ->
            match (field m "name", field m "unit", field m "better") with
            | Some (Vjs.Jsvalue.Str n), Some (Vjs.Jsvalue.Str u), Some (Vjs.Jsvalue.Str b) ->
                let bound =
                  match field m "bound" with Some (Vjs.Jsvalue.Num x) -> Some x | _ -> None
                in
                Some { d_name = n; d_unit = u; d_higher = b = "higher"; d_bound = bound }
            | _ -> None)
          (Vjs.Jsvalue.vec_to_list v)
    | _ -> []
  in
  let workloads =
    match field j "workloads" with
    | Some (Vjs.Jsvalue.Arr v) ->
        List.filter_map
          (fun w -> match field w "name" with Some (Vjs.Jsvalue.Str n) -> Some n | _ -> None)
          (Vjs.Jsvalue.vec_to_list v)
    | _ -> []
  in
  (workloads, decls "end_to_end", decls "per_layer")
