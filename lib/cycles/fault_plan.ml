type trigger =
  | Prob of float
  | Every of { start : int; interval : int }

type site_state = {
  trigger : trigger;
  rng : Rng.t;  (* Prob sites only *)
  mutable opportunities : int;
  mutable injected : int;
}

type t = {
  seed : int;
  order : string list;  (* creation order, for sites/to_string *)
  by_name : (string, site_state) Hashtbl.t;
}

(* FNV-1a over the site name, folded with the plan seed. Hashtbl.hash is
   not stable across compiler versions; the fire pattern must be. *)
let site_seed ~seed name =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    name;
  Int64.to_int (Int64.logxor !h (Int64.of_int seed)) land max_int

let valid_name name =
  name <> ""
  && String.for_all
       (fun c -> not (c = ';' || c = '=' || c = ' ' || c = '\t' || c = '\n' || c = '\r'))
       name

let check_trigger name = function
  | Prob p ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg (Printf.sprintf "Fault_plan: %s: probability %g outside [0, 1]" name p)
  | Every { start; interval } ->
      if start < 0 || interval < 0 then
        invalid_arg (Printf.sprintf "Fault_plan: %s: negative schedule" name)

let create ?(seed = 0xFA17) sites =
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (name, trigger) ->
      if not (valid_name name) then
        invalid_arg (Printf.sprintf "Fault_plan: bad site name %S" name);
      if Hashtbl.mem by_name name then
        invalid_arg (Printf.sprintf "Fault_plan: duplicate site %S" name);
      check_trigger name trigger;
      Hashtbl.replace by_name name
        {
          trigger;
          rng = Rng.create ~seed:(site_seed ~seed name);
          opportunities = 0;
          injected = 0;
        })
    sites;
  { seed; order = List.map fst sites; by_name }

let sites t =
  List.map (fun name -> (name, (Hashtbl.find t.by_name name).trigger)) t.order

let fires t ~site =
  match Hashtbl.find_opt t.by_name site with
  | None -> false
  | Some s ->
      let i = s.opportunities in
      s.opportunities <- i + 1;
      let fire =
        match s.trigger with
        | Prob p -> Rng.float s.rng < p
        | Every { start; interval } ->
            if interval = 0 then i = start
            else i >= start && (i - start) mod interval = 0
      in
      if fire then s.injected <- s.injected + 1;
      fire

let total_injected t =
  Hashtbl.fold (fun _ s acc -> acc + s.injected) t.by_name 0

let trigger_to_string = function
  | Prob p -> Printf.sprintf "p%g" p
  | Every { start; interval } -> Printf.sprintf "@%d+%d" start interval

let to_string t =
  String.concat ";"
    (Printf.sprintf "seed=0x%x" t.seed
    :: List.map
         (fun (name, trig) -> Printf.sprintf "%s=%s" name (trigger_to_string trig))
         (sites t))

let parse_trigger s =
  let n = String.length s in
  if n = 0 then Error "empty trigger"
  else if s.[0] = 'p' then
    match float_of_string_opt (String.sub s 1 (n - 1)) with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
    | Some p -> Error (Printf.sprintf "probability %g outside [0, 1]" p)
    | None -> Error (Printf.sprintf "bad probability %S" s)
  else if s.[0] = '@' then
    match String.index_opt s '+' with
    | None -> (
        match int_of_string_opt (String.sub s 1 (n - 1)) with
        | Some start when start >= 0 -> Ok (Every { start; interval = 0 })
        | Some _ | None -> Error (Printf.sprintf "bad schedule %S" s))
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 1 (i - 1)),
            int_of_string_opt (String.sub s (i + 1) (n - i - 1)) )
        with
        | Some start, Some interval when start >= 0 && interval >= 0 ->
            Ok (Every { start; interval })
        | _ -> Error (Printf.sprintf "bad schedule %S" s))
  else Error (Printf.sprintf "bad trigger %S (want p<float> or @<start>+<interval>)" s)

let of_string text =
  let strip s =
    let s = match String.index_opt s '#' with Some i -> String.sub s 0 i | None -> s in
    String.trim s
  in
  let segments =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ';')
    |> List.map strip
    |> List.filter (fun s -> s <> "")
  in
  let rec go seed acc = function
    | [] -> (
        match List.rev acc with
        | [] -> Error "fault plan names no sites"
        | sites -> (
            match create ?seed sites with
            | plan -> Ok plan
            | exception Invalid_argument msg -> Error msg))
    | seg :: rest -> (
        match String.index_opt seg '=' with
        | None -> Error (Printf.sprintf "bad segment %S (want name=trigger)" seg)
        | Some i -> (
            let key = String.trim (String.sub seg 0 i) in
            let value = String.trim (String.sub seg (i + 1) (String.length seg - i - 1)) in
            if key = "seed" then
              match int_of_string_opt value with
              | Some s -> go (Some s) acc rest
              | None -> Error (Printf.sprintf "bad seed %S" value)
            else
              match parse_trigger value with
              | Ok trig -> go seed ((key, trig) :: acc) rest
              | Error e -> Error (Printf.sprintf "site %s: %s" key e)))
  in
  go None [] segments
