type t = {
  site : string;
  core : int;
  trace : int64 option;
  fn : string;
  pc : int;
  reason : string;
  cycles : int64;
  fuel : int;
  nr : int64;
}

type value = Int of int64 | Str of string

let fields =
  [ "site"; "core"; "trace_id"; "fn"; "pc"; "reason"; "cycles"; "fuel"; "nr" ]

let canonical name =
  match name with
  | "hc_nr" | "arg" | "page" | "port" -> Some "nr"
  | "trace" -> Some "trace_id"
  | f -> if List.mem f fields then Some f else None

let is_numeric = function "site" | "fn" | "reason" -> false | _ -> true

let get ctx = function
  | "site" -> Str ctx.site
  | "core" -> Int (Int64.of_int ctx.core)
  | "trace_id" -> Int (Option.value ctx.trace ~default:0L)
  | "fn" -> Str ctx.fn
  | "pc" -> Int (Int64.of_int ctx.pc)
  | "reason" -> Str ctx.reason
  | "cycles" -> Int ctx.cycles
  | "fuel" -> Int (Int64.of_int ctx.fuel)
  | "nr" -> Int ctx.nr
  | f -> invalid_arg ("Vtrace.Ctx.get: unknown field " ^ f)

let render ctx field =
  match (field, get ctx field) with
  | _, Str s -> if s = "" then "-" else s
  | "trace_id", Int _ -> (
      match ctx.trace with
      | Some id -> Printf.sprintf "%016Lx" id
      | None -> "-")
  | "pc", Int i -> Printf.sprintf "0x%Lx" i
  | _, Int i -> Int64.to_string i
