type t = { wasp : Wasp.Runtime.t; functions : (string, Vjs.Isolate.t) Hashtbl.t }

exception Unknown_function of string

let create wasp = { wasp; functions = Hashtbl.create 8 }

let runtime t = t.wasp

(* A native payload's snapshot cannot tell one source from another, so a
   registration that replaces another drops the old one's snapshot. *)
let register t ~name ~source ~entry =
  let key = "vespid:" ^ name in
  if Hashtbl.mem t.functions name then Wasp.Runtime.drop_snapshot t.wasp ~key;
  Hashtbl.replace t.functions name (Vjs.Isolate.create t.wasp ~key ~source ~entry)

let registered t = Hashtbl.fold (fun k _ acc -> k :: acc) t.functions [] |> List.sort compare
let mem t ~name = Hashtbl.mem t.functions name

let on_home_core t ~name =
  match Hashtbl.find_opt t.functions name with
  | Some isolate -> Vjs.Isolate.on_home_core isolate
  | None -> ()

let invoke_timed t ~name ~input =
  match Hashtbl.find_opt t.functions name with
  | Some isolate ->
      (* the span opens on the core the invocation runs on *)
      Vjs.Isolate.on_home_core isolate;
      let sys = Wasp.Runtime.kvm t.wasp in
      let hub = Kvmsim.Kvm.hub_attached sys in
      Kvmsim.Kvm.span sys ~args:(if hub then [ ("function", name) ] else []) "invoke" (fun () ->
          let outcome, cycles = Vjs.Isolate.invoke isolate ~input in
          Kvmsim.Kvm.count sys "vespid_invocations_total";
          (* the per-function series shares the family and carries the
             same exemplar, so a tail bucket names both the function and
             a trace that landed there *)
          Kvmsim.Kvm.sample sys "vespid_invoke_cycles" cycles;
          if hub then Kvmsim.Kvm.sample sys ~labels:[ ("fn", name) ] "vespid_invoke_cycles" cycles;
          (match outcome with
          | Error _ -> Kvmsim.Kvm.count sys "vespid_errors_total"
          | Ok _ -> ());
          (outcome, cycles))
  | None -> raise (Unknown_function name)

