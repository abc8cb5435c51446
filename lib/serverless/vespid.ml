type t = { wasp : Wasp.Runtime.t; functions : (string, Vjs.Isolate.t) Hashtbl.t }

exception Unknown_function of string

let create wasp = { wasp; functions = Hashtbl.create 8 }

let runtime t = t.wasp

let register t ~name ~source ~entry =
  Hashtbl.replace t.functions name
    (Vjs.Isolate.create t.wasp ~key:("vespid:" ^ name) ~source ~entry)

let registered t = Hashtbl.fold (fun k _ acc -> k :: acc) t.functions [] |> List.sort compare

let invoke_timed t ~name ~input =
  match Hashtbl.find_opt t.functions name with
  | Some isolate ->
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

let invoke t ~name ~input = fst (invoke_timed t ~name ~input)
