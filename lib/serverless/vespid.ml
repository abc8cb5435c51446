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
  | Some isolate -> (
      let go () =
        let outcome, cycles = Vjs.Isolate.invoke isolate ~input in
        let sys = Wasp.Runtime.kvm t.wasp in
        Kvmsim.Kvm.count sys "vespid_invocations_total";
        (match Wasp.Runtime.telemetry t.wasp with
        | Some hub ->
            Telemetry.Hub.observe hub "vespid_invoke_cycles" cycles;
            (* the per-function series shares the family and carries the
               same exemplar, so a tail bucket names both the function
               and a trace that landed there *)
            let exemplar =
              match Telemetry.Hub.current_trace hub with
              | Some id -> Some (Telemetry.Tracectx.id_to_string id)
              | None -> None
            in
            Telemetry.Metrics.observe ?exemplar
              (Telemetry.Metrics.histogram
                 (Telemetry.Hub.metrics hub)
                 ~labels:[ ("fn", name) ] "vespid_invoke_cycles")
              cycles
        | None -> ());
        (match outcome with
        | Error _ -> Kvmsim.Kvm.count sys "vespid_errors_total"
        | Ok _ -> ());
        (outcome, cycles)
      in
      match Wasp.Runtime.telemetry t.wasp with
      | None -> go ()
      | Some hub -> Telemetry.Hub.with_span hub ~args:[ ("function", name) ] "invoke" go)
  | None -> raise (Unknown_function name)

let invoke t ~name ~input = fst (invoke_timed t ~name ~input)

let invoke_timed_on t ~core ~name ~input =
  Wasp.Runtime.on_core t.wasp core;
  invoke_timed t ~name ~input
