(* Reading what the library publishes into a metrics registry, the way
   an exporter or a dashboard sees it: a series by name and label set,
   0 until its first update registers it. *)

let find m name labels =
  Telemetry.Metrics.find m (Telemetry.Metrics.series_key name labels)

let counter m ?(labels = []) name =
  match find m name labels with
  | Some (Telemetry.Metrics.Counter c) -> c.Telemetry.Metrics.c_value
  | Some _ | None -> 0

let gauge m ?(labels = []) name =
  match find m name labels with
  | Some (Telemetry.Metrics.Gauge g) -> g.Telemetry.Metrics.g_value
  | Some _ | None -> 0.0

(* An SLO's event counts, from its [slo_events_total] and
   [slo_bad_events_total] series. *)
let slo_bad hub ~slo =
  counter (Telemetry.Hub.metrics hub) ~labels:[ ("slo", slo) ] "slo_bad_events_total"

let slo_good hub ~slo =
  counter (Telemetry.Hub.metrics hub) ~labels:[ ("slo", slo) ] "slo_events_total"
  - slo_bad hub ~slo
