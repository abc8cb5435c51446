(* Tests for the discrete-event simulator. *)

let test_empty_run () =
  let sim = Dessim.Sim.create () in
  Dessim.Sim.run sim;
  Alcotest.(check int64) "time stays 0" 0L (Dessim.Sim.now sim)

let test_event_order () =
  let sim = Dessim.Sim.create () in
  let log = ref [] in
  Dessim.Sim.schedule sim ~delay:30L (fun () -> log := 3 :: !log);
  Dessim.Sim.schedule sim ~delay:10L (fun () -> log := 1 :: !log);
  Dessim.Sim.schedule sim ~delay:20L (fun () -> log := 2 :: !log);
  Dessim.Sim.run sim;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" 30L (Dessim.Sim.now sim)

let test_fifo_at_equal_times () =
  let sim = Dessim.Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Dessim.Sim.schedule sim ~delay:10L (fun () -> log := i :: !log)
  done;
  Dessim.Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_scheduling () =
  let sim = Dessim.Sim.create () in
  let fired = ref 0L in
  Dessim.Sim.schedule sim ~delay:5L (fun () ->
      Dessim.Sim.schedule sim ~delay:7L (fun () -> fired := Dessim.Sim.now sim));
  Dessim.Sim.run sim;
  Alcotest.(check int64) "nested time" 12L !fired

let test_negative_delay_rejected () =
  let sim = Dessim.Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Dessim.Sim.schedule sim ~delay:(-1L) (fun () -> ()))

let test_at_in_past_fires () =
  let sim = Dessim.Sim.create () in
  let fired = ref false in
  Dessim.Sim.schedule sim ~delay:100L (fun () ->
      Dessim.Sim.at sim ~time:5L (fun () -> fired := true));
  Dessim.Sim.run sim;
  Alcotest.(check bool) "past events fire" true !fired

let test_many_events_heap_growth () =
  let sim = Dessim.Sim.create () in
  let count = ref 0 in
  let rng = Cycles.Rng.create ~seed:99 in
  for _ = 1 to 10_000 do
    Dessim.Sim.schedule sim ~delay:(Int64.of_int (Cycles.Rng.int rng 100000)) (fun () ->
        incr count)
  done;
  Dessim.Sim.run sim;
  Alcotest.(check int) "all fired" 10_000 !count

let test_server_fifo_queueing () =
  let sim = Dessim.Sim.create () in
  (* constant 100-cycle service *)
  let server = Dessim.Sim.Server.create sim ~service:(fun ~now:_ -> 100L) in
  let waits = ref [] and busy = ref 0L in
  (* three requests arrive together: waits 0, 100, 200 *)
  for _ = 1 to 3 do
    Dessim.Sim.Server.submit server ~on_done:(fun ~wait ~service ->
        waits := wait :: !waits;
        busy := Int64.add !busy service)
  done;
  Dessim.Sim.run sim;
  Alcotest.(check (list int64)) "queueing delays" [ 0L; 100L; 200L ] (List.rev !waits);
  Alcotest.(check int) "completed" 3 (List.length !waits);
  Alcotest.(check int64) "busy" 300L !busy

let test_server_idle_then_busy () =
  let sim = Dessim.Sim.create () in
  let server = Dessim.Sim.Server.create sim ~service:(fun ~now:_ -> 50L) in
  let done_times = ref [] in
  Dessim.Sim.Server.submit server ~on_done:(fun ~wait:_ ~service:_ ->
      done_times := Dessim.Sim.now sim :: !done_times);
  Dessim.Sim.schedule sim ~delay:200L (fun () ->
      Dessim.Sim.Server.submit server ~on_done:(fun ~wait ~service:_ ->
          Alcotest.(check int64) "no wait when idle" 0L wait;
          done_times := Dessim.Sim.now sim :: !done_times));
  Dessim.Sim.run sim;
  Alcotest.(check (list int64)) "completion times" [ 50L; 250L ] (List.rev !done_times)

(* Any interleaving of pushes and pops pops in (at, seq) order, which
   both the event queue and every multi-core run queue rely on: each pop
   (and peek) is the least pending entry of a sorted-list model. Pushes
   are numbered in order, as both callers number them, and [at] is drawn
   from a small range so that equal times are common. *)
let prop_heap_order =
  QCheck.Test.make ~name:"heap pops in (at, seq) order" ~count:500
    QCheck.(list_of_size Gen.(int_bound 300) (option (int_bound 12)))
    (fun ops ->
      let h = Dessim.Heap.create () and model = ref [] and seq = ref 0 in
      let key (e : int Dessim.Heap.entry) = (e.at, e.seq, e.value) in
      let head () = match !model with x :: _ -> Some x | [] -> None in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Some at ->
                let e = { Dessim.Heap.at = Int64.of_int at; seq = !seq; value = !seq } in
                Dessim.Heap.push h e;
                model := List.merge compare [ key e ] !model;
                incr seq;
                Option.map key (Dessim.Heap.peek h) = head ()
            | None ->
                let least = head () in
                model := (match !model with _ :: rest -> rest | [] -> []);
                Option.map key (Dessim.Heap.pop h) = least
          in
          ok && Dessim.Heap.size h = List.length !model)
        ops)

let () =
  Alcotest.run "dessim"
    [
      ( "events",
        [
          Alcotest.test_case "empty run" `Quick test_empty_run;
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "fifo at equal times" `Quick test_fifo_at_equal_times;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "past events" `Quick test_at_in_past_fires;
          Alcotest.test_case "heap growth" `Quick test_many_events_heap_growth;
        ] );
      ("heap", [ QCheck_alcotest.to_alcotest prop_heap_order ]);
      ( "server",
        [
          Alcotest.test_case "fifo queueing" `Quick test_server_fifo_queueing;
          Alcotest.test_case "idle then busy" `Quick test_server_idle_then_busy;
        ] );
    ]
