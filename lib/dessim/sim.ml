type t = {
  events : (unit -> unit) Heap.t;
  mutable clock : int64;
  mutable next_seq : int;
}

let create () = { events = Heap.create (); clock = 0L; next_seq = 0 }

let now t = t.clock

(* Events at equal times fire in scheduling order: [seq] numbers them. *)
let push t ~at action =
  Heap.push t.events { at; seq = t.next_seq; value = action };
  t.next_seq <- t.next_seq + 1

let schedule t ~delay action =
  if Int64.compare delay 0L < 0 then invalid_arg "Sim.schedule: negative delay";
  push t ~at:(Int64.add t.clock delay) action

let at t ~time action = push t ~at:(if Int64.compare time t.clock < 0 then t.clock else time) action

let rec run t =
  match Heap.pop t.events with
  | None -> ()
  | Some ev ->
      t.clock <- ev.at;
      ev.value ();
      run t

module Server = struct
  type request = { enqueued : int64; on_done : wait:int64 -> service:int64 -> unit }

  type server = {
    sim : t;
    service : now:int64 -> int64;
    queue : request Queue.t;
    workers : int;
    mutable busy_count : int;
  }

  let create ?(workers = 1) sim ~service =
    if workers < 1 then invalid_arg "Sim.Server.create: workers must be >= 1";
    {
      sim;
      service;
      queue = Queue.create ();
      workers;
      busy_count = 0;
    }

  let rec start_next s =
    if s.busy_count < s.workers then begin
      match Queue.take_opt s.queue with
      | None -> ()
      | Some req ->
          s.busy_count <- s.busy_count + 1;
          let wait = Int64.sub (now s.sim) req.enqueued in
          let duration = s.service ~now:(now s.sim) in
          schedule s.sim ~delay:duration (fun () ->
              s.busy_count <- s.busy_count - 1;
              req.on_done ~wait ~service:duration;
              start_next s);
          start_next s
    end

  let submit s ~on_done =
    Queue.add { enqueued = now s.sim; on_done } s.queue;
    start_next s
end
