type open_file = { path : string; mutable offset : int }

type t = {
  files : (string, string) Hashtbl.t;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
}

let create () =
  { files = Hashtbl.create 16; fds = Hashtbl.create 16; next_fd = 3 }

let add_file t ~path contents = Hashtbl.replace t.files path contents

let file_size t ~path =
  match Hashtbl.find_opt t.files path with Some c -> Some (String.length c) | None -> None

let open_file t ~path =
  if Hashtbl.mem t.files path then begin
    let fd = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    Hashtbl.replace t.fds fd { path; offset = 0 };
    Some fd
  end
  else None

let read_fd t ~fd ~len =
  match Hashtbl.find_opt t.fds fd with
  | None -> None
  | Some f -> (
      match Hashtbl.find_opt t.files f.path with
      | None -> None
      | Some contents ->
          let avail = max 0 (String.length contents - f.offset) in
          let n = min len avail in
          let b = Bytes.of_string (String.sub contents f.offset n) in
          f.offset <- f.offset + n;
          Some b)

let close_fd t ~fd =
  if Hashtbl.mem t.fds fd then begin
    Hashtbl.remove t.fds fd;
    true
  end
  else false

type endpoint = { incoming : Buffer.t; peer_incoming : Buffer.t }

let socket_pair (_ : t) =
  let a_buf = Buffer.create 256 and b_buf = Buffer.create 256 in
  ({ incoming = a_buf; peer_incoming = b_buf }, { incoming = b_buf; peer_incoming = a_buf })

let send ep b =
  Buffer.add_bytes ep.peer_incoming b;
  Bytes.length b

let recv ep ~max =
  let avail = Buffer.length ep.incoming in
  let n = min max avail in
  let out = Bytes.of_string (Buffer.sub ep.incoming 0 n) in
  let rest = Buffer.sub ep.incoming n (avail - n) in
  Buffer.clear ep.incoming;
  Buffer.add_string ep.incoming rest;
  out

