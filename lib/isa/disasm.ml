type line = { addr : int; instr : Instr.t option; bytes : string }

let hex_bytes blob off len =
  String.concat " "
    (List.init len (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get blob (off + i)))))

let disassemble ~origin blob =
  let len = Bytes.length blob in
  let read_byte a =
    let off = a - origin in
    if off < 0 || off >= len then raise (Encoding.Decode_error { addr = a; msg = "eof" })
    else Char.code (Bytes.get blob off)
  in
  let rec go addr acc =
    if addr - origin >= len then List.rev acc
    else begin
      match Encoding.decode read_byte addr with
      | instr, size ->
          go (addr + size)
            ({ addr; instr = Some instr; bytes = hex_bytes blob (addr - origin) size }
            :: acc)
      | exception Encoding.Decode_error _ ->
          go (addr + 1)
            ({ addr; instr = None; bytes = hex_bytes blob (addr - origin) 1 } :: acc)
    end
  in
  go origin []

let render ~symbols lines =
  let by_addr = List.map (fun (name, addr) -> (addr, name)) symbols in
  let label_at addr = List.assoc_opt addr by_addr in
  let target_of : Instr.t -> int option = function
    | Instr.Jmp a | Instr.Jcc (_, a) | Instr.Call a -> Some a
    | _ -> None
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun l ->
      (match label_at l.addr with
      | Some name -> Buffer.add_string buf (Printf.sprintf "%s:\n" name)
      | None -> ());
      let text =
        match l.instr with
        | Some i -> (
            let base = Instr.to_string i in
            match target_of i with
            | Some tgt -> (
                match label_at tgt with
                | Some name -> Printf.sprintf "%-24s ; -> %s" base name
                | None -> base)
            | None -> base)
        | None -> Printf.sprintf ".byte 0x%s" l.bytes
      in
      Buffer.add_string buf (Printf.sprintf "  %06x: %-28s %s\n" l.addr l.bytes text))
    lines;
  Buffer.contents buf

let of_program (p : Asm.program) =
  render ~symbols:p.symbols (disassemble ~origin:p.origin p.code)
