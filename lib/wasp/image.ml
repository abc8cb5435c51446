type t = {
  name : string;
  code : bytes;
  origin : int;
  entry : int;
  mode : Vm.Modes.t;
  mem_size : int;
  symbols : (string * int) list;
}

let fit_mem_size ~origin ~code_len ~requested =
  let needed = origin + code_len + 4096 in
  let base = match requested with Some m -> m | None -> Layout.default_mem_size in
  let rec grow m = if m >= needed then m else grow (m * 2) in
  grow base

let of_program ?(name = "image") ?(mode = Vm.Modes.Long) ?mem_size (p : Asm.program) =
  let mem_size =
    fit_mem_size ~origin:p.origin ~code_len:(Bytes.length p.code) ~requested:mem_size
  in
  { name; code = p.code; origin = p.origin; entry = p.entry; mode; mem_size; symbols = p.symbols }

let of_asm_string ?name ?mode ?mem_size src =
  of_program ?name ?mode ?mem_size (Asm.assemble_string ~origin:Layout.image_base src)

let size t = Bytes.length t.code

let pad_to t n =
  if n < Bytes.length t.code then invalid_arg "Image.pad_to: smaller than code";
  let code = Bytes.make n '\000' in
  Bytes.blit t.code 0 code 0 (Bytes.length t.code);
  let mem_size = fit_mem_size ~origin:t.origin ~code_len:n ~requested:(Some t.mem_size) in
  { t with code; mem_size }

let footprint t = t.origin + Bytes.length t.code
