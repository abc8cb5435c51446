type sym = { s_name : string; s_addr : int }

type t = { syms : sym array }

(* compiler-local labels: vcc's [.L*] branch targets and string pool *)
let is_local name = String.length name > 0 && name.[0] = '.'

let of_symbols symbols =
  let kept = List.filter (fun (name, _) -> not (is_local name)) symbols in
  let arr = Array.of_list (List.map (fun (n, a) -> { s_name = n; s_addr = a }) kept) in
  (* stable on equal addresses: first-listed symbol wins the lookup *)
  Array.stable_sort (fun a b -> compare a.s_addr b.s_addr) arr;
  { syms = arr }

let empty = { syms = [||] }

(* Greatest symbol address <= pc: the enclosing function under the
   convention that a function's code extends to the next symbol. *)
let lookup t pc =
  let n = Array.length t.syms in
  if n = 0 || pc < t.syms.(0).s_addr then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.syms.(mid).s_addr <= pc then lo := mid else hi := mid - 1
    done;
    Some t.syms.(!lo).s_name
  end

let name_at t pc =
  match lookup t pc with Some n -> n | None -> Printf.sprintf "0x%x" pc
