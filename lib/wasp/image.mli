(** Virtine images.

    An image is a flat binary plus the machine configuration it needs:
    load address, entry point, target processor mode and guest memory
    size. The toolchain (assembler or the vcc compiler) produces these;
    Wasp only ever sees the blob — exactly like the paper's statically
    linked ~16 KB images. *)

type t = {
  name : string;
  code : bytes;            (** loaded at [origin] *)
  origin : int;
  entry : int;             (** absolute start address *)
  mode : Vm.Modes.t;
  mem_size : int;          (** guest region size *)
  symbols : (string * int) list;
      (** label -> absolute address, from the assembler; feeds the guest
          profiler's symbolization. Empty for images rebuilt from a raw
          blob (e.g. replay files): the profiler falls back to raw
          addresses. *)
}

val of_program : ?name:string -> ?mode:Vm.Modes.t -> ?mem_size:int -> Asm.program -> t
(** Wrap an assembled program. [mode] defaults to [Long]; [mem_size]
    defaults to {!Layout.default_mem_size}, grown if the code would not
    fit. *)

val of_asm_string : ?name:string -> ?mode:Vm.Modes.t -> ?mem_size:int -> string -> t
(** Assemble source text at {!Layout.image_base} and wrap it; it starts
    at its first instruction. *)

val size : t -> int
(** Image size in bytes (what gets copied on load — Figure 12's x-axis). *)

val pad_to : t -> int -> t
(** [pad_to img n] zero-pads the blob to [n] bytes (the Figure 12
    methodology: "we synthetically increase image size by padding a
    minimal virtine image with zeroes"), growing [mem_size] to fit. *)

val footprint : t -> int
(** Bytes from guest address 0 to the end of the image: the contiguous
    region a load or snapshot restore must populate. *)
