(** Memory-mapped I/O devices.

    The CHERIoT SoC model exposes the revocation bitmap, the background
    revoker (paper 3.3.3), a timer and a console as MMIO devices.  Devices
    see 32-bit register accesses at offsets within their window. *)

type device = {
  name : string;
  dev_base : int;
  dev_size : int;
  read32 : int -> int;  (** [read32 offset] *)
  write32 : int -> int -> unit;  (** [write32 offset value] *)
}

val ram_backed : name:string -> base:int -> size:int -> device * Bytes.t
(** A device that behaves like plain word-addressed RAM — used for the
    memory-mapped revocation-bit window visible to the allocator. *)
