(** Tagged SRAM.

    Embedded memory tightly coupled to the CPU (paper 3.3.2).  Each
    8-byte, capability-aligned granule carries tag state.  Following the
    CHERIoT-Ibex design (paper 4), the tag is stored as {e two} micro-tag
    bits, one per 32-bit half; the architectural tag is their AND.  A
    32-bit data write clears only its half's micro-tag — which suffices to
    clear the architectural tag — so a 33-bit data bus never needs to
    update the other half.  Capability (64-bit) writes set or clear both
    halves.  The Flute core's 65-bit bus writes both halves at once; the
    behaviour is identical architecturally. *)

type t

val create : base:int -> size:int -> t
(** [create ~base ~size] is zeroed SRAM covering [[base, base+size)].
    [size] must be a positive multiple of 8. *)

val base : t -> int
val size : t -> int
val in_range : t -> addr:int -> size:int -> bool

(** {1 Data access}

    Addresses are absolute; alignment is the caller's (the core's)
    responsibility — these raise [Invalid_argument] on out-of-range or
    misaligned access, conditions the ISA layer must have excluded. *)

val read8 : t -> int -> int
val read16 : t -> int -> int
val read32 : t -> int -> int

(** {2 Unchecked window access}

    For callers that already hold a resolved window over this SRAM and
    have proved the access in range and aligned (the emulator's
    within-block memory fast path): no range or alignment check, no
    allocation.  Out-of-window use is undefined (may read garbage or
    corrupt neighbouring bytes) — never call these on an address you
    have not window-tested.  Writes still clear the micro-tags of the
    granule halves they touch, exactly like the checked variants. *)

val read8_u : t -> int -> int
val read16_u : t -> int -> int
val read32_u : t -> int -> int
val write8_u : t -> int -> int -> unit
val write16_u : t -> int -> int -> unit
val write32_u : t -> int -> int -> unit
val write8 : t -> int -> int -> unit
val write16 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit
(** Data writes clear the micro-tag(s) of the granule halves they touch. *)

(** {1 Capability access} *)

val read_cap : t -> int -> bool * int64
(** [read_cap t addr] (8-byte aligned) is [(tag, word)] where [tag] is the
    AND of the two micro-tags. *)

val write_cap : t -> int -> bool * int64 -> unit
(** Write a capability word, setting both micro-tags to the tag value. *)

val read_microtags : t -> int -> bool * bool
(** The two per-half micro-tags of the granule containing the address —
    the hardware revoker uses the low half's bit to skip the second bus
    beat (paper 7.2.2). *)

val tag_at : t -> int -> bool
(** Architectural tag of the granule containing the address. *)

val next_tagged : t -> addr:int -> limit:int -> int
(** [next_tagged t ~addr ~limit] is the address of the first granule at
    or after [addr]'s, and starting below [limit], whose tag is set, or
    [limit] if there is none.  Scans the micro-tags four granules at a
    time, so runs of untagged memory are skipped in bulk (the revokers'
    sweeps).  Raises [Invalid_argument] unless [[addr, limit)] lies in
    the SRAM. *)

val digest : t -> string
(** MD5 of base, size, contents and micro-tags — the memory part of a
    machine state hash. *)

val fill : t -> addr:int -> len:int -> char -> unit
(** Fill a byte range (clearing affected micro-tags), e.g. stack zeroing. *)

val blit_string : t -> addr:int -> string -> unit
(** Copy raw bytes in (clearing affected micro-tags), e.g. program load. *)
