(** The background pipelined revoker engine (paper 3.3.3).

    A simple state machine that engages the load-store unit whenever the
    main pipeline is not performing memory operations, advancing through
    memory, loading each capability word and invalidating (via the load
    filter's check) those whose base points into freed memory.  A naive
    single-stage implementation wastes the one-cycle revocation-bit
    lookup delay; the two-stage version keeps two capability words in
    flight for full throughput (the DESIGN.md §5 pipelining ablation
    compares both).

    Exposed as an MMIO device with four registers:
    [start], [end], [epoch] (read-only) and [kick] (write-only; starts a
    pass over [[start, end)], no effect if one is underway).  [start]
    and [end] program the next pass: a write during a sweep does not
    reach the running one.

    The race with the main pipeline — revoker loads a word, the
    application overwrites it, the revoker writes back a stale
    invalidated copy — is resolved by snooping stores: a store address
    matching an in-flight word forces a reload (paper 3.3.3). *)

type t

val create : ?pipelined:bool -> core:Core_model.core ->
  sram:Cheriot_mem.Sram.t -> rev:Cheriot_mem.Revbits.t -> unit -> t
(** [pipelined] defaults to [true] (the two-stage engine). *)

val mmio : t -> base:int -> Cheriot_mem.Mmio.device
(** The device window: [start]@+0, [end]@+4, [epoch]@+8, [kick]@+12. *)

val attach : t -> Cheriot_mem.Bus.t -> base:int -> unit
(** Register the MMIO window and the store snoop on a bus. *)

val kick : t -> start:int -> stop:int -> unit
(** Start a sweep directly (what a [kick] register write does). *)

val epoch : t -> int
(** Odd while a sweep is in progress (incremented at start and at
    completion), exactly like the software revoker's epoch (3.3.2). *)

val sweeping : t -> bool

val tick : t -> unit
(** Grant the engine one idle memory cycle. *)

val tick_n : t -> int -> unit
(** [tick_n t k] grants [k] idle cycles in one call — bit-identical in
    sweep results, statistics, epoch transitions and memory to [k]
    successive {!tick}s with no store in between, but bus stalls are
    consumed in bulk, runs of untagged granules are fast-forwarded in
    closed form and a non-sweeping engine costs one compare. *)

val snoop_store : t -> int -> unit
(** Notify the engine of a main-pipeline store (granule-aligned). *)

val run_to_completion : t -> int
(** Grant cycles until the sweep finishes; returns cycles consumed.
    Models a fully idle CPU waiting on revocation. *)

(** {1 Statistics} *)

val caps_invalidated : t -> int
val words_swept : t -> int
val busy_cycles : t -> int
val race_reloads : t -> int
