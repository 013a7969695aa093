(** The shared heap allocator (paper 5.1).

    A boundary-tagged, in-band-metadata allocator in the dlmalloc
    tradition — the right point for embedded devices, which lack the
    memory for size-class allocators and the need for multi-threaded
    throughput.  Spatial safety comes from setting exact bounds on the
    capability returned by [malloc] (padding to the representable length
    of 3.2.3 where needed); temporal safety from painting revocation bits
    and epoch-tagged {e quarantine lists} on [free], with memory reused
    only after a full revocation sweep has invalidated all stale
    capabilities.

    The allocator lives in its own compartment: it is the only code with
    access to the memory-mapped revocation bitmap, and all guarantees
    about heap objects hold for every other compartment (2.3). *)

(** The four Table 4 configurations. *)
type temporal =
  | Baseline  (** no temporal safety: free goes straight to the bins *)
  | Metadata  (** revocation bits painted/cleared, but no sweeps *)
  | Software  (** quarantine + software sweep loop *)
  | Hardware  (** quarantine + background revoker engine *)

type error =
  | Out_of_memory
  | Invalid_free of string  (** untagged / misaligned / not a heap pointer *)
  | Double_free

val pp_error : Format.formatter -> error -> unit

type stats = {
  sweeps : int;
  sweep_cycles : int;  (** cycles spent in (or waiting on) revocation *)
  quarantine_peak : int;
}

type t

val create :
  ?temporal:temporal ->
  ?quarantine_threshold:int ->
  ?flute_poll_quirk:bool ->
  sram:Cheriot_mem.Sram.t ->
  rev:Cheriot_mem.Revbits.t ->
  clock:Clock.t ->
  heap_base:int ->
  heap_size:int ->
  unit ->
  t
(** [quarantine_threshold] (bytes of quarantined memory that trigger a
    revocation pass) defaults to half the heap, the setting of Table 4.
    [flute_poll_quirk] models the prototype Flute core's lack of a
    revoker-completion interrupt: the waiting thread's periodic polling
    causes memory-access flurries that slow the engine (7.2.2). *)

val attach_hw_revoker : t -> Cheriot_uarch.Revoker.t -> unit
val set_sw_revoker : t -> Sw_revoker.t -> unit

val malloc : t -> int -> (Cheriot_core.Capability.t, error) result
(** Allocate; the returned capability has exact bounds over the object,
    no Store-Local permission beyond the heap's, and is Global. *)

val free : t -> Cheriot_core.Capability.t -> (unit, error) result
(** Validate the pointer (tag, base = start of a live chunk, revocation
    bit clear — catching double- and partial-object frees), paint the
    revocation bits, zero the memory and quarantine the chunk. *)

val revoke_now : t -> unit
(** Force a revocation pass (software or hardware per configuration) and
    release eligible quarantine — what the RTOS idle task may do (3.3.2).
    Raises [Failure] if a hardware sweep has not finished after 100M
    cycles: the revoker is starved or was never attached to the clock. *)

val epoch : t -> int
val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Walk the heap: chunk chain covers the heap exactly, free/live/
    quarantined states are consistent with bins and revocation bits. *)

val set_wait_ctx_pair : t -> int -> unit
(** Cycles charged (per recheck) for the context-switch pair of a thread
    blocked on the hardware revoker — set by the scheduler layer; +4
    cycles when the stack-HWM CSRs must be saved/restored too (7.2.2). *)
