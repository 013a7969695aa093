(** Decoded-instruction cache for the emulator's fetch/decode hot path.

    Every workload funnels through [Machine.step], which re-reads and
    re-decodes the 32-bit instruction word at the PC on every retired
    instruction.  This module memoizes that work: a direct-mapped cache
    keyed by the {e physical} PC, mapping each instruction address to an
    arbitrary pre-decoded payload (the machine stores the decoded
    [Insn.t]; nothing here depends on the payload type).

    Correctness protocol (kept honest by [test/test_differential.ml]):

    - Entries are keyed by the full PC, so a hit can only ever return the
      payload decoded for exactly that address.
    - Stores must {e snoop}: the machine registers
      {!invalidate_granule} on the bus's store-snoop hook, so any store —
      integer or capability, from the CPU or a loader writing through the
      bus — kills the (at most two) cached words in the written 8-byte
      granule before the next fetch can hit on them.  Self-modifying code
      therefore re-decodes.
    - Writers that bypass the bus (e.g. [Asm.load] blitting straight into
      SRAM) must call {!flush}; [Machine.flush_decode_cache] exposes it.

    The cache is purely a performance structure: it never changes
    architectural behaviour, only skips the bus read and decode. *)

type 'a t = {
  tags : int array;  (** full PC of the cached word per slot; -1 = empty *)
  payloads : 'a array;
  mask : int;
  dummy : 'a;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
}
(** The representation is exposed so [Machine]'s per-instruction fetch
    can probe without function-call overhead; use the accessors below
    everywhere else.  Invariant: [Array.length tags = mask + 1] and
    every index produced by [slot] is in range. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** entries killed by store snoops *)
  flushes : int;  (** whole-cache flushes *)
}

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty cache with 2048 entries (8 KiB of
    code coverage).  [dummy] is stored in empty payload slots and never
    returned by a hit. *)

(** {1 Filling}

    The machine probes the exposed representation directly (one masked
    index, one tag compare) and counts its own hits and misses. *)

val slot : 'a t -> int -> int
(** [slot t pc]: the direct-mapped index of an instruction address. *)

val fill : 'a t -> slot:int -> pc:int -> 'a -> unit
(** Install the decode of [pc], evicting whatever the slot held. *)

(** {1 Invalidation} *)

val invalidate_granule : 'a t -> int -> unit
(** [invalidate_granule t addr] kills any entry for the two instruction
    words in the 8-byte granule containing [addr] — the signature of the
    bus store snoop (which reports granule-aligned addresses). *)

val flush : 'a t -> unit
(** Drop every entry (loader rewrote code behind the bus's back). *)

(** {1 Ranged entries — the basic-block layer}

    A basic block translated at PC [p] covers the byte span of every
    instruction it holds, so a store anywhere in that span must kill it
    — not just a store to the granule of [p].  A [ranged] cache pairs
    each slot with its span and turns the bus store snoop into a
    bounded probe: a store granule can only intersect blocks whose
    start PC lies within [max_span] bytes of it, so {!rkill_store}
    probes those few candidate slots and nothing else.  A monotone window over all
    live spans filters the common case (data-region stores) down to two
    integer compares. *)

type 'a ranged = {
  rc : 'a t;  (** the underlying direct-mapped cache, keyed by start PC *)
  los : int array;  (** per-slot span start (bytes, inclusive) *)
  his : int array;  (** per-slot span end (exclusive); 0 = empty *)
  max_span : int;
  mutable span_lo : int;  (** union window over live spans *)
  mutable span_hi : int;
  mutable chain_epoch : int;
      (** global link-validity epoch: chained block-to-block edges
          record it at link time and are only followed while it still
          matches; {!rkill}, {!rflush} and superblock installation bump
          it, unlinking every edge in O(1) *)
}
(** Exposed, like {!t}, for the machine's hand-inlined hot-path probe. *)

val chain_epoch : 'a ranged -> int
val bump_chain_epoch : 'a ranged -> unit
(** Invalidate every chained edge in O(1) (used by the machine when a
    translation is replaced wholesale, e.g. superblock installation). *)

val ranged : max_span:int -> dummy:'a -> unit -> 'a ranged
(** [max_span] is the largest [hi - lo] any entry may cover (a positive
    multiple of 4); it bounds the store-snoop probe count. *)

val rfill : 'a ranged -> slot:int -> pc:int -> lo:int -> hi:int -> 'a -> unit
val rkill : 'a ranged -> int -> unit
(** Kill one slot (counts an invalidation if it was live). *)

val rkill_store : 'a ranged -> int -> unit
(** [rkill_store t addr] kills every entry whose span intersects the
    8-byte granule containing [addr] — the store-snoop hook. *)

val rflush : 'a ranged -> unit

(** {1 Accounting} *)

val stats : 'a t -> stats
(** The cache's counters (of a ranged cache: [stats t.rc]).  The
    machine keeps its chain and superblock counters itself
    ([Machine.counters]). *)

val reset_stats : 'a t -> unit
