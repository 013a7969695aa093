(** The CHERIoT machine: architectural state and single-step semantics —
    a Sail-style executable model of the ISA (paper 3).

    The same machine runs in two modes:

    - [Cheriot]: registers hold capabilities, memory accesses are
      authorized by the capability in the cited register, jumps unseal
      sentries, the load filter strips tags from loaded capabilities whose
      base points into freed memory.
    - [Rv32]: the Table 3 baseline.  Registers are used as plain 32-bit
      integers and memory accesses are authorized by an implicit
      full-authority default data capability.  Capability instructions
      trap as illegal. *)

type mode = Cheriot | Rv32

(** Which fetch/decode machinery drives execution: the re-decoding
    reference interpreter, the decoded-instruction cache, or one of
    three settings of the block executor over the basic-block
    translation cache.  [Dispatch_block] runs one translated block per
    round; [Dispatch_chain] also links blocks across direct
    [Jal]/[Branch] edges (and fall-throughs and completed [Jalr]s) and
    re-translates hot fall-through paths into superblocks;
    [Dispatch_jit] also runs each block under a compiled plan from
    {!Ir} — redundant capability checks eliminated, bounds checks
    hoisted into block-entry guards, static control flow folded.  All
    five are observationally identical per retired instruction
    (enforced by [test/test_differential.ml] and the 5-way lockstep
    properties). *)
type dispatch =
  | Dispatch_ref
  | Dispatch_cached
  | Dispatch_block
  | Dispatch_chain
  | Dispatch_jit

val dispatches : (string * dispatch) list
(** Every tier with its command-line name, [Dispatch_ref] first: the
    reference the other four are checked against. *)

(** CHERI exception causes (reported via [mcause = 28] with the cause and
    the faulting register index in [mtval], as in CHERI RISC-V). *)
type cheri_cause =
  | Cheri_bounds
  | Cheri_tag
  | Cheri_seal
  | Cheri_permit_execute
  | Cheri_permit_load
  | Cheri_permit_store
  | Cheri_permit_load_cap
  | Cheri_permit_store_cap
  | Cheri_permit_store_local
  | Cheri_permit_access_system_registers

type cause =
  | Illegal_instruction
  | Breakpoint
  | Load_misaligned
  | Store_misaligned
  | Load_access_fault
  | Store_access_fault
  | Ecall_m
  | Cheri_fault of cheri_cause * int  (** cause, faulting register (16 = PCC) *)
  | Interrupt_timer
  | Interrupt_external

val pp_cause : Format.formatter -> cause -> unit
val mcause_of : cause -> int
(** The value written to [mcause] (interrupt bit in bit 31). *)

(** What [step] observed — consumed by the micro-architectural cycle
    models, which charge cycles per event from exactly these three
    fields (data-bus traffic follows from the instruction's class and
    width).  The fields are mutable because the machine reuses one
    record across steps on the hot path: read [last_event] before
    stepping again, don't retain it. *)
type event = {
  mutable ev_insn : Insn.t option;  (** None when no instruction retired *)
  mutable ev_taken_branch : bool;
  mutable ev_trap : cause option;
}

type result =
  | Step_ok
  | Step_trap of cause  (** trap taken; PCC redirected to MTCC *)
  | Step_waiting  (** WFI with no pending interrupt *)
  | Step_halted  (** EBREAK: simulation terminated *)
  | Step_double_fault  (** trap with an untagged MTCC: unrecoverable *)

type t = {
  regs : Cheriot_core.Capability.t array;  (** c1..c15 at indices 1..15 *)
  mutable pcc : Cheriot_core.Capability.t;
  bus : Cheriot_mem.Bus.t;
  mutable mode : mode;
  mutable ddc : Cheriot_core.Capability.t;  (** Rv32-mode authority *)
  mutable load_filter : bool;
  (* CSR state *)
  mutable mie : bool;
  mutable mpie : bool;
  mutable mcause : int;
  mutable mtval : int;
  mutable mcycle : int;  (** advanced by the perf harness *)
  mutable minstret : int;
  mutable mshwm : int;
  mutable mshwmb : int;
  mutable mtimecmp : int;
  (* Special capability registers *)
  mutable mtcc : Cheriot_core.Capability.t;
  mutable mepcc : Cheriot_core.Capability.t;
  mutable mtdc : Cheriot_core.Capability.t;
  mutable mscratchc : Cheriot_core.Capability.t;
  mutable ext_interrupt : bool;  (** external interrupt line *)
  mutable waiting : bool;  (** inside WFI *)
  mutable last_event : event;
  dcache : centry Decode_cache.t;
      (** decoded-instruction cache backing {!step_fast}; invalidated by
          the bus store snoop *)
  bcache : bentry Decode_cache.ranged;
      (** basic-block translation cache backing the block tiers; store
          snoops kill any block whose span the store hits *)
  counters : counters;  (** the block tiers' cumulative counters *)
  mutable fm_sram : Cheriot_mem.Sram.t;
      (** resolved-SRAM window for the allocation-free data fast path *)
  mutable fm_base : int;
  mutable fm_limit : int;  (** 0 = window invalid *)
  block_events : event array;
      (** retirement ring filled by {!step_round}: one copied event per
          instruction of the last round *)
  block_pcs : int array;  (** PCs parallel to [block_events] *)
  block_marks : int array;
      (** control-flow marks parallel to [block_events]: 0 = plain, or
          one of [mark_chained], [mark_side_exit], [mark_jit],
          [mark_opt_side_exit] *)
  mutable block_ev_n : int;  (** live entries in the ring *)
  mutable hot_threshold : int;
      (** fall-through-edge traversal count at which [Dispatch_chain]
          re-translates the joined path as a superblock (default 32;
          tests lower it to fuzz the crossing) *)
  mutable hot_adaptive : bool;
      (** adapt [hot_threshold] to the chain-hit/unlink ratio (default
          [true]; tests that pin [hot_threshold] set it to [false]) *)
  mutable ht_resolves : int;  (** edge resolutions since the last adapt *)
  mutable ht_unlinks_mark : int;
      (** [chain_unlinks] snapshot at the last adapt *)
  mutable jit_validator :
    (bentry -> Ir.chk array -> Ir.guard array -> bool) option;
      (** compile-time plan validation hook: when set, {!compile_jit}
          submits every plan before installing it; a rejected plan is
          replaced by the all-[Chk_full] no-guard plan (always sound)
          and counted in [jit_plans_rejected].  Doubles as the plan
          collector of the offline [cheriot_audit plans] gate. *)
}

(** The one home of every block-tier counter: translation, chaining and
    optimizer activity, cumulative since {!create}.  Pure accounting —
    no counter decides what executes.  {!block_stats} snapshots them. *)
and counters = {
  mutable blocks_filled : int;
  mutable insns_translated : int;  (** sum of fill-time block lengths *)
  mutable block_aborts : int;
      (** blocks abandoned mid-execution after one of their own stores
          invalidated the translation (self-modifying code) *)
  mutable chain_hits : int;
      (** transfers that followed a chained link, skipping the probe
          and ticket re-check *)
  mutable chain_unlinks : int;  (** stale links observed at traversal *)
  mutable superblocks_formed : int;
  mutable side_exits : int;  (** taken interior branches of superblocks *)
  mutable jit_blocks_compiled : int;  (** blocks compiled by the jit tier *)
  mutable checks_eliminated : int;
      (** pass-1 count: accesses whose metadata (or full) checks a
          dominating check covers *)
  mutable checks_hoisted : int;
      (** pass-2 count: accesses covered by a block-entry guard *)
  mutable checks_hoisted_nonentry : int;
      (** the subset of [checks_hoisted] reached through derived
          (non-entry) register versions *)
  mutable dead_bookkeeping_removed : int;
      (** pass-3 count: deferred per-op epilogues plus control-flow
          folds *)
  mutable opt_side_exits : int;
      (** block executions deoptimized to full checks by a failed
          guard *)
  mutable jit_plans_rejected : int;
      (** plans the installed [jit_validator] refused *)
}

and centry = {
  c_insn : Insn.t;
  c_opt : Insn.t option;
      (** always [Some c_insn], prebuilt so the per-step event update
          does not allocate *)
  c_mode : mode;
  c_pcc : Cheriot_core.Capability.t;
      (** fetch "ticket": the mode and exact PCC under which the
          fetch-side checks passed when this entry was filled.  A hit
          under an identical PCC skips the checks — they are a pure
          function of (mode, PCC, pc). *)
  c_next : Cheriot_core.Capability.t option;
      (** the step-advanced PCC, precomputed at fill time.  The PC
          advance is a pure function of the ticket fields, so a
          validated hit installs this record directly instead of
          re-running the representability check.  [None] only in the
          cache's dummy entry. *)
}

(** A translated basic block: decoded instructions of one straight-line
    run of code, ending at (and including) the first control-flow or
    interrupt-posture-changing instruction, or at the length cap.  The
    per-instruction event payloads and fall-through PCC chain are
    prebuilt at fill time so a cached block executes without
    allocating. *)
and bentry = {
  b_insns : Insn.t array;
  b_opts : Insn.t option array;  (** [Some b_insns.(i)], built at fill *)
  b_nexts : Cheriot_core.Capability.t option array;
      (** fall-through PCC after instruction [i] *)
  b_mode : mode;
  b_pcc : Cheriot_core.Capability.t;
      (** fetch ticket: the fill-time block-start PCC *)
  b_start : int;  (** address of [b_insns.(0)] *)
  b_len : int;
  mutable b_taken : bentry option;
      (** chained successor of the taken [Jal]/[Branch] edge, valid
          while [b_taken_epoch] equals the cache's chain epoch
          (chain and jit tiers; [-1] = never linked) *)
  mutable b_taken_epoch : int;
  mutable b_cnt_taken : int;  (** taken-edge traversal count *)
  mutable b_fall : bentry option;  (** not-taken-edge successor *)
  mutable b_fall_epoch : int;
  mutable b_cnt_fall : int;
      (** fall-through traversal count; crossing [hot_threshold]
          triggers superblock formation *)
  mutable b_ind : bentry option;
      (** 1-entry indirect-target slot of a [Jalr]-ended block: the
          predicted successor, epoch-validated like the direct links
          but ticket-rechecked on every traversal (the target comes
          from a live register) *)
  mutable b_ind_epoch : int;
  mutable b_jit : jit option;
      (** compiled execution plan, built lazily on first [Dispatch_jit]
          entry *)
}

(** A compiled block plan: the {!Ir} optimization results plus folded
    static control-flow capabilities ([Cheriot_core.Capability.null],
    compared physically, marks a fold not taken). *)
and jit = {
  j_chk : Ir.chk array;  (** per-instruction residual access checks *)
  j_guards : Ir.guard array;  (** block-entry hoisted checks *)
  j_br : Cheriot_core.Capability.t array;
      (** folded taken-target PCC per in-bounds direct [Branch] *)
  j_jal_target : Cheriot_core.Capability.t;  (** folded final-[Jal] target *)
  j_link_on : Cheriot_core.Capability.t;
      (** its link sentry when [mie] is set… *)
  j_link_off : Cheriot_core.Capability.t;  (** …and when it is clear *)
}

val create : ?mode:mode -> ?load_filter:bool -> Cheriot_mem.Bus.t -> t
(** A machine at reset: PCC is the executable root at address 0, all other
    registers NULL.  The harness (bootloader) installs the roots where it
    needs them, as early-boot software does (paper 3.1.1). *)

val reg : t -> int -> Cheriot_core.Capability.t
(** Read a register; c0 always reads as NULL. *)

val set_reg : t -> int -> Cheriot_core.Capability.t -> unit
(** Write a register; writes to c0 are discarded. *)

val reg_int : t -> int -> int
(** The 32-bit address field of a register. *)

val set_reg_int : t -> int -> int -> unit
(** Write an integer result (an untagged capability with that address). *)

val timer_pending : t -> bool
val interrupt_pending : t -> bool

val step : t -> result
(** Execute one instruction (or take a pending interrupt).  Updates
    [last_event] for the cycle models and [minstret].  This is the
    {e reference interpreter}: it re-reads and re-decodes the
    instruction word on every step. *)

val step_fast : t -> result
(** Like {!step}, but fetches through the decoded-instruction cache: on
    a hit the bus read and decode are skipped.  Observationally
    identical to {!step} — same registers, tags, CSRs, traps and events
    after every step (enforced by [test/test_differential.ml]).  Stores
    through the bus invalidate stale entries; code rewritten behind the
    bus's back (direct SRAM writes) requires {!flush_decode_cache}. *)

val step_round : t -> dispatch -> result
(** One recorded round of [dispatch], the entry point of the perf
    harness and the tracer.  Every retired instruction of the round is
    copied into the [block_events]/[block_pcs]/[block_marks] ring
    ([block_ev_n] live entries) so each one can be charged and rendered
    individually.  A [Dispatch_ref] / [Dispatch_cached] round is one
    {!step} / {!step_fast} (an idle WFI step records nothing).  A
    block-tier round delivers a pending interrupt / WFI wake exactly as
    {!step}, or runs the same block executor as {!run} from the block
    at the PC, under [round_cap] fuel: [Dispatch_chain] and
    [Dispatch_jit] keep going across chained edges and superblock side
    exits, and [Dispatch_jit] runs each block under its compiled plan.
    The executor appends each block's executed prefix to the ring when
    the round leaves the block; the round's last entry is [last_event]
    itself.  Marks: [mark_chained] ([mark_jit] under [Dispatch_jit]) on
    the first entry after a linked transfer, [mark_side_exit] on a
    taken interior branch, and [mark_opt_side_exit] on the first entry
    of a block whose entry guards failed.  A recorded round ends before
    any [Csr] that is not its first instruction, so a [Csr] reading
    [mcycle] sees every earlier instruction charged.  Interrupts are
    only checked between rounds: block formation guarantees no
    instruction inside a block can change the delivery predicate, edge
    instructions cannot either, and a completed [Jalr] re-checks it
    before chaining, so this is exactly per-step equivalent. *)

val compile_jit : t -> bentry -> jit
(** Compile (and install) [bentry]'s optimized execution plan: the
    {!Ir.optimize} passes plus the static control-flow folds.  Normally
    called lazily by the jit tier on first block entry; exposed so the
    offline plan-verification gate can compile blocks discovered under
    other dispatch tiers.  Consults [jit_validator] when installed. *)

val max_block_len : int
(** Upper bound on instructions per translated block (16). *)

val max_superblock_len : int
(** Upper bound on instructions per superblock (64). *)

val round_cap : int
(** Fuel ceiling of one recorded block-tier round (128); bounds the
    retirement ring. *)

val mark_chained : int
(** [block_marks] value on the first instruction after a chained
    transfer. *)

val mark_side_exit : int
(** [block_marks] value on a taken interior branch that side-exited a
    superblock.  When the round continues at a translated block at the
    branch target (a side-exit continue), that block's first entry is
    unmarked: the continue is a probe, not a linked transfer. *)

val mark_jit : int
(** [block_marks] value on the first instruction after a chained
    transfer under the jit tier. *)

val mark_opt_side_exit : int
(** [block_marks] value on the first instruction of a jit block
    execution whose entry guard failed (deoptimized to full checks);
    it replaces a [mark_jit] on the same entry. *)

val run : ?fuel:int -> ?dispatch:dispatch -> t -> result * int
(** Step until halt/double-fault/waiting or [fuel] (default 10M)
    instructions; returns the final result and instructions retired.
    Traps are not stopping events (the handler runs).  [dispatch]
    selects the execution machinery (default [Dispatch_ref]).  The
    three block tiers share one block executor (the one {!step_round}
    also runs, without the ring) with two settings:
    [Dispatch_jit] links blocks across chained edges and runs each
    block under its compiled plan; [Dispatch_chain] links but runs
    every access fully checked (no guards, no control-flow folds, no
    compilation); [Dispatch_block] also ends each round at the end of
    its block.  Fuel accounting is identical on every tier — each
    retired instruction, delivered interrupt or trap costs one unit,
    and a block (or chained round) is cut when the remaining fuel runs
    out inside it, so chunked runs resume exactly where a per-step run
    would. *)

val decode_stats : t -> Decode_cache.stats
(** Hit/miss/invalidation counters of the decoded-instruction cache. *)

type block_stats = {
  block_hits : int;
  block_misses : int;
  block_invalidations : int;  (** blocks killed by store snoops *)
  block_flushes : int;
  blocks_filled : int;
  insns_translated : int;  (** sum of fill-time block lengths *)
  block_aborts : int;  (** self-modifying mid-block abandonments *)
  chain_hits : int;
      (** transfers that followed a chained link, skipping the probe
          and ticket re-check *)
  chain_unlinks : int;  (** stale links observed at traversal time *)
  superblocks_formed : int;
  side_exits : int;  (** taken interior branches of superblocks *)
  jit_blocks_compiled : int;
  checks_eliminated : int;
      (** pass 1: accesses with a dominating check, run reduced *)
  checks_hoisted : int;
      (** pass 2: accesses covered by a block-entry guard *)
  checks_hoisted_nonentry : int;
      (** the subset of [checks_hoisted] reached through derived
          (non-entry) register versions *)
  dead_bookkeeping_removed : int;
      (** pass 3: deferred per-op epilogues, plus control-flow folds *)
  opt_side_exits : int;
      (** block executions deoptimized by a failed entry guard *)
  jit_plans_rejected : int;
      (** plans refused by the installed [jit_validator] *)
}

val block_stats : t -> block_stats
val avg_block_len : block_stats -> float
(** Mean fill-time block length ([insns_translated / blocks_filled]). *)

val flush_decode_cache : t -> unit
(** Drop every cached decode and translated block — required after
    rewriting code with direct SRAM writes that bypass the bus store
    snoop (e.g. [Asm.load]). *)

val state_hash : t -> string
(** Hex digest of all architecturally visible state: registers and tags,
    PCC, SCRs, CSRs, and the contents + tag bits of every SRAM on the
    bus.  Equal hashes (plus equal [minstret]) mean two runs are
    observationally identical. *)
