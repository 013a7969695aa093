open Cheriot_core
module Bus = Cheriot_mem.Bus
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits

type mode = Cheriot | Rv32

(** Which fetch/decode machinery drives execution. *)
type dispatch =
  | Dispatch_ref
  | Dispatch_cached
  | Dispatch_block
  | Dispatch_chain
  | Dispatch_jit

let dispatches =
  [ ("ref", Dispatch_ref); ("cached", Dispatch_cached); ("block", Dispatch_block);
    ("chain", Dispatch_chain); ("jit", Dispatch_jit) ]

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
  | Cheri_fault of cheri_cause * int
  | Interrupt_timer
  | Interrupt_external

let cheri_cause_code = function
  | Cheri_bounds -> 0x01
  | Cheri_tag -> 0x02
  | Cheri_seal -> 0x03
  | Cheri_permit_execute -> 0x11
  | Cheri_permit_load -> 0x12
  | Cheri_permit_store -> 0x13
  | Cheri_permit_load_cap -> 0x14
  | Cheri_permit_store_cap -> 0x15
  | Cheri_permit_store_local -> 0x16
  | Cheri_permit_access_system_registers -> 0x18

let pp_cheri_cause fmt c =
  Format.pp_print_string fmt
    (match c with
    | Cheri_bounds -> "bounds"
    | Cheri_tag -> "tag"
    | Cheri_seal -> "seal"
    | Cheri_permit_execute -> "permit-execute"
    | Cheri_permit_load -> "permit-load"
    | Cheri_permit_store -> "permit-store"
    | Cheri_permit_load_cap -> "permit-load-cap"
    | Cheri_permit_store_cap -> "permit-store-cap"
    | Cheri_permit_store_local -> "permit-store-local"
    | Cheri_permit_access_system_registers -> "permit-access-system-registers")

let pp_cause fmt = function
  | Illegal_instruction -> Format.pp_print_string fmt "illegal instruction"
  | Breakpoint -> Format.pp_print_string fmt "breakpoint"
  | Load_misaligned -> Format.pp_print_string fmt "load misaligned"
  | Store_misaligned -> Format.pp_print_string fmt "store misaligned"
  | Load_access_fault -> Format.pp_print_string fmt "load access fault"
  | Store_access_fault -> Format.pp_print_string fmt "store access fault"
  | Ecall_m -> Format.pp_print_string fmt "ecall"
  | Cheri_fault (c, r) ->
      Format.fprintf fmt "CHERI fault: %a (reg %d)" pp_cheri_cause c r
  | Interrupt_timer -> Format.pp_print_string fmt "timer interrupt"
  | Interrupt_external -> Format.pp_print_string fmt "external interrupt"

let mcause_of = function
  | Illegal_instruction -> 2
  | Breakpoint -> 3
  | Load_misaligned -> 4
  | Load_access_fault -> 5
  | Store_misaligned -> 6
  | Store_access_fault -> 7
  | Ecall_m -> 11
  | Cheri_fault _ -> 28
  | Interrupt_timer -> 0x8000_0000 lor 7
  | Interrupt_external -> 0x8000_0000 lor 11

type event = {
  (* mutable so the per-step hot path can update one record in place
     instead of allocating a fresh one every instruction *)
  mutable ev_insn : Insn.t option;
  mutable ev_taken_branch : bool;
  mutable ev_trap : cause option;
}

let no_event =
  {
    ev_insn = None;
    ev_taken_branch = false;
    ev_trap = None;
  }

type result =
  | Step_ok
  | Step_trap of cause
  | Step_waiting
  | Step_halted
  | Step_double_fault

type t = {
  regs : Capability.t array;
  mutable pcc : Capability.t;
  bus : Bus.t;
  mutable mode : mode;
  mutable ddc : Capability.t;
  mutable load_filter : bool;
  mutable mie : bool;
  mutable mpie : bool;
  mutable mcause : int;
  mutable mtval : int;
  mutable mcycle : int;
  mutable minstret : int;
  mutable mshwm : int;
  mutable mshwmb : int;
  mutable mtimecmp : int;
  mutable mtcc : Capability.t;
  mutable mepcc : Capability.t;
  mutable mtdc : Capability.t;
  mutable mscratchc : Capability.t;
  mutable ext_interrupt : bool;
  mutable waiting : bool;
  mutable last_event : event;
  dcache : centry Decode_cache.t;
  bcache : bentry Decode_cache.ranged;
  counters : counters;
  (* Resolved-SRAM window for the allocation-free data fast path:
     in-window scalar accesses go straight to the byte array, skipping
     the bus walk and its exception plumbing.  [fm_limit = 0] marks the
     window invalid (no address satisfies [addr >= base && addr + size
     <= 0]). *)
  mutable fm_sram : Sram.t;
  mutable fm_base : int;
  mutable fm_limit : int;
  (* Per-round retirement ring filled by [step_round] so
     the perf harness and tracer can charge each retired instruction of
     a block individually: parallel arrays of (copied) events, their
     PCs, and a control-flow mark (see [mark_chained]/[mark_side_exit])
     for trace rendering. *)
  block_events : event array;
  block_pcs : int array;
  block_marks : int array;
  mutable block_ev_n : int;
  mutable hot_threshold : int;
      (* edge-traversal count at which a hot fall-through edge triggers
         superblock formation; tests lower it to fuzz the crossing *)
  mutable hot_adaptive : bool;
      (* drive [hot_threshold] from the chain-hit/unlink ratio (see
         [adapt_hot]); tests that pin [hot_threshold] turn this off *)
  mutable ht_resolves : int;  (* edge resolutions since the last adapt *)
  mutable ht_unlinks_mark : int;  (* chain_unlinks at the last adapt *)
  (* Compile-time plan validation (translation validation): when set,
     every plan [compile_jit] produces is submitted to the validator
     before installation; a rejected plan is replaced by the all-full
     plan with no guards (always sound) and counted.  The hook also
     serves as a plan collector for the offline `cheriot_audit plans`
     gate.  [None] (the default) installs plans unvalidated. *)
  mutable jit_validator : (bentry -> Ir.chk array -> Ir.guard array -> bool) option;
}

(* Every counter the block tiers keep, in one record the machine holds:
   translation, chaining and optimizer activity, all cumulative.  Pure
   accounting — no counter ever decides what executes. *)
and counters = {
  mutable blocks_filled : int;
  mutable insns_translated : int;  (* sum of fill-time block lengths *)
  mutable block_aborts : int;
      (* blocks abandoned mid-execution because one of their own stores
         invalidated the translation (self-modifying code) *)
  mutable chain_hits : int;  (* transfers that skipped probe + ticket *)
  mutable chain_unlinks : int;  (* stale links observed at traversal *)
  mutable superblocks_formed : int;
  mutable side_exits : int;  (* taken interior branches of superblocks *)
  (* Dispatch_jit optimizer counters: bumped at compile time per
     translated block, plus [opt_side_exits] at run time. *)
  mutable jit_blocks_compiled : int;
  mutable checks_eliminated : int;
  mutable checks_hoisted : int;
  mutable checks_hoisted_nonentry : int;
  mutable dead_bookkeeping_removed : int;
  mutable opt_side_exits : int;
  mutable jit_plans_rejected : int;
}

(* A decode-cache entry carries a fetch "ticket": the machine mode and
   the exact PCC under which the fetch-side checks passed at fill time.
   The checks are a pure function of (mode, PCC, pc), so a hit whose
   current PCC equals the ticket can skip them wholesale — same result,
   no bounds decode. *)
and centry = {
  c_insn : Insn.t;
  c_opt : Insn.t option;  (* [Some c_insn], built once at fill so the
                             per-step event update allocates nothing *)
  c_mode : mode;
  c_pcc : Capability.t;
  c_next : Capability.t option;
      (* [Some] of the step-advanced PCC ([next_pcc] at fill time).  The
         PC advance is a pure function of the ticket fields, so a hit
         whose PCC matches the ticket can install this record directly:
         no representability check, no allocation.  [None] only in the
         dummy. *)
}

(* A translated basic block: the decoded instructions of one
   straight-line run of code, from a fetch target up to and including
   the first control-flow or interrupt-posture-changing instruction
   (or the length cap).  Like [centry], every per-instruction value the
   hot loop needs — the [Some insn] event payload and the fall-through
   PCC — is prebuilt at fill time, so executing a cached block
   allocates nothing. *)
and bentry = {
  b_insns : Insn.t array;
  b_opts : Insn.t option array;  (* [Some b_insns.(i)], built at fill *)
  b_nexts : Capability.t option array;
      (* fall-through PCC after instruction [i]: the fill-time
         [next_pcc] chain.  Valid whenever the block ticket validates —
         each link is a pure function of the ticket fields. *)
  b_mode : mode;
  b_pcc : Capability.t;  (* fetch ticket: the fill-time block-start PCC *)
  b_start : int;  (* address of b_insns.(0) *)
  b_len : int;
  (* Direct chain slots (chain and jit tiers): when the block ends in a
     direct [Jal] or a [Branch], the validated successor block of each
     edge is cached here with the cache's chain epoch at link time.  A
     link whose epoch still matches is followed without probing the
     cache or re-checking the successor's ticket: the link was
     validated under a PCC value-equal to the one every later traversal
     of the same edge produces (see [chain_edge]).  [b_*_epoch = -1]
     marks an edge never linked.  The counters drive superblock
     formation. *)
  mutable b_taken : bentry option;
  mutable b_taken_epoch : int;
  mutable b_cnt_taken : int;
  mutable b_fall : bentry option;
  mutable b_fall_epoch : int;
  mutable b_cnt_fall : int;
  (* Indirect-target slot ([Jalr]-ended blocks): the block most recently
     reached through this block's indirect exit.  Epoch-validated like
     the direct links, but — unlike them — the successor's ticket is
     re-checked at every traversal: a [Jalr] target comes from a live
     register, so nothing pins it (or the post-jump PCC) between
     traversals. *)
  mutable b_ind : bentry option;
  mutable b_ind_epoch : int;
  (* The block's optimized execution plan, compiled lazily on first
     [Dispatch_jit] entry (see [compile_jit]). *)
  mutable b_jit : jit option;
}

(* A compiled plan for one (super)block: per-instruction check levels
   and block-entry guards from [Ir.optimize], plus compile-time folds
   of the block's static control-flow capabilities.  [Capability.null]
   (physical compare) marks a fold that was not taken. *)
and jit = {
  j_chk : Ir.chk array;  (* per-instruction residual access checks *)
  j_guards : Ir.guard array;  (* block-entry hoisted checks *)
  j_br : Capability.t array;
      (* per-instruction folded taken-target PCC of an in-bounds
         direct [Branch]; [Capability.null] where not folded *)
  j_jal_target : Capability.t;  (* folded final-[Jal] target PCC *)
  j_link_on : Capability.t;  (* its link sentry when [mie] is set... *)
  j_link_off : Capability.t;  (* ...and when it is clear *)
}

exception Trap of cause

(* Blocks are capped at 16 instructions (64 bytes): long enough that
   dispatch overhead amortises away, short enough that the store-snoop
   probe in [Decode_cache.rkill_store] stays a handful of compares. *)
let max_block_len = 16

(* Superblocks — hot paths re-translated across not-taken branches —
   may grow to 64 instructions (256 bytes).  This also sets the ranged
   cache's [max_span] and therefore the store-snoop candidate walk, but
   that walk only runs for stores landing inside the code-span window,
   which data stores never do. *)
let max_superblock_len = 64

(* Fuel ceiling of one recorded dispatch round ([step_round]): bounds
   the retirement ring.  A chained round ends early when fuel runs out,
   so any cap is exact; this one is big enough that chaining still
   amortises under the perf harness. *)
let round_cap = 128

let create ?(mode = Cheriot) ?(load_filter = true) bus =
  let dcache =
    Decode_cache.create
      ~dummy:
        {
          c_insn = Insn.Ebreak;
          c_opt = Some Insn.Ebreak;
          c_mode = mode;
          c_pcc = Capability.null;
          c_next = None;
        }
      ()
  in
  let bcache =
    Decode_cache.ranged ~max_span:(max_superblock_len * 4)
      ~dummy:
        {
          b_insns = [||];
          b_opts = [||];
          b_nexts = [||];
          b_mode = mode;
          b_pcc = Capability.null;
          b_start = -1;
          b_len = 0;
          b_taken = None;
          b_taken_epoch = -1;
          b_cnt_taken = 0;
          b_fall = None;
          b_fall_epoch = -1;
          b_cnt_fall = 0;
          b_ind = None;
          b_ind_epoch = -1;
          b_jit = None;
        }
      ()
  in
  (* Stores must kill stale decodes: self-modifying code and loader
     patches through the bus re-decode (and re-translate) on the next
     fetch.  The block cache needs the ranged kill — a store anywhere in
     a block's span stales it, not just one to its start granule. *)
  Bus.on_store bus (fun g ->
      Decode_cache.invalidate_granule dcache g;
      Decode_cache.rkill_store bcache g);
  {
    regs = Array.make 16 Capability.null;
    pcc = Capability.root_executable;
    bus;
    mode;
    ddc = (if mode = Rv32 then Capability.root_mem_rw else Capability.null);
    load_filter;
    mie = false;
    mpie = false;
    mcause = 0;
    mtval = 0;
    mcycle = 0;
    minstret = 0;
    mshwm = 0;
    mshwmb = 0;
    mtimecmp = 0;
    mtcc = Capability.null;
    mepcc = Capability.null;
    mtdc = Capability.null;
    mscratchc = Capability.null;
    ext_interrupt = false;
    waiting = false;
    last_event = { no_event with ev_insn = None };
    dcache;
    bcache;
    counters =
      {
        blocks_filled = 0;
        insns_translated = 0;
        block_aborts = 0;
        chain_hits = 0;
        chain_unlinks = 0;
        superblocks_formed = 0;
        side_exits = 0;
        jit_blocks_compiled = 0;
        checks_eliminated = 0;
        checks_hoisted = 0;
        checks_hoisted_nonentry = 0;
        dead_bookkeeping_removed = 0;
        opt_side_exits = 0;
        jit_plans_rejected = 0;
      };
    fm_sram = Sram.create ~base:0 ~size:8;
    fm_base = 0;
    fm_limit = 0;
    block_events =
      Array.init (round_cap + 1) (fun _ -> { no_event with ev_insn = None });
    block_pcs = Array.make (round_cap + 1) 0;
    block_marks = Array.make (round_cap + 1) 0;
    block_ev_n = 0;
    hot_threshold = 32;
    hot_adaptive = true;
    ht_resolves = 0;
    ht_unlinks_mark = 0;
    jit_validator = None;
  }

(* regs.(0) is initialised to null and [set_reg] never writes it, so the
   zero register needs no special-casing on the read side.  The masked
   index is always in [0, 15], so the bounds check is elided. *)
let reg m r = Array.unsafe_get m.regs (r land 15)

let set_reg m r c =
  let r = r land 15 in
  if r <> 0 then Array.unsafe_set m.regs r c

let reg_int m r = (Array.unsafe_get m.regs (r land 15)).Capability.addr

let mask32 = 0xFFFF_FFFF
let[@inline always] int_cap v = Capability.{ null with addr = v land mask32 }
let[@inline always] set_reg_int m r v = set_reg m r (int_cap v)

let timer_pending m = m.mtimecmp <> 0 && m.mcycle >= m.mtimecmp
let interrupt_pending m = timer_pending m || m.ext_interrupt

let to_signed v = (v lxor 0x8000_0000) - 0x8000_0000

(* --- memory access checks ------------------------------------------- *)

(* Top-level (not a local closure capturing [ridx]) so the check below
   allocates nothing on the no-trap path. *)
let access_fail c ridx = raise (Trap (Cheri_fault (c, ridx)))

let check_access m ~cap ~ridx ~addr ~size ~store ~is_cap =
  ignore m;
  if not cap.Capability.tag then access_fail Cheri_tag ridx;
  if Capability.is_sealed cap then access_fail Cheri_seal ridx;
  if store then begin
    if not (Capability.has_perm cap SD) then access_fail Cheri_permit_store ridx;
    if is_cap && not (Capability.has_perm cap MC) then
      access_fail Cheri_permit_store_cap ridx
  end
  else begin
    if not (Capability.has_perm cap LD) then access_fail Cheri_permit_load ridx;
    if is_cap && not (Capability.has_perm cap MC) then
      access_fail Cheri_permit_load_cap ridx
  end;
  if not (Capability.in_bounds cap ~size addr) then access_fail Cheri_bounds ridx;
  if addr land (size - 1) <> 0 then
    raise (Trap (if store then Store_misaligned else Load_misaligned));
  if addr < 0 || addr > mask32 then
    raise (Trap (if store then Store_access_fault else Load_access_fault))

(* Stack high-water-mark tracking (5.2.1): every store whose address lies
   within [mshwmb, mshwm) lowers the mark. *)
let note_store m addr =
  if addr >= m.mshwmb && addr < m.mshwm then m.mshwm <- addr land lnot 7

(* --- SRAM window fast path -------------------------------------------- *)

(* Scalar data accesses overwhelmingly land in one SRAM region.  The
   machine keeps that region's bounds in immediate fields and, when the
   (already permission/alignment/range-checked) address fits, goes
   straight to the byte array: no bus list walk, no option, no
   exception-handler setup.  Observationally identical to [Bus.read]/
   [Bus.write] — SRAM stores still fire the snoops — and shared by every
   dispatch path. *)

let refresh_window m ~size addr =
  match Bus.sram_at m.bus ~size addr with
  | Some s ->
      m.fm_sram <- s;
      m.fm_base <- Sram.base s;
      m.fm_limit <- Sram.base s + Sram.size s;
      true
  | None -> false

let data_read_slow m ~size addr =
  if refresh_window m ~size addr then begin
    match size with
    | 1 -> Sram.read8_u m.fm_sram addr
    | 2 -> Sram.read16_u m.fm_sram addr
    | _ -> Sram.read32_u m.fm_sram addr
  end
  else
    try Bus.read m.bus ~width:size addr
    with Bus.Bus_error _ -> raise (Trap Load_access_fault)

let[@inline] data_read m ~size addr =
  if addr >= m.fm_base && addr + size <= m.fm_limit then begin
    match size with
    | 1 -> Sram.read8_u m.fm_sram addr
    | 2 -> Sram.read16_u m.fm_sram addr
    | _ -> Sram.read32_u m.fm_sram addr
  end
  else data_read_slow m ~size addr

let data_write_slow m ~size addr v =
  if refresh_window m ~size addr then begin
    (match size with
    | 1 -> Sram.write8_u m.fm_sram addr v
    | 2 -> Sram.write16_u m.fm_sram addr v
    | _ -> Sram.write32_u m.fm_sram addr v);
    Bus.snoop_store m.bus addr
  end
  else
    try Bus.write m.bus ~width:size addr v
    with Bus.Bus_error _ -> raise (Trap Store_access_fault)

let[@inline] data_write m ~size addr v =
  if addr >= m.fm_base && addr + size <= m.fm_limit then begin
    (match size with
    | 1 -> Sram.write8_u m.fm_sram addr v
    | 2 -> Sram.write16_u m.fm_sram addr v
    | _ -> Sram.write32_u m.fm_sram addr v);
    Bus.snoop_store m.bus addr
  end
  else data_write_slow m ~size addr v

(* The architectural load filter (3.3.2): on every capability load the
   base of the loaded capability indexes the revocation bitmap; a set bit
   means the capability points to freed memory and its tag is stripped
   before register writeback. *)
let load_filter_apply m c =
  if (not m.load_filter) || not c.Capability.tag then c
  else
    match Bus.revbits m.bus with
    | Some rb when Revbits.is_revoked rb (Capability.base c) ->
        Capability.clear_tag c
    | Some _ | None -> c

(* --- memory access -------------------------------------------------- *)

(* One arm per access class, directed by an [Ir.chk] plan: [Chk_full]
   is the full [check_access] prologue, which the reference interpreter
   and every block tier without a compiled plan run on every access;
   the reduced levels keep only the residual checks of a compiled plan.  The reduced levels exist only
   for CHERIoT-mode blocks (the optimizer emits [Chk_full] throughout
   for Rv32), so the cited register {e is} the authorizing capability
   there.  Check order within each arm mirrors [check_access] (bounds
   before alignment), so the first failing check — and therefore the
   trap cause — is identical to the reference path's on every input the
   plan admits.

   The effective address always comes from [rs1]'s address field; only
   the authorizing capability differs by mode (the register itself, or
   the implicit DDC).  Computed field-by-field so no intermediate pair
   is built on the per-access hot path. *)

let[@inline always] width_bytes = function Insn.B -> 1 | H -> 2 | W -> 4

let exec_load m chk ~rs1 ~off ~width ~signed ~rd =
  let size = width_bytes width in
  let r = reg m rs1 in
  let addr = (r.Capability.addr + off) land mask32 in
  (match chk with
  | Ir.Chk_full ->
      let cap = match m.mode with Cheriot -> r | Rv32 -> m.ddc in
      check_access m ~cap ~ridx:rs1 ~addr ~size ~store:false ~is_cap:false
  | Ir.Chk_bounds ->
      if not (Capability.in_bounds r ~size addr) then
        access_fail Cheri_bounds rs1;
      if addr land (size - 1) <> 0 then raise (Trap Load_misaligned)
  | Ir.Chk_align ->
      if addr land (size - 1) <> 0 then raise (Trap Load_misaligned)
  | Ir.Chk_none -> ());
  let v = data_read m ~size addr in
  let v =
    if signed then
      match width with
      | B -> (v lxor 0x80) - 0x80
      | H -> (v lxor 0x8000) - 0x8000
      | W -> v
    else v
  in
  set_reg_int m rd v

let exec_store m chk ~rs1 ~off ~width ~rs2 =
  let size = width_bytes width in
  let r = reg m rs1 in
  let addr = (r.Capability.addr + off) land mask32 in
  (match chk with
  | Ir.Chk_full ->
      let cap = match m.mode with Cheriot -> r | Rv32 -> m.ddc in
      check_access m ~cap ~ridx:rs1 ~addr ~size ~store:true ~is_cap:false
  | Ir.Chk_bounds ->
      if not (Capability.in_bounds r ~size addr) then
        access_fail Cheri_bounds rs1;
      if addr land (size - 1) <> 0 then raise (Trap Store_misaligned)
  | Ir.Chk_align ->
      if addr land (size - 1) <> 0 then raise (Trap Store_misaligned)
  | Ir.Chk_none -> ());
  data_write m ~size addr (reg_int m rs2);
  note_store m addr

let exec_clc m chk ~rd ~rs1 ~off =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  let cap = reg m rs1 in
  let addr = (Capability.address cap + off) land mask32 in
  (match chk with
  | Ir.Chk_full ->
      check_access m ~cap ~ridx:rs1 ~addr ~size:8 ~store:false ~is_cap:true
  | Ir.Chk_bounds ->
      if not (Capability.in_bounds cap ~size:8 addr) then
        access_fail Cheri_bounds rs1;
      if addr land 7 <> 0 then raise (Trap Load_misaligned)
  | Ir.Chk_align -> if addr land 7 <> 0 then raise (Trap Load_misaligned)
  | Ir.Chk_none -> ());
  let tag, word =
    try Bus.read_cap m.bus addr
    with Bus.Bus_error _ -> raise (Trap Load_access_fault)
  in
  let loaded = Capability.of_word ~tag word in
  let loaded = Capability.load_attenuate ~authority:cap loaded in
  let loaded = load_filter_apply m loaded in
  set_reg m rd loaded

let exec_csc m chk ~rs2 ~rs1 ~off =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  let cap = reg m rs1 in
  let addr = (Capability.address cap + off) land mask32 in
  (match chk with
  | Ir.Chk_full ->
      check_access m ~cap ~ridx:rs1 ~addr ~size:8 ~store:true ~is_cap:true
  | Ir.Chk_bounds ->
      if not (Capability.in_bounds cap ~size:8 addr) then
        access_fail Cheri_bounds rs1;
      if addr land 7 <> 0 then raise (Trap Store_misaligned)
  | Ir.Chk_align -> if addr land 7 <> 0 then raise (Trap Store_misaligned)
  | Ir.Chk_none -> ());
  let value = reg m rs2 in
  (* The store-local check depends on the {e stored value}, not on a
     fact any dominating access could establish: never eliminated. *)
  if
    value.Capability.tag
    && (not (Capability.is_global value))
    && not (Capability.has_perm cap SL)
  then raise (Trap (Cheri_fault (Cheri_permit_store_local, rs2)));
  (try Bus.write_cap m.bus addr (value.Capability.tag, Capability.to_word value)
   with Bus.Bus_error _ -> raise (Trap Store_access_fault));
  note_store m addr

(* A block-entry guard (pass 2): tag/seal, the union of the permissions
   the covered accesses need, and one bounds check over the union
   footprint.  Evaluated against the {e entry} value of the register —
   the optimizer only hoists over entry versions.  Failure is not a
   trap: the caller falls back to the fully-checked plan for this block
   execution, so a faulting access (if any) traps at its own
   instruction with its own cause. *)
let jit_guard_ok m (g : Ir.guard) =
  let c = reg m g.Ir.g_rs1 in
  c.Capability.tag
  && (not (Capability.is_sealed c))
  && ((not g.Ir.g_need_ld) || Capability.has_perm c LD)
  && ((not g.Ir.g_need_sd) || Capability.has_perm c SD)
  && ((not g.Ir.g_need_mc) || Capability.has_perm c MC)
  &&
  (* One decode covers every member: if [lo, lo + span) is in bounds
     then each member's masked address lands inside it (all member
     sums collapse consistently under the 32-bit mask exactly when the
     whole span does — a span that straddles the wrap point cannot
     satisfy [access + size <= top <= 2^32] and fails the guard). *)
  let lo = (c.Capability.addr + g.Ir.g_lo) land mask32 in
  Capability.in_bounds c ~size:(g.Ir.g_hi - g.Ir.g_lo) lo

let jit_guards_ok m (gs : Ir.guard array) =
  let ok = ref true in
  for k = 0 to Array.length gs - 1 do
    if not (jit_guard_ok m (Array.unsafe_get gs k)) then ok := false
  done;
  !ok

(* --- CSRs ------------------------------------------------------------ *)

let require_sr m =
  if m.mode = Cheriot && not (Capability.has_perm m.pcc SR) then
    raise (Trap (Cheri_fault (Cheri_permit_access_system_registers, 16)))

let csr_read m n =
  if n = Csr.mstatus then
    ((if m.mie then 1 else 0) lsl Csr.mstatus_mie_bit)
    lor ((if m.mpie then 1 else 0) lsl Csr.mstatus_mpie_bit)
  else if n = Csr.mcause then m.mcause
  else if n = Csr.mtval then m.mtval
  else if n = Csr.mcycle then m.mcycle land mask32
  else if n = Csr.mcycleh then (m.mcycle lsr 32) land mask32
  else if n = Csr.minstret then m.minstret land mask32
  else if n = Csr.mshwm then m.mshwm
  else if n = Csr.mshwmb then m.mshwmb
  else if n = Csr.mtimecmp then m.mtimecmp land mask32
  else raise (Trap Illegal_instruction)

let csr_write m n v =
  let v = v land mask32 in
  if n = Csr.mstatus then begin
    m.mie <- v land (1 lsl Csr.mstatus_mie_bit) <> 0;
    m.mpie <- v land (1 lsl Csr.mstatus_mpie_bit) <> 0
  end
  else if n = Csr.mcause then m.mcause <- v
  else if n = Csr.mtval then m.mtval <- v
  else if n = Csr.mcycle then m.mcycle <- v
  else if n = Csr.minstret then m.minstret <- v
  else if n = Csr.mshwm then m.mshwm <- v
  else if n = Csr.mshwmb then m.mshwmb <- v
  else if n = Csr.mtimecmp then m.mtimecmp <- v
  else raise (Trap Illegal_instruction)

let csr_is_counter n = n = Csr.mcycle || n = Csr.mcycleh || n = Csr.minstret

let do_csr m op rd rs1 n =
  (* Counter reads are unprivileged; everything else needs PCC.SR. *)
  let pure_read = op <> Insn.Csrrw && rs1 = 0 in
  if not (pure_read && csr_is_counter n) then require_sr m;
  let old = csr_read m n in
  (match op with
  | Insn.Csrrw -> csr_write m n (reg_int m rs1)
  | Insn.Csrrs -> if rs1 <> 0 then csr_write m n (old lor reg_int m rs1)
  | Insn.Csrrc ->
      if rs1 <> 0 then csr_write m n (old land lnot (reg_int m rs1)));
  set_reg_int m rd old

let scr_read m = function
  | Insn.MTCC -> m.mtcc
  | MTDC -> m.mtdc
  | MScratchC -> m.mscratchc
  | MEPCC -> m.mepcc

let scr_write m scr c =
  match scr with
  | Insn.MTCC -> m.mtcc <- c
  | MTDC -> m.mtdc <- c
  | MScratchC -> m.mscratchc <- c
  | MEPCC -> m.mepcc <- c

(* --- control flow ----------------------------------------------------- *)

let apply_sentry_posture m = function
  | Otype.Sentry_inherit -> ()
  | Sentry_enable | Sentry_ret_enable -> m.mie <- true
  | Sentry_disable | Sentry_ret_disable -> m.mie <- false

let link_cap m next_addr =
  (* The link register receives a return sentry recording the interrupt
     posture at the call site (3.1.2). *)
  let c = Capability.with_address m.pcc next_addr in
  match
    Capability.seal_sentry c (Otype.return_sentry ~interrupts_enabled:m.mie)
  with
  | Ok sealed -> sealed
  | Error _ -> Capability.clear_tag c

let do_jal m rd off =
  let pc = Capability.address m.pcc in
  let target = (pc + off) land mask32 in
  match m.mode with
  | Rv32 ->
      set_reg_int m rd (pc + 4);
      m.pcc <- Capability.{ root_executable with addr = target }
  | Cheriot ->
      if not (Capability.in_bounds m.pcc ~size:4 target) then
        raise (Trap (Cheri_fault (Cheri_bounds, 16)));
      set_reg m rd (link_cap m (pc + 4));
      (* In-bounds addresses are always representable (the concentrate
         encoding's defining invariant, checked exhaustively by
         test_bounds), and the PCC is tagged and unsealed here — so
         [with_address] would always succeed; skip its redundant bounds
         decode. *)
      m.pcc <- { m.pcc with Capability.addr = target }

let do_jalr m rd rs1 off =
  let pc = Capability.address m.pcc in
  match m.mode with
  | Rv32 ->
      let target = (reg_int m rs1 + off) land mask32 land lnot 1 in
      set_reg_int m rd (pc + 4);
      m.pcc <- Capability.{ root_executable with addr = target }
  | Cheriot ->
      let cap = reg m rs1 in
      if not cap.Capability.tag then
        raise (Trap (Cheri_fault (Cheri_tag, rs1)));
      let cap =
        if Capability.is_sealed cap then begin
          match Capability.sentry_kind cap with
          | Some kind when off = 0 ->
              let link = link_cap m (pc + 4) in
              apply_sentry_posture m kind;
              set_reg m rd link;
              Capability.{ cap with otype = Otype.unsealed }
          | Some _ | None -> raise (Trap (Cheri_fault (Cheri_seal, rs1)))
        end
        else begin
          set_reg m rd (link_cap m (pc + 4));
          cap
        end
      in
      if not (Capability.has_perm cap EX) then
        raise (Trap (Cheri_fault (Cheri_permit_execute, rs1)));
      let target = (Capability.address cap + off) land mask32 land lnot 1 in
      if not (Capability.in_bounds cap ~size:4 target) then
        raise (Trap (Cheri_fault (Cheri_bounds, rs1)));
      (* [cap] is tagged, unsealed and in bounds at [target] here, so
         [with_address] would always succeed (in-bounds implies
         representable); skip its redundant bounds decode. *)
      m.pcc <- { cap with Capability.addr = target }

let[@inline always] alu_exec op a b =
  let open Insn in
  match op with
  | Add -> (a + b) land mask32
  | Sub -> (a - b) land mask32
  | Sll -> (a lsl (b land 31)) land mask32
  | Slt -> if to_signed a < to_signed b then 1 else 0
  | Sltu -> if a < b then 1 else 0
  | Xor -> a lxor b
  | Srl -> a lsr (b land 31)
  | Sra -> (to_signed a asr (b land 31)) land mask32
  | Or -> a lor b
  | And -> a land b

let muldiv_exec op a b =
  let open Insn in
  let sa = to_signed a and sb = to_signed b in
  match op with
  | Mul -> (a * b) land mask32
  | Mulh -> (sa * sb) asr 32 land mask32
  | Mulhsu -> (sa * b) asr 32 land mask32
  | Mulhu -> (a * b) lsr 32 land mask32
  | Div ->
      if sb = 0 then mask32
      else if sa = -0x8000_0000 && sb = -1 then 0x8000_0000
      else to_signed a / to_signed b land mask32 land mask32
  | Divu -> if b = 0 then mask32 else a / b
  | Rem ->
      if sb = 0 then a
      else if sa = -0x8000_0000 && sb = -1 then 0
      else Stdlib.( mod ) sa sb land mask32
  | Remu -> if b = 0 then a else a mod b

let[@inline always] branch_taken cond a b =
  let open Insn in
  match cond with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> to_signed a < to_signed b
  | Ge -> to_signed a >= to_signed b
  | Ltu -> a < b
  | Geu -> a >= b

(* --- capability instructions ----------------------------------------- *)

let require_tagged m ridx c =
  ignore m;
  if not c.Capability.tag then raise (Trap (Cheri_fault (Cheri_tag, ridx)))

let require_unsealed m ridx c =
  ignore m;
  if Capability.is_sealed c then raise (Trap (Cheri_fault (Cheri_seal, ridx)))

let exec_cap m (i : Insn.t) =
  if m.mode = Rv32 then raise (Trap Illegal_instruction);
  match i with
  | Cincaddr (cd, cs1, rs2) ->
      set_reg m cd (Capability.incr_address (reg m cs1) (reg_int m rs2))
  | Cincaddrimm (cd, cs1, imm) ->
      set_reg m cd (Capability.incr_address (reg m cs1) imm)
  | Csetaddr (cd, cs1, rs2) ->
      set_reg m cd (Capability.with_address (reg m cs1) (reg_int m rs2))
  | Csetbounds (cd, cs1, rs2) | Csetboundsimm (cd, cs1, rs2) ->
      let c = reg m cs1 in
      require_tagged m cs1 c;
      require_unsealed m cs1 c;
      let length =
        match i with
        | Csetboundsimm _ -> rs2
        | _ -> reg_int m rs2
      in
      let r = Capability.set_bounds c ~length ~exact:false in
      if not r.Capability.tag then
        raise (Trap (Cheri_fault (Cheri_bounds, cs1)));
      set_reg m cd r
  | Csetboundsexact (cd, cs1, rs2) ->
      let c = reg m cs1 in
      require_tagged m cs1 c;
      require_unsealed m cs1 c;
      let r = Capability.set_bounds c ~length:(reg_int m rs2) ~exact:true in
      if not r.Capability.tag then
        raise (Trap (Cheri_fault (Cheri_bounds, cs1)));
      set_reg m cd r
  | Crrl (rd, rs1) -> set_reg_int m rd (Bounds.crrl (reg_int m rs1))
  | Cram (rd, rs1) -> set_reg_int m rd (Bounds.cram (reg_int m rs1))
  | Candperm (cd, cs1, rs2) ->
      let mask = Perm.Set.of_arch_bits (reg_int m rs2) in
      set_reg m cd (Capability.and_perms (reg m cs1) mask)
  | Ccleartag (cd, cs1) -> set_reg m cd (Capability.clear_tag (reg m cs1))
  | Cmove (cd, cs1) -> set_reg m cd (reg m cs1)
  | Cseal (cd, cs1, cs2) -> (
      match Capability.seal (reg m cs1) ~key:(reg m cs2) with
      | Ok c -> set_reg m cd c
      | Error _ -> raise (Trap (Cheri_fault (Cheri_seal, cs2))))
  | Cunseal (cd, cs1, cs2) -> (
      match Capability.unseal (reg m cs1) ~key:(reg m cs2) with
      | Ok c -> set_reg m cd c
      | Error _ -> raise (Trap (Cheri_fault (Cheri_seal, cs2))))
  | Cget (g, rd, cs1) ->
      let c = reg m cs1 in
      let v =
        match g with
        | Addr -> Capability.address c
        | Base -> Capability.base c
        | Top -> min (Capability.top c) mask32
        | Len -> min (Capability.length c) mask32
        | Perm -> Perm.Set.to_arch_bits (Capability.perms c)
        | Type -> Otype.value (Capability.otype c)
        | Tag -> if c.Capability.tag then 1 else 0
      in
      set_reg_int m rd v
  | Csub (rd, cs1, cs2) ->
      set_reg_int m rd (reg_int m cs1 - reg_int m cs2)
  | Ctestsubset (rd, cs1, cs2) ->
      set_reg_int m rd
        (if Capability.is_subset (reg m cs2) ~of_:(reg m cs1) then 1 else 0)
  | Csetequalexact (rd, cs1, cs2) ->
      set_reg_int m rd
        (if Capability.equal (reg m cs1) (reg m cs2) then 1 else 0)
  | Cspecialrw (cd, scr, cs1) ->
      require_sr m;
      let old = scr_read m scr in
      if cs1 <> 0 then scr_write m scr (reg m cs1);
      set_reg m cd old
  | _ -> raise (Trap Illegal_instruction)

(* --- trap entry ------------------------------------------------------- *)

let enter_trap m cause =
  m.mcause <- mcause_of cause;
  (m.mtval <-
     (match cause with
     | Cheri_fault (c, r) -> (cheri_cause_code c lsl 5) lor r
     | _ -> 0));
  m.mepcc <- m.pcc;
  m.mpie <- m.mie;
  m.mie <- false;
  if m.mtcc.Capability.tag then begin
    m.pcc <- m.mtcc;
    Step_trap cause
  end
  else Step_double_fault

(* Take a trap or deliver an interrupt: nothing retires, so the event
   carries only the cause. *)
let take_trap m cause =
  m.last_event <- { no_event with ev_trap = Some cause };
  enter_trap m cause

let interrupt_cause m =
  if timer_pending m then Interrupt_timer else Interrupt_external

(* --- fetch/execute ---------------------------------------------------- *)

(* Pure in (mode, pcc, pc) — the block translator runs it against the
   fill-time PCC chain, not the live machine PCC. *)
let fetch_check_pcc mode pcc pc =
  if mode = Cheriot then begin
    if not pcc.Capability.tag then raise (Trap (Cheri_fault (Cheri_tag, 16)));
    if Capability.is_sealed pcc then
      raise (Trap (Cheri_fault (Cheri_seal, 16)));
    if not (Capability.has_perm pcc EX) then
      raise (Trap (Cheri_fault (Cheri_permit_execute, 16)));
    if not (Capability.in_bounds pcc ~size:4 pc) then
      raise (Trap (Cheri_fault (Cheri_bounds, 16)))
  end;
  if pc land 3 <> 0 then raise (Trap Illegal_instruction)

let fetch_check m pc = fetch_check_pcc m.mode m.pcc pc

let fetch_word m pc =
  try Bus.read m.bus ~width:4 pc
  with Bus.Bus_error _ -> raise (Trap Load_access_fault)

let fetch m =
  let pc = Capability.address m.pcc in
  fetch_check m pc;
  fetch_word m pc

(* The reference fetch: re-read and re-decode the word at the PC on
   every step.  [step] uses this path unchanged; it is the observational
   oracle the decoded-instruction cache is differentially tested
   against. *)
let fetch_decode m =
  match Encode.decode (fetch m) with
  | None -> raise (Trap Illegal_instruction)
  | Some insn -> insn

(* The cached fetch: identical PCC/alignment checks (traps must be
   bit-for-bit the same), but on a hit the bus read and decode are
   skipped.  Illegal words are never cached — they trap on the slow path
   every time, which keeps the cache total. *)
(* Is the fill-time ticket still good?  In Rv32 mode the only fetch-side
   check is word alignment, which the full-PC tag match already pins (a
   fill only ever happens after the checks passed).  In CHERIoT mode the
   checks also read the PCC, so the ticket must carry an identical one
   and must itself have been issued under CHERIoT checks. *)
let[@inline always] ticket_valid m e =
  match m.mode with
  | Rv32 -> true
  | Cheriot ->
      e.c_mode = Cheriot
      &&
      let tp = e.c_pcc and cp = m.pcc in
      tp == cp
      || (* [with_address] (the per-step PC advance) copies the record
            but shares the bounds block and keeps the immediate fields,
            so along straight-line execution every compare below is a
            word compare.  A re-derived but identical PCC (e.g. after a
            return) fails the physical bounds compare and merely falls
            back to the full fetch checks — conservative, never wrong.

            Only the fields that [fetch_check] and [next_pcc] read are
            compared.  The ticket passed the checks when issued, so: its
            tag is set (the current one is tested directly), equal
            otypes pin "unsealed", equal perms pin EX, and the address
            needs no compare at all — the cache's full-PC tag match
            already proved the current PCC address equals the fill-time
            one.  [reserved] is compared because the prebuilt [c_next]
            carries it verbatim. *)
      (tp.Capability.bounds == cp.Capability.bounds
      && cp.Capability.tag
      && tp.Capability.perms == cp.Capability.perms
      && tp.Capability.otype == cp.Capability.otype
      && tp.Capability.reserved = cp.Capability.reserved)

(* The step-advanced PCC.  A pure function of the current PCC and mode:
   [Capability.with_address p (pc + 4)] inlined for the CHERIoT case
   (the tag/seal tests almost always succeed right after a fetch and the
   fast-pathed representability check dominates); a plain program
   counter in Rv32 mode. *)
let next_pcc_of mode p =
  let addr = (p.Capability.addr + 4) land mask32 in
  match mode with
  | Cheriot ->
      let ok =
        p.Capability.tag
        && p.Capability.otype == Otype.unsealed
        && Bounds.representable p.Capability.bounds ~cur:p.Capability.addr
             ~addr
      in
      { p with Capability.addr; tag = ok }
  | Rv32 -> { p with Capability.addr }

let next_pcc m = next_pcc_of m.mode m.pcc

let next m = m.pcc <- next_pcc m

(* Fall-through PC advance.  The cached dispatch passes the fill-time
   [c_next] when the ticket validated — [next_pcc] depends only on the
   ticket-compared fields, so installing the prebuilt record is
   observationally identical to recomputing it (and costs one store). *)
let advance m nextc =
  match nextc with Some c -> m.pcc <- c | None -> next m

(* The plain-arm epilogue ([advance] + flagless [finish]) as one call —
   most instructions end exactly this way. *)
let advance_finish m nextc opt =
  (match nextc with Some c -> m.pcc <- c | None -> next m);
  m.minstret <- m.minstret + 1;
  let ev = m.last_event in
  ev.ev_insn <- opt;
  ev.ev_taken_branch <- false;
  ev.ev_trap <- None;
  Step_ok

let fetch_cached_slow m dc s pc =
  fetch_check m pc;
  match Encode.decode (fetch_word m pc) with
  | None -> raise (Trap Illegal_instruction)
  | Some insn ->
      let e =
        {
          c_insn = insn;
          c_opt = Some insn;
          c_mode = m.mode;
          c_pcc = m.pcc;
          c_next = Some (next_pcc m);
        }
      in
      Decode_cache.fill dc ~slot:s ~pc e;
      e

(* The probe is hand-inlined (the representation is exposed for exactly
   this callsite): one masked index, one tag compare, one ticket check
   on a hit. *)
let fetch_cached m =
  let pc = Capability.address m.pcc in
  let dc = m.dcache in
  let s = (pc lsr 2) land dc.Decode_cache.mask in
  if Array.unsafe_get dc.Decode_cache.tags s = pc then begin
    dc.Decode_cache.hits <- dc.Decode_cache.hits + 1;
    let e = Array.unsafe_get dc.Decode_cache.payloads s in
    if ticket_valid m e then e
    else begin
      (* PCC metadata changed since fill (e.g. entry through a different
         executable capability): re-run the checks, reissue the ticket. *)
      fetch_check m pc;
      let e =
        { e with c_mode = m.mode; c_pcc = m.pcc; c_next = Some (next_pcc m) }
      in
      Decode_cache.fill dc ~slot:s ~pc e;
      e
    end
  end
  else begin
    dc.Decode_cache.misses <- dc.Decode_cache.misses + 1;
    fetch_cached_slow m dc s pc
  end

let finish m ?(taken = false) opt =
  m.minstret <- m.minstret + 1;
  let ev = m.last_event in
  ev.ev_insn <- opt;
  ev.ev_taken_branch <- taken;
  ev.ev_trap <- None;
  Step_ok


(* One instruction's semantics, shared verbatim by both dispatch paths:
   the reference interpreter and the cached fast path differ only in how
   [insn] was obtained. *)
let exec m insn opt nextc =
  match insn with
  | Insn.Lui (rd, imm20) ->
      set_reg_int m rd (imm20 lsl 12);
      advance_finish m nextc opt
  | Auipcc (rd, imm20) ->
      let v = (Capability.address m.pcc + (imm20 lsl 12)) land mask32 in
      (match m.mode with
      | Cheriot -> set_reg m rd (Capability.with_address m.pcc v)
      | Rv32 -> set_reg_int m rd v);
      advance_finish m nextc opt
  | Jal (rd, off) ->
      do_jal m rd off;
      finish m ~taken:true opt
  | Jalr (rd, rs1, off) ->
      do_jalr m rd rs1 off;
      finish m ~taken:true opt
  | Branch (cond, rs1, rs2, off) ->
      let taken = branch_taken cond (reg_int m rs1) (reg_int m rs2) in
      if taken then begin
        let pc = Capability.address m.pcc in
        let target = (pc + off) land mask32 in
        if m.mode = Cheriot && not (Capability.in_bounds m.pcc ~size:4 target)
        then raise (Trap (Cheri_fault (Cheri_bounds, 16)));
        (* Bounds just checked (Cheriot) or irrelevant (Rv32): in-bounds
           implies representable, so the plain record update matches
           [with_address] exactly. *)
        m.pcc <- { m.pcc with Capability.addr = target }
      end
      else advance m nextc;
      finish m ~taken opt
  | Load { signed; width; rd; rs1; off } ->
      exec_load m Ir.Chk_full ~rs1 ~off ~width ~signed ~rd;
      advance_finish m nextc opt
  | Store { width; rs2; rs1; off } ->
      exec_store m Ir.Chk_full ~rs1 ~off ~width ~rs2;
      advance_finish m nextc opt
  | Clc (rd, rs1, off) ->
      exec_clc m Ir.Chk_full ~rd ~rs1 ~off;
      advance_finish m nextc opt
  | Csc (rs2, rs1, off) ->
      exec_csc m Ir.Chk_full ~rs2 ~rs1 ~off;
      advance_finish m nextc opt
  | Op_imm (op, rd, rs1, imm) ->
      set_reg_int m rd (alu_exec op (reg_int m rs1) (imm land mask32));
      advance_finish m nextc opt
  | Op (op, rd, rs1, rs2) ->
      set_reg_int m rd (alu_exec op (reg_int m rs1) (reg_int m rs2));
      advance_finish m nextc opt
  | Mul_div (op, rd, rs1, rs2) ->
      set_reg_int m rd (muldiv_exec op (reg_int m rs1) (reg_int m rs2));
      advance_finish m nextc opt
  | Ecall -> raise (Trap Ecall_m)
  | Ebreak ->
      m.last_event <- { no_event with ev_insn = opt };
      Step_halted
  | Mret ->
      require_sr m;
      let target = m.mepcc in
      let target =
        match Capability.sentry_kind target with
        | Some kind ->
            apply_sentry_posture m kind;
            Capability.{ target with otype = Otype.unsealed }
        | None ->
            m.mie <- m.mpie;
            target
      in
      m.mpie <- true;
      m.pcc <- target;
      finish m ~taken:true opt
  | Wfi ->
      if not (interrupt_pending m) then m.waiting <- true;
      advance m nextc;
      if m.waiting then begin
        m.minstret <- m.minstret + 1;
        m.last_event <- { no_event with ev_insn = opt };
        Step_waiting
      end
      else finish m opt
  | Csr (op, rd, rs1, n) ->
      do_csr m op rd rs1 n;
      advance_finish m nextc opt
  | Cincaddr _ | Cincaddrimm _ | Csetaddr _ | Csetbounds _
  | Csetboundsexact _ | Csetboundsimm _ | Crrl _ | Cram _
  | Candperm _ | Ccleartag _ | Cmove _ | Cseal _ | Cunseal _
  | Cget _ | Csub _ | Ctestsubset _ | Csetequalexact _
  | Cspecialrw _ ->
      exec_cap m insn;
      advance_finish m nextc opt

let step_gen m ~cached =
  if m.waiting && interrupt_pending m then m.waiting <- false;
  if m.waiting then Step_waiting
  else if m.mie && interrupt_pending m then take_trap m (interrupt_cause m)
  else
    try
      if cached then
        let e = fetch_cached m in
        (* Rv32 tickets don't field-compare the PCC, so the prebuilt
           next-PCC is only trusted in CHERIoT mode. *)
        let nextc = match m.mode with Cheriot -> e.c_next | Rv32 -> None in
        exec m e.c_insn e.c_opt nextc
      else
        let insn = fetch_decode m in
        exec m insn (Some insn) None
    with Trap cause -> take_trap m cause

let step m = step_gen m ~cached:false
let step_fast m = step_gen m ~cached:true

(* --- basic-block translation ------------------------------------------ *)

(* A block may contain, as non-final entries, only instructions that
   (when they do not trap — traps are handled at runtime) fall through
   to PC+4 and leave the interrupt-delivery predicate
   ([mie && interrupt_pending], i.e. mie/mtimecmp/mcycle/ext_interrupt/
   waiting) untouched.  Everything below ends a block: the jumps and
   Mret redirect the PCC, sentry Jalr and Mret toggle mie, Csr can
   write mstatus/mtimecmp/mcycle, Wfi sets waiting, Ecall/Ebreak never
   fall through.  Cspecialrw is fenced out of caution (system class).
   With that invariant, checking interrupts only at block boundaries is
   {e exactly} per-step equivalent — there is no reachable machine
   state in which the reference interpreter would deliver an interrupt
   between two instructions of the same block. *)
let block_terminator (i : Insn.t) =
  match i with
  | Insn.Jal _ | Jalr _ | Branch _ | Mret | Ecall | Ebreak | Wfi | Csr _
  | Cspecialrw _ ->
      true
  | _ -> false

(* Superblocks relax exactly one terminator: a [Branch] may sit in the
   interior, because it never touches the interrupt-delivery predicate
   — its only control effect is redirecting the PCC, which the executor
   turns into a side exit when taken.  Everything else that ends a
   block still ends a superblock. *)
let superblock_terminator (i : Insn.t) =
  match i with Insn.Branch _ -> false | _ -> block_terminator i

(* Fill-time fetch+decode under an explicit PCC.  Only SRAM-resident
   words are translated: lookahead past the current PC must not replay
   MMIO read side effects.  [None] means "this word cannot join a
   block" — the caller cuts the block there (or, for the first word,
   falls back to a single per-step step, which reproduces the exact
   trap / MMIO-fetch behaviour of the reference path). *)
let decode_at m pcc pc =
  match fetch_check_pcc m.mode pcc pc with
  | exception Trap _ -> None
  | () -> (
      match Bus.sram_at m.bus ~size:4 pc with
      | None -> None
      | Some s -> (
          match Encode.decode (Sram.read32 s pc) with
          | None -> None (* illegal words are never cached *)
          | Some i -> Some i))

(* Translate a run of code starting at [pc0] under [pcc0].  Plain
   blocks ([sb:false]) stop at every [block_terminator]; superblocks
   ([sb:true]) keep translating across not-taken [Branch]es up to
   [cap] instructions (the executor side-exits when one is taken).
   Translation is contiguous either way, so the registered span covers
   every word and the store snoop kills superblocks exactly like
   blocks.  Returns [None] when the first word is untranslatable. *)
let translate m ~pcc0 ~pc0 ~sb ~cap =
  match decode_at m pcc0 pc0 with
  | None -> None
  | Some first ->
      let buf_i = Array.make cap first in
      let buf_o = Array.make cap None in
      let buf_n = Array.make cap None in
      let term = if sb then superblock_terminator else block_terminator in
      let rec grow pcc i len =
        (* invariant: [i] decoded at [pc0 + 4*len] under [pcc], with the
           fetch-side checks passed *)
        buf_i.(len) <- i;
        buf_o.(len) <- Some i;
        let nx = next_pcc_of m.mode pcc in
        buf_n.(len) <- Some nx;
        let len = len + 1 in
        if term i || len >= cap then len
        else
          (* [nx] may be untagged (unrepresentable advance) — then the
             fetch check fails and the block simply ends here; the trap,
             if ever reached, is taken by the per-step machinery. *)
          match decode_at m nx (pc0 + (4 * len)) with
          | Some i' -> grow nx i' len
          | None -> len
      in
      let len = grow pcc0 first 0 in
      Some
        {
          b_insns = Array.sub buf_i 0 len;
          b_opts = Array.sub buf_o 0 len;
          b_nexts = Array.sub buf_n 0 len;
          b_mode = m.mode;
          b_pcc = pcc0;
          b_start = pc0;
          b_len = len;
          b_taken = None;
          b_taken_epoch = -1;
          b_cnt_taken = 0;
          b_fall = None;
          b_fall_epoch = -1;
          b_cnt_fall = 0;
          b_ind = None;
          b_ind_epoch = -1;
          b_jit = None;
        }

let install_block m (b : bentry) =
  let c = m.counters in
  c.blocks_filled <- c.blocks_filled + 1;
  c.insns_translated <- c.insns_translated + b.b_len;
  let bc = m.bcache in
  let s = Decode_cache.slot bc.Decode_cache.rc b.b_start in
  Decode_cache.rfill bc ~slot:s ~pc:b.b_start ~lo:b.b_start
    ~hi:(b.b_start + (4 * b.b_len))
    b

(* Translate and install the block at [pc0] (the current PC; the caller
   just missed in the block cache). *)
let fill_block m pc0 =
  match translate m ~pcc0:m.pcc ~pc0 ~sb:false ~cap:max_block_len with
  | None -> None
  | Some b ->
      install_block m b;
      Some b

(* A fall-through edge of [b] crossed the hotness threshold: re-derive
   the joined path from the block's start as one superblock and install
   it over the original entry (same start PC, same slot).  Install only
   if the re-translation actually grew — the environment may refuse to
   extend (e.g. the next word is untranslatable), and replacing an
   entry with an identical one would re-fire forever.  Installation
   bumps the chain epoch: links elsewhere still point at the replaced
   entry, and following them would keep executing the short block and
   never reach the superblock. *)
let form_superblock m (b : bentry) =
  match
    translate m ~pcc0:b.b_pcc ~pc0:b.b_start ~sb:true ~cap:max_superblock_len
  with
  | Some nb when nb.b_len > b.b_len ->
      install_block m nb;
      m.counters.superblocks_formed <- m.counters.superblocks_formed + 1;
      Decode_cache.bump_chain_epoch m.bcache
  | _ -> ()

(* Same ticket discipline as [ticket_valid], with two differences.
   The compare is used in {e both} modes: the prebuilt [b_nexts] chain
   copies the fill-time PCC's metadata fields verbatim, so an Rv32 hit
   must pin them too.  And the bounds compare falls back to {e value}
   equality (three small-int compares): a re-derived but identical PCC
   — e.g. after returning through a link sentry, which rebuilds the
   bounds record — still hits, where a physical-only compare would
   force a full re-translation of every block after every return.
   Observational behaviour depends only on field values, so installing
   the fill-time chain under a value-equal PCC is exact; and since the
   chain {e is} the fill-time records, the very next compare is
   physical again.  ([perms] is an immediate int and an executing PCC's
   [otype] is the immediate [Otype.unsealed], so [==] already is value
   equality for those.)  The cache's full-PC tag match pinned the
   address. *)
let[@inline always] block_ticket_valid m (b : bentry) =
  b.b_mode = m.mode
  &&
  let tp = b.b_pcc and cp = m.pcc in
  tp == cp
  || ((tp.Capability.bounds == cp.Capability.bounds
      || Bounds.equal tp.Capability.bounds cp.Capability.bounds)
     && tp.Capability.tag = cp.Capability.tag
     && tp.Capability.perms == cp.Capability.perms
     && tp.Capability.otype == cp.Capability.otype
     && tp.Capability.reserved = cp.Capability.reserved)

(* The hand-inlined block-cache probe (it mirrors [fetch_cached]): the
   translated block at [pc] if its ticket validates under the live PCC,
   counted as a hit; otherwise the cache's dummy entry — a physical-
   equality sentinel instead of an [option], so the probe never
   allocates.  Misses are the caller's to count. *)
let[@inline] probe_block m pc =
  let rc = m.bcache.Decode_cache.rc in
  let s = (pc lsr 2) land rc.Decode_cache.mask in
  let b = Array.unsafe_get rc.Decode_cache.payloads s in
  if Array.unsafe_get rc.Decode_cache.tags s = pc && block_ticket_valid m b
  then begin
    rc.Decode_cache.hits <- rc.Decode_cache.hits + 1;
    b
  end
  else rc.Decode_cache.dummy

(* --- the retirement ring ---------------------------------------------- *)

(* Control-flow marks attached to ring entries for trace rendering. *)
let mark_chained = 1
let mark_side_exit = 2
let mark_jit = 3
let mark_opt_side_exit = 4

let copy_event src dst =
  dst.ev_insn <- src.ev_insn;
  dst.ev_taken_branch <- src.ev_taken_branch;
  dst.ev_trap <- src.ev_trap

(* Append an entry at [pc] to the ring and return its event, for the
   caller to fill. *)
let ring_push m pc mark =
  let n = m.block_ev_n in
  m.block_pcs.(n) <- pc;
  m.block_marks.(n) <- mark;
  m.block_ev_n <- n + 1;
  m.block_events.(n)

(* A round of one step (or one delivered interrupt): copy the live
   [last_event], which is reused in place every instruction. *)
let record_event m pc = copy_event m.last_event (ring_push m pc 0)

(* One segment of a recorded block-tier round: the first [len]
   instructions of [b], all retired without trapping, entered with trace
   mark [mark].  Every event is rebuilt from the decoded instruction;
   only the segment's last instruction can have redirected the PC
   ([taken]), and a taken one inside the block is a side exit. *)
let record_segment m (b : bentry) len ~taken ~mark =
  for k = 0 to len - 1 do
    let ev = ring_push m (b.b_start + (4 * k)) (if k = 0 then mark else 0) in
    ev.ev_insn <- Array.unsafe_get b.b_opts k;
    ev.ev_taken_branch <- taken && k = len - 1;
    ev.ev_trap <- None
  done;
  if taken && len < b.b_len then
    m.block_marks.(m.block_ev_n - 1) <- mark_side_exit

(* The round's last segment: as above, except that its final entry is
   [last_event] itself, which the executor leaves exact (a trap, a halt,
   a WFI, or the event of whatever instruction the round ended on). *)
let record_last_segment m (b : bentry) len ~mark =
  record_segment m b len ~taken:m.last_event.ev_taken_branch ~mark;
  copy_event m.last_event m.block_events.(m.block_ev_n - 1)

(* A recorded round ends before any [Csr] that is not its first
   instruction.  The perf harness charges a round's cycles only after
   the round, so a later [Csr] would read an [mcycle] that still lacks
   the earlier instructions' cycles; the next round starts on it with
   [mcycle] exact.  A [Csr] ends its block, so it sits either at the
   end of a longer block or alone in a block of its own. *)
let csr_at (b : bentry) k =
  match Array.unsafe_get b.b_insns k with Insn.Csr _ -> true | _ -> false

(* Adaptive hotness: every 1024 edge resolutions, compare the unlink
   rate against a fixed budget.  Lots of unlinks means translations are
   being invalidated faster than superblocks pay off (code churn,
   patch-heavy phases): back the threshold off so formation work is not
   wasted.  A quiet epoch halves it, down to a floor that still filters
   one-shot paths.  Purely a performance heuristic — the threshold only
   decides {e when} a superblock replaces an equivalent chain of short
   blocks, never what executes. *)
let adapt_hot m =
  if m.hot_adaptive then begin
    m.ht_resolves <- m.ht_resolves + 1;
    if m.ht_resolves >= 1024 then begin
      m.ht_resolves <- 0;
      let unl = m.counters.chain_unlinks - m.ht_unlinks_mark in
      m.ht_unlinks_mark <- m.counters.chain_unlinks;
      if unl >= 128 then m.hot_threshold <- min 512 (m.hot_threshold * 2)
      else m.hot_threshold <- max 8 (m.hot_threshold / 2)
    end
  end

(* [b] just ran to completion and fell through (edge 0), or its direct
   [Jal]/[Branch] terminator redirected the PCC (edge 1): resolve the
   successor block of the edge that was taken, preferring the chained
   link.

   A valid link is followed {e without} probing the cache or ticket-
   checking the successor — the exactness argument, in two halves:

   - The link was installed at a traversal where the successor passed
     the full probe + [block_ticket_valid] under the then-live PCC.
     Both edge targets are static (Jal offset / branch target /
     fall-through), and [exec] derives the post-edge PCC from the
     pre-edge PCC by changing only the address, so every later
     traversal of the same edge from a ticket-valid [b] produces a PCC
     whose compared fields are {e value-equal} to link time
     ([block_ticket_valid] accepts exactly value equality, so skipping
     the re-compare loses nothing).  The mode is re-checked because it
     is not derived from the PCC.
   - Validity over time is the chain epoch: anything that can stale
     any translation (store-kill, flush, superblock install) bumps it,
     and a link is only followed while its recorded epoch matches.

   On a stale or absent link the successor is re-resolved with the
   full probe + ticket check at the live PC and the link is
   (re)installed under the current epoch; a cache miss (or a
   non-chainable terminator) returns the cache's dummy entry — a
   physical-equality sentinel instead of an [option], so the per-edge
   hot path never allocates — and the caller falls back to the normal
   dispatch path. *)
let chain_edge m (b : bentry) edge =
  begin
    adapt_hot m;
    let bc = m.bcache in
    if edge = 1 then b.b_cnt_taken <- b.b_cnt_taken + 1
    else begin
      b.b_cnt_fall <- b.b_cnt_fall + 1;
      if
        b.b_cnt_fall >= m.hot_threshold
        && b.b_cnt_fall >= b.b_cnt_taken
        && b.b_len < max_superblock_len
      then begin
        (* Hot and at least as fall-biased as taken: extending across a
           branch whose taken direction dominates would turn the hot
           edge into a side exit on most traversals, and the side-exit
           continue makes even the break-even case no worse than
           chaining.  The counter gate keeps re-checking each fall
           traversal past the threshold until it holds, then the
           attempt latches: on success the entry is replaced and [b]
           goes unreachable; on failure (the path would not grow)
           retrying would re-translate on every traversal. *)
        form_superblock m b;
        b.b_cnt_fall <- min_int
      end
    end;
    let epoch = bc.Decode_cache.chain_epoch in
    let link = if edge = 1 then b.b_taken else b.b_fall in
    let lep = if edge = 1 then b.b_taken_epoch else b.b_fall_epoch in
    match link with
    | Some succ when lep = epoch && succ.b_mode = m.mode ->
        m.counters.chain_hits <- m.counters.chain_hits + 1;
        succ
    | _ ->
        if lep >= 0 && lep <> epoch then
          m.counters.chain_unlinks <- m.counters.chain_unlinks + 1;
        (* a miss returns the dummy: the caller's fill path counts it *)
        let succ = probe_block m (Capability.address m.pcc) in
        if succ != bc.Decode_cache.rc.Decode_cache.dummy then
          if edge = 1 then begin
            b.b_taken <- Some succ;
            b.b_taken_epoch <- epoch
          end
          else begin
            b.b_fall <- Some succ;
            b.b_fall_epoch <- epoch
          end;
        succ
  end

(* [b]'s terminator was a [Jalr] that completed (edge 2): resolve the
   successor at the live post-jump PC through the 1-entry indirect-
   target slot.  Unlike the direct edges, the prediction must be
   {e verified} on every traversal — the target address comes from a
   register and the post-jump PCC from that register's metadata, so
   nothing links one traversal's validation to the next: the slot only
   saves the cache probe, [block_ticket_valid] always runs.  The epoch
   check mirrors the direct links (a stale slot counts as an unlink); a
   wrong prediction under a live epoch is just re-resolved and
   overwritten, the way a BTB entry is. *)
let chain_edge_ind m (b : bentry) =
  adapt_hot m;
  let bc = m.bcache in
  let epoch = bc.Decode_cache.chain_epoch in
  let pc = Capability.address m.pcc in
  match b.b_ind with
  | Some succ
    when b.b_ind_epoch = epoch && succ.b_start = pc
         && block_ticket_valid m succ ->
      m.counters.chain_hits <- m.counters.chain_hits + 1;
      succ
  | _ ->
      if b.b_ind_epoch >= 0 && b.b_ind_epoch <> epoch then
        m.counters.chain_unlinks <- m.counters.chain_unlinks + 1;
      let succ = probe_block m pc in
      if succ != bc.Decode_cache.rc.Decode_cache.dummy then begin
        b.b_ind <- Some succ;
        b.b_ind_epoch <- epoch
      end;
      succ

(* Compile [b]'s optimized execution plan: the [Ir] pass results plus
   compile-time folds of the static control-flow capabilities.  A
   direct branch (or the final [Jal]) whose target is in bounds of the
   block's PCC at that instruction can have its whole taken path —
   bounds check, target PCC, and for [Jal] the sealed link sentry —
   computed here once: every runtime traversal starts from a PCC
   value-equal to the ticket (that is what admits the block), so the
   folded records are value-equal to what the per-step path builds,
   and an out-of-bounds target is simply left unfolded (the generic
   path re-derives its trap exactly).  The fold base is rebuilt at the
   {e instruction's} address — [Capability.with_address] decodes
   relative to the current address, so [cur] must match the runtime
   value exactly. *)
let compile_jit m (b : bentry) =
  let cheri = b.b_mode = Cheriot in
  let chks, guards, (st : Ir.stats) = Ir.optimize ~cheri b.b_insns in
  (* Translation validation: an installed validator must accept the
     plan; otherwise install the unoptimized (always sound) plan.  The
     deferred-bookkeeping accounting survives rejection — deferral is a
     structural property of the executor, not of the check plan. *)
  let chks, guards, st =
    match m.jit_validator with
    | Some validate when not (validate b chks guards) ->
        m.counters.jit_plans_rejected <- m.counters.jit_plans_rejected + 1;
        ( Array.make b.b_len Ir.Chk_full,
          [||],
          { st with Ir.eliminated = 0; hoisted = 0; hoisted_nonentry = 0 } )
    | _ -> (chks, guards, st)
  in
  let brs = Array.make b.b_len Capability.null in
  let jal_t = ref Capability.null in
  let link_on = ref Capability.null in
  let link_off = ref Capability.null in
  let folds = ref 0 in
  if cheri then
    for i = 0 to b.b_len - 1 do
      match Array.unsafe_get b.b_insns i with
      | Insn.Branch (_, _, _, off) ->
          let pc = b.b_start + (4 * i) in
          let target = (pc + off) land mask32 in
          let at = { b.b_pcc with Capability.addr = pc } in
          if Capability.in_bounds at ~size:4 target then begin
            brs.(i) <- { at with Capability.addr = target };
            incr folds
          end
      | Insn.Jal (_, off) when i = b.b_len - 1 ->
          let pc = b.b_start + (4 * i) in
          let target = (pc + off) land mask32 in
          let at = { b.b_pcc with Capability.addr = pc } in
          if Capability.in_bounds at ~size:4 target then begin
            jal_t := { at with Capability.addr = target };
            let link = Capability.with_address at (pc + 4) in
            (link_on :=
               match
                 Capability.seal_sentry link
                   (Otype.return_sentry ~interrupts_enabled:true)
               with
               | Ok s -> s
               | Error _ -> Capability.clear_tag link);
            (link_off :=
               match
                 Capability.seal_sentry link
                   (Otype.return_sentry ~interrupts_enabled:false)
               with
               | Ok s -> s
               | Error _ -> Capability.clear_tag link);
            incr folds
          end
      | _ -> ()
    done;
  let c = m.counters in
  c.jit_blocks_compiled <- c.jit_blocks_compiled + 1;
  c.checks_eliminated <- c.checks_eliminated + st.Ir.eliminated;
  c.checks_hoisted <- c.checks_hoisted + st.Ir.hoisted;
  c.checks_hoisted_nonentry <-
    c.checks_hoisted_nonentry + st.Ir.hoisted_nonentry;
  c.dead_bookkeeping_removed <-
    c.dead_bookkeeping_removed + st.Ir.dead_bookkeeping + !folds;
  let t =
    {
      j_chk = chks;
      j_guards = guards;
      j_br = brs;
      j_jal_target = !jal_t;
      j_link_on = !link_on;
      j_link_off = !link_off;
    }
  in
  b.b_jit <- Some t;
  t

(* The plan the block and chain tiers run every block under: every
   access fully checked, no entry guards, no control-flow folds — the
   ground truth §14's verifier proves each compiled plan against.  One
   shared record sized for the longest superblock serves every block,
   so the executor's per-instruction loop is the same on every tier. *)
let full_plan =
  {
    j_chk = Array.make max_superblock_len Ir.Chk_full;
    j_guards = [||];
    j_br = Array.make max_superblock_len Capability.null;
    j_jal_target = Capability.null;
    j_link_on = Capability.null;
    j_link_off = Capability.null;
  }

(* The one block executor: every block-tier round, recorded or not,
   runs here.  It runs validated blocks with the same semantics as the
   generic [exec] arms, and with two settings derived from the dispatch
   tier:

   - [links]: at the end of a block, resolve the successor through
     [chain_edge]/[chain_edge_ind] and keep going inside the same round
     while fuel remains; a taken interior branch of a superblock probes
     for a translated block at its target and continues there on a hit.
     Off ([Dispatch_block]), the round ends at the chain point and at
     every side exit.  Edge instructions cannot change the interrupt-
     delivery predicate, so not re-checking it between linked blocks is
     exactly per-step equivalent (a completed [Jalr] may have changed
     the posture through a sentry, so its edge re-checks the predicate).
   - [plan]: run each block under its compiled plan ([compile_jit] on
     first entry).  Off, every block runs under [full_plan].  A compiled
     plan specializes three things, none architecturally observable:
     the memory arms run only the {e residual} checks of the
     per-instruction [Ir.chk] — the elided checks are exactly those a
     dominating check or a block-entry guard already proved would pass;
     the block-entry guards run once per block execution, and if any
     fails this execution runs with full per-access checks (the opt
     side exit: deoptimization in place — a faulting access traps at
     its own instruction with its own cause); and in-bounds direct
     branches and the final [Jal] use their folded target (and link-
     sentry) capabilities, value-equal to what the per-step path
     computes.

   PCC / minstret / retirement-event bookkeeping is deferred across
   runs of instructions that read neither the PC, [minstret] nor the
   CSRs: the ALU ops (total — they cannot trap), the integer and
   capability memory accesses and the register-pure capability
   arithmetic.  [pending] counts the deferred instructions and [sync]
   replays them in one step: minstret jumps by the run length and the
   PCC installs the prebuilt fall-through of the {e last} deferred
   instruction — bitwise the value the per-step path would have left.
   A deferred instruction that traps leaves [pending] covering only the
   instructions before it, so the trap handler's [sync] points the PCC
   exactly at the raiser for [enter_trap].  Everything else [sync]s and
   takes the generic [exec] arm, except the edge instructions ([Jal],
   [Branch]), which run inline and write their event only if the round
   ends on them — on a linked transfer the successor's instructions
   rewrite (or re-defer) it anyway.  When the round ends on a deferred
   run, the final [last_event] is materialised from the last
   instruction (its event is a function of the decoded instruction
   alone for every deferred class), so the observable state matches
   the per-step path exactly.

   [record] (the perf harness and the tracer, through [step_round])
   fills the retirement ring as the round goes: each block's executed
   prefix is one segment, appended when the round leaves the block (a
   linked transfer, a side-exit continue, or the end of the round; see
   [record_segment]), and a recorded round stops before a non-initial
   [Csr] (see [csr_at]).  Unrecorded rounds pay one untaken branch per
   segment end.

   Store-abort: a store that kills the running block's own translation
   abandons the rest of it — the remaining decoded entries are stale —
   and the next round re-translates from the live bytes.

   Keeping one set of loop state alive across every block of the round
   is the point of the merged design: the per-block costs (refs, the
   [sync] closure, the result tuple) are paid once per round, which in
   a hot loop is once per thousands of instructions. *)
let exec_fast m (b0 : bentry) ~fuel ~links ~plan ~record =
  let bc = m.bcache in
  let rc = bc.Decode_cache.rc in
  let tags = rc.Decode_cache.tags in
  let dummy = rc.Decode_cache.dummy in
  let ctr = m.counters in
  let b = ref b0 in
  let base = ref 0 in  (* retired in completed earlier blocks *)
  let i = ref 0 in
  let pending = ref 0 in
  let result = ref Step_ok in
  let stop = ref false in
  (* trace mark of the current block's first ring entry *)
  let mark = ref 0 in
  (* [sync] reads the current block's PCC-advance array through a ref
     so the one closure serves every block of the round *)
  let nexts_r = ref b0.b_nexts in
  let sync () =
    if !pending > 0 then begin
      m.minstret <- m.minstret + !pending;
      (match Array.unsafe_get !nexts_r (!i - 1) with
      | Some c -> m.pcc <- c
      | None -> ());
      pending := 0
    end
  in
  (* direction of the last executed [Branch] (the inline arm bypasses
     [last_event], so the chain point cannot read [ev_taken_branch]) *)
  let br_taken = ref false in
  (* continuation block selected by a side-exit probe ([dummy] = none) *)
  let cont = ref dummy in
  (* the event of instruction [k] of [blk] when the round ends after it
     with the deferred window drained (an inline edge instruction, or a
     deferred one) *)
  let end_event blk k taken =
    let ev = m.last_event in
    ev.ev_insn <- Array.unsafe_get blk.b_opts k;
    ev.ev_taken_branch <- taken;
    ev.ev_trap <- None
  in
  (try
     while not !stop do
       (* per-block: bind the block's arrays as immutables so the inner
          per-instruction loop is register-local *)
       let blk = !b in
       let insns = blk.b_insns in
       let opts = blk.b_opts in
       let nexts = blk.b_nexts in
       let b_start = blk.b_start in
       let b_len = blk.b_len in
       let slot = (b_start lsr 2) land rc.Decode_cache.mask in
       let rem = fuel - !base in
       let n = if rem < b_len then rem else b_len in
       let n =
         if record && n = b_len && n > 1 && csr_at blk (n - 1) then n - 1
         else n
       in
       let t =
         if not plan then full_plan
         else match blk.b_jit with Some t -> t | None -> compile_jit m blk
       in
       (* Guards run against the entry register values, before any op:
          all pass → the reduced plan is licensed for this execution;
          any failure → deoptimize this execution to full checks. *)
       let full =
         Array.length t.j_guards > 0 && not (jit_guards_ok m t.j_guards)
       in
       if full then begin
         ctr.opt_side_exits <- ctr.opt_side_exits + 1;
         mark := mark_opt_side_exit
       end;
       let chks = t.j_chk in
       let jbr = t.j_br in
       nexts_r := nexts;
       i := 0;
       while (not !stop) && !cont == dummy && !i < n do
         (match Array.unsafe_get insns !i with
         | Insn.Lui (rd, imm20) ->
             set_reg_int m rd (imm20 lsl 12);
             incr pending
         | Insn.Op_imm (op, rd, rs1, imm) ->
             set_reg_int m rd (alu_exec op (reg_int m rs1) (imm land mask32));
             incr pending
         | Insn.Op (op, rd, rs1, rs2) ->
             set_reg_int m rd (alu_exec op (reg_int m rs1) (reg_int m rs2));
             incr pending
         | Insn.Mul_div (op, rd, rs1, rs2) ->
             set_reg_int m rd (muldiv_exec op (reg_int m rs1) (reg_int m rs2));
             incr pending
         | Insn.Load { signed; width; rd; rs1; off } ->
             exec_load m
               (if full then Ir.Chk_full else Array.unsafe_get chks !i)
               ~rs1 ~off ~width ~signed ~rd;
             incr pending
         | Insn.Store { width; rs2; rs1; off } ->
             exec_store m
               (if full then Ir.Chk_full else Array.unsafe_get chks !i)
               ~rs1 ~off ~width ~rs2;
             incr pending;
             if Array.unsafe_get tags slot <> b_start then begin
               ctr.block_aborts <- ctr.block_aborts + 1;
               stop := true
             end
         | Insn.Clc (rd, rs1, off) ->
             exec_clc m
               (if full then Ir.Chk_full else Array.unsafe_get chks !i)
               ~rd ~rs1 ~off;
             incr pending
         | Insn.Csc (rs2, rs1, off) ->
             exec_csc m
               (if full then Ir.Chk_full else Array.unsafe_get chks !i)
               ~rs2 ~rs1 ~off;
             incr pending;
             if Array.unsafe_get tags slot <> b_start then begin
               ctr.block_aborts <- ctr.block_aborts + 1;
               stop := true
             end
         | Insn.Jal (rd, off) ->
             if t.j_jal_target != Capability.null then begin
               (* folded: the bounds check passed at compile time
                  against the same (cur, target) pair, and the link
                  sentry for either posture is prebuilt *)
               set_reg m rd (if m.mie then t.j_link_on else t.j_link_off);
               m.minstret <- m.minstret + !pending + 1;
               pending := 0;
               m.pcc <- t.j_jal_target
             end
             else begin
               sync ();
               do_jal m rd off;
               m.minstret <- m.minstret + 1
             end
         | Insn.Branch (cond, rs1, rs2, off) ->
             if branch_taken cond (reg_int m rs1) (reg_int m rs2) then begin
               let tgt = Array.unsafe_get jbr !i in
               if tgt != Capability.null then begin
                 (* folded: no bounds decode, no PCC allocation *)
                 m.minstret <- m.minstret + !pending + 1;
                 pending := 0;
                 m.pcc <- tgt
               end
               else begin
                 sync ();
                 let pc = Capability.address m.pcc in
                 let target = (pc + off) land mask32 in
                 if
                   m.mode = Cheriot
                   && not (Capability.in_bounds m.pcc ~size:4 target)
                 then raise (Trap (Cheri_fault (Cheri_bounds, 16)));
                 m.pcc <- { m.pcc with Capability.addr = target };
                 m.minstret <- m.minstret + 1
               end;
               br_taken := true;
               if !i < b_len - 1 then begin
                 (* taken interior branch of a superblock: side exit.
                    With links on, probe for a translated block at the
                    live target — a hit continues the round there (the
                    exit is then an ordinary transfer, not a round
                    boundary); on a miss the round ends and the next one
                    fills.  The miss is not counted here — the next
                    round's probe counts it. *)
                 ctr.side_exits <- ctr.side_exits + 1;
                 (if links && !base + !i + 1 < fuel then begin
                    let nb = probe_block m (Capability.address m.pcc) in
                    if nb != dummy && not (record && csr_at nb 0) then
                      cont := nb
                  end);
                 if !cont == dummy then begin
                   end_event blk !i true;
                   stop := true
                 end
               end
             end
             else begin
               (* not taken: fully deferred, like any plain insn (the
                  prebuilt [b_nexts] advance is the fall-through) *)
               br_taken := false;
               incr pending
             end
         | ( Insn.Cincaddr _ | Insn.Cincaddrimm _ | Insn.Csetaddr _
           | Insn.Csetbounds _ | Insn.Csetboundsexact _ | Insn.Csetboundsimm _
           | Insn.Crrl _ | Insn.Cram _ | Insn.Candperm _ | Insn.Ccleartag _
           | Insn.Cmove _ | Insn.Cseal _ | Insn.Cunseal _ | Insn.Cget _
           | Insn.Csub _ | Insn.Ctestsubset _ | Insn.Csetequalexact _ ) as insn
           ->
             (* register-pure capability arithmetic: may trap but never
                reads the PC or CSRs — [Cspecialrw] is the one exception
                and takes the generic arm below *)
             exec_cap m insn;
             incr pending
         | insn -> (
             (* the PC-reading and system instructions; none stores, and
                all but [Auipcc] end their block *)
             sync ();
             match
               exec m insn
                 (Array.unsafe_get opts !i)
                 (Array.unsafe_get nexts !i)
             with
             | Step_ok -> ()
             | (Step_trap _ | Step_waiting | Step_halted | Step_double_fault)
               as r ->
                 result := r;
                 stop := true));
         incr i
       done;
       if !cont != dummy then begin
         (* side-exit continue: transfer to the probed block *)
         if record then record_segment m blk !i ~taken:true ~mark:!mark;
         mark := 0;
         base := !base + !i;
         b := !cont;
         cont := dummy
       end
       else if not !stop then
         if !i = b_len then begin
           let edge =
             match Array.unsafe_get insns (b_len - 1) with
             | Insn.Jal _ -> 1
             | Insn.Branch _ -> if !br_taken then 1 else 0
             | Insn.Jalr _ -> 2
             | ti -> if block_terminator ti then -1 else 0
           in
           if edge < 0 then
             (* posture-changing terminator (Mret/Csr/…): its [exec]
                arm left the event exact *)
             stop := true
           else begin
             (* the fall edge may still be deferred: materialize PCC
                (and retire counts) before the probe below or a stop *)
             sync ();
             if edge = 2 && m.mie && interrupt_pending m then
               (* a sentry [Jalr] re-enabled interrupts with one
                  pending: stop exactly where the per-step loop would
                  deliver; the [exec] arm's event stands *)
               stop := true
             else begin
               let succ =
                 if not (links && !base + !i < fuel) then dummy
                 else if edge = 2 then chain_edge_ind m blk
                 else chain_edge m blk edge
               in
               if succ == dummy || (record && csr_at succ 0) then begin
                 if edge <> 2 then end_event blk (b_len - 1) (edge = 1);
                 stop := true
               end
               else begin
                 if record then
                   record_segment m blk !i ~taken:(edge > 0) ~mark:!mark;
                 mark := if plan then mark_jit else mark_chained;
                 base := !base + !i;
                 b := succ
               end
             end
           end
         end
         else stop := true
     done;
     if !pending > 0 then begin
       sync ();
       end_event !b (!i - 1) false
     end;
     if record then record_last_segment m !b !i ~mark:!mark
   with Trap cause ->
     sync ();
     incr i;
     result := take_trap m cause;
     if record then record_last_segment m !b !i ~mark:!mark);
  (!result, !base + !i)

(* One round of a block tier: interrupt/WFI handling exactly as
   [step_gen], then up to [fuel] instructions of [exec_fast] starting
   from the block at the PC.  The dispatch tier sets the two settings
   of the round: [links] (chain and jit) keeps the round going across
   linked edges while fuel remains, [plan] (jit) runs each block under
   its compiled plan; [record] fills the retirement ring. *)
let block_round m ~fuel ~record dispatch =
  let links = dispatch <> Dispatch_block in
  let plan = dispatch = Dispatch_jit in
  if m.waiting && interrupt_pending m then m.waiting <- false;
  if m.waiting then (Step_waiting, 1)
  else if m.mie && interrupt_pending m then begin
    let r = take_trap m (interrupt_cause m) in
    if record then record_event m (Capability.address m.mepcc);
    (r, 1)
  end
  else begin
    let pc = Capability.address m.pcc in
    let rc = m.bcache.Decode_cache.rc in
    let b = probe_block m pc in
    if b != rc.Decode_cache.dummy then exec_fast m b ~fuel ~links ~plan ~record
    else begin
      rc.Decode_cache.misses <- rc.Decode_cache.misses + 1;
      match fill_block m pc with
      | Some b -> exec_fast m b ~fuel ~links ~plan ~record
      | None ->
          (* untranslatable first word (MMIO-backed code, illegal word,
             failing fetch checks): one exact per-step step *)
          let r = step_fast m in
          if record then record_event m pc;
          (r, 1)
    end
  end

(* The perf-harness / tracer entry point: one round of [dispatch] with
   every retired instruction recorded in the ring ([block_events] /
   [block_pcs], [block_ev_n] live entries).  A reference or cached round
   is one step; an idle WFI step retires nothing and records nothing. *)
let step_round m dispatch =
  m.block_ev_n <- 0;
  match dispatch with
  | Dispatch_ref | Dispatch_cached ->
      let pc = Capability.address m.pcc in
      let idle = m.waiting && not (interrupt_pending m) in
      let r = step_gen m ~cached:(dispatch = Dispatch_cached) in
      if not idle then record_event m pc;
      r
  | Dispatch_block | Dispatch_chain | Dispatch_jit ->
      fst (block_round m ~fuel:round_cap ~record:true dispatch)

let run ?(fuel = 10_000_000) ?(dispatch = Dispatch_ref) m =
  match dispatch with
  | Dispatch_block | Dispatch_chain | Dispatch_jit ->
      (* Batched loop: fuel accounting is identical to the per-step
         loop below — each retired instruction, delivered interrupt, or
         trap consumes one unit, and a block (or chained round) is cut
         when the remaining fuel runs out inside it. *)
      let rec go n =
        if n >= fuel then (Step_ok, n)
        else
          let r, used = block_round m ~fuel:(fuel - n) ~record:false dispatch in
          let n = n + used in
          match r with
          | Step_ok | Step_trap _ -> go n
          | (Step_waiting | Step_halted | Step_double_fault) as r -> (r, n)
      in
      go 0
  | Dispatch_ref | Dispatch_cached ->
      let step = if dispatch = Dispatch_cached then step_fast else step in
      let rec go n =
        if n >= fuel then (Step_ok, n)
        else
          match step m with
          | Step_ok | Step_trap _ -> go (n + 1)
          | (Step_waiting | Step_halted | Step_double_fault) as r -> (r, n + 1)
      in
      go 0

(* --- decode/block cache management ------------------------------------ *)

let decode_stats m = Decode_cache.stats m.dcache

(* Writers that bypass the bus must drop *both* translation layers. *)
let flush_decode_cache m =
  Decode_cache.flush m.dcache;
  Decode_cache.rflush m.bcache

type block_stats = {
  block_hits : int;
  block_misses : int;
  block_invalidations : int;  (* blocks killed by store snoops *)
  block_flushes : int;
  blocks_filled : int;
  insns_translated : int;  (* sum of fill-time block lengths *)
  block_aborts : int;  (* self-modifying mid-block abandonments *)
  chain_hits : int;  (* transfers that followed a chained link *)
  chain_unlinks : int;  (* stale links observed at traversal *)
  superblocks_formed : int;
  side_exits : int;  (* taken interior branches of superblocks *)
  (* Dispatch_jit optimizer counters. *)
  jit_blocks_compiled : int;
  checks_eliminated : int;  (* pass 1: accesses with reduced checks *)
  checks_hoisted : int;  (* pass 2: accesses covered by entry guards *)
  checks_hoisted_nonentry : int;
      (* the subset of [checks_hoisted] reached through derived
         (non-entry) register versions *)
  dead_bookkeeping_removed : int;  (* pass 3 + control-flow folds *)
  opt_side_exits : int;  (* block executions deoptimized by a guard *)
  jit_plans_rejected : int;  (* plans the installed validator refused *)
}

let block_stats m =
  let s = Decode_cache.stats m.bcache.Decode_cache.rc in
  let c = m.counters in
  {
    block_hits = s.Decode_cache.hits;
    block_misses = s.Decode_cache.misses;
    block_invalidations = s.Decode_cache.invalidations;
    block_flushes = s.Decode_cache.flushes;
    blocks_filled = c.blocks_filled;
    insns_translated = c.insns_translated;
    block_aborts = c.block_aborts;
    chain_hits = c.chain_hits;
    chain_unlinks = c.chain_unlinks;
    superblocks_formed = c.superblocks_formed;
    side_exits = c.side_exits;
    jit_blocks_compiled = c.jit_blocks_compiled;
    checks_eliminated = c.checks_eliminated;
    checks_hoisted = c.checks_hoisted;
    checks_hoisted_nonentry = c.checks_hoisted_nonentry;
    dead_bookkeeping_removed = c.dead_bookkeeping_removed;
    opt_side_exits = c.opt_side_exits;
    jit_plans_rejected = c.jit_plans_rejected;
  }

let avg_block_len (s : block_stats) =
  if s.blocks_filled = 0 then 0.0
  else float_of_int s.insns_translated /. float_of_int s.blocks_filled

(* --- observational state hash ----------------------------------------- *)

(* A digest of every architecturally visible bit: registers (with tags),
   PCC, SCRs, CSR state, and the full contents + tag bits of every SRAM
   on the bus.  Two runs that agree on this hash and on [minstret] are
   observationally identical — the bench uses it to hold the fast
   dispatch path to the reference interpreter. *)
let state_hash m =
  let buf = Buffer.create 512 in
  let add_cap c =
    Buffer.add_string buf
      (Printf.sprintf "%c%Lx;"
         (if c.Capability.tag then 't' else 'u')
         (Capability.to_word c))
  in
  Array.iter add_cap m.regs;
  add_cap m.pcc;
  add_cap m.ddc;
  add_cap m.mtcc;
  add_cap m.mepcc;
  add_cap m.mtdc;
  add_cap m.mscratchc;
  Buffer.add_string buf
    (Printf.sprintf "%B%B%d/%d/%d/%d/%d/%d/%d/%B%B"
       m.mie m.mpie m.mcause m.mtval m.minstret m.mshwm m.mshwmb m.mtimecmp
       m.mcycle m.ext_interrupt m.waiting);
  List.iter
    (fun s -> Buffer.add_string buf (Cheriot_mem.Sram.digest s))
    (Bus.srams m.bus);
  Digest.to_hex (Digest.string (Buffer.contents buf))
