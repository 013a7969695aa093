(* Basic-block translation cache regressions.

   The block dispatch path translates straight-line runs of decoded
   instructions once and replays them with interrupt checks only at
   block boundaries and bookkeeping deferred across simple
   instructions.  These tests pin the parts the differential fuzzers
   are unlikely to hit deterministically: block formation and stats
   accounting, self-modifying-code abandonment mid-block, fuel-exact
   cutting, and the invalidation channel (SRAM stores invalidate,
   device writes and bus-bypass writes do not). *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Boot = Cheriot_proptest.Boot

let code_base = Boot.code_base
let code_size = 0x400

(* the shared single-SRAM boot from the property harness *)
let boot ?device words = Boot.code_only ~code_size ?device words

let result_name = function
  | Machine.Step_ok -> "ok"
  | Machine.Step_trap _ -> "trap"
  | Machine.Step_waiting -> "waiting"
  | Machine.Step_halted -> "halted"
  | Machine.Step_double_fault -> "double fault"

let run_block m =
  match Machine.run ~dispatch:Machine.Dispatch_block m with
  | Machine.Step_halted, n -> n
  | r, _ -> Alcotest.failf "did not halt: %s" (result_name r)

let reset m =
  m.Machine.pcc <- Capability.with_address m.Machine.pcc code_base;
  Machine.set_reg m 1 Capability.null;
  Machine.set_reg m 2 Capability.null

(* A 3-word counting loop (4 iterations) plus the halt: the loop body
   re-executes from the cache, so the block path must show refills only
   for the distinct blocks and hits for every re-entry. *)
let loop_program = Insn.[ Op_imm (Add, 1, 1, 1); Branch (Ne, 1, 6, -4); Ebreak ]

let test_formation_and_stats () =
  let mk () =
    let m, _ = boot (List.map Encode.encode loop_program) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  Alcotest.(check bool) "reference halts" true (r_ref = Machine.Step_halted);
  let m = mk () in
  let n_blk = run_block m in
  Alcotest.(check int) "same retired count" n_ref n_blk;
  Alcotest.(check int) "same minstret" ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  (* blocks: [add; bne] at the loop head and [ebreak] after it *)
  Alcotest.(check int) "two distinct blocks" 2 s.Machine.blocks_filled;
  Alcotest.(check int) "cold misses only" 2 s.Machine.block_misses;
  Alcotest.(check int) "re-entries hit" 3 s.Machine.block_hits;
  Alcotest.(check bool) "multi-instruction blocks" true
    (Machine.avg_block_len s > 1.0);
  Alcotest.(check int) "nothing invalidated" 0 s.Machine.block_invalidations;
  (* the reference path must leave the block cache untouched *)
  let s_ref = Machine.block_stats ref_m in
  Alcotest.(check int) "reference path: no block activity" 0
    (s_ref.Machine.block_hits + s_ref.Machine.block_misses
   + s_ref.Machine.blocks_filled)

(* Straight-line code longer than [max_block_len] splits at the length
   cap; a terminator in the middle splits there. *)
let test_block_boundaries () =
  let n_alu = Machine.max_block_len + 4 in
  let program =
    List.init n_alu (fun _ -> Insn.Op_imm (Add, 1, 1, 1)) @ [ Insn.Ebreak ]
  in
  let m, _ = boot (List.map Encode.encode program) in
  let _ = run_block m in
  let s = Machine.block_stats m in
  Alcotest.(check int) "length cap splits the run" 2 s.Machine.blocks_filled;
  Alcotest.(check int) "every word translated once" (n_alu + 1)
    s.Machine.insns_translated

(* Self-modifying code where the store patches a {e later} word of the
   block it is itself part of.  The snoop invalidates the block
   mid-execution; the executor must notice (its remaining decoded
   entries are stale), abandon the rest of the block and re-translate,
   so the patched semantics take effect exactly as on the reference
   path.  Word 2 is patched from `add c2,c2,1` to `add c2,c2,16`
   {e before} it executes: final c2 must be 16, not 1. *)
let test_self_modifying_abandon () =
  let program =
    Insn.
      [
        Store { width = W; rs2 = 5; rs1 = 4; off = 8 };
        (* word 0: patch word 2 *)
        Op_imm (Add, 1, 1, 1);
        (* word 1: filler inside the same block *)
        Op_imm (Add, 2, 2, 1);
        (* word 2: the patch target *)
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4
      (Capability.set_bounds
         (Capability.with_address Capability.root_mem_rw code_base)
         ~length:code_size ~exact:false);
    Machine.set_reg_int m 5 (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
    m
  in
  let ref_m = mk () in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  Alcotest.(check int) "reference sees the patch" 16 (Machine.reg_int ref_m 2);
  let m = mk () in
  let _ = run_block m in
  Alcotest.(check int) "block path sees the patch" 16 (Machine.reg_int m 2);
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the block was abandoned mid-execution" true
    (s.Machine.block_aborts >= 1);
  Alcotest.(check bool) "the store invalidated the block" true
    (s.Machine.block_invalidations >= 1)

(* Fuel-exact cutting: driving the block path in fuel chunks of every
   small size must retire exactly the reference count and land in the
   identical final state — blocks are cut mid-execution when fuel runs
   out and resumed at the fall-through PC. *)
let test_fuel_cutting () =
  let mk () =
    let m, _ = boot (List.map Encode.encode loop_program) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let ref_hash = Machine.state_hash ref_m in
  for fuel = 1 to 7 do
    let m = mk () in
    let total = ref 0 in
    let halted = ref false in
    while not !halted do
      let r, n = Machine.run ~fuel ~dispatch:Machine.Dispatch_block m in
      total := !total + n;
      match r with
      | Machine.Step_halted -> halted := true
      | Machine.Step_ok | Machine.Step_trap _ -> ()
      | r -> Alcotest.failf "fuel %d: unexpected %s" fuel (result_name r)
    done;
    Alcotest.(check int)
      (Printf.sprintf "fuel %d: retired count" fuel)
      n_ref !total;
    Alcotest.(check string)
      (Printf.sprintf "fuel %d: state hash" fuel)
      ref_hash (Machine.state_hash m)
  done

(* Device writes must not invalidate cached blocks (satellite of the
   MMIO no-snoop rule): after a run has populated the cache, a write to
   a device register leaves every block valid — the re-run hits without
   a single refill — while an SRAM code store really does invalidate. *)
let test_device_write_keeps_blocks () =
  let m, _ = boot ~device:true (List.map Encode.encode loop_program) in
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  let s1 = Machine.block_stats m in
  Bus.write m.Machine.bus ~width:4 0x9004 99;
  let s2 = Machine.block_stats m in
  Alcotest.(check int) "device write invalidates nothing"
    s1.Machine.block_invalidations s2.Machine.block_invalidations;
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_block m in
  let s3 = Machine.block_stats m in
  Alcotest.(check int) "re-run refills nothing" s1.Machine.blocks_filled
    s3.Machine.blocks_filled;
  Alcotest.(check bool) "re-run hits the cached blocks" true
    (s3.Machine.block_hits > s1.Machine.block_hits);
  (* control: an SRAM store over the code does invalidate *)
  Bus.write m.Machine.bus ~width:4 code_base 0;
  let s4 = Machine.block_stats m in
  Alcotest.(check bool) "sram code store invalidates" true
    (s4.Machine.block_invalidations > s3.Machine.block_invalidations)

(* Writes that bypass the bus (direct [Sram.write32]) are invisible to
   the snoop: the cached block is legitimately stale until
   [flush_decode_cache], which must drop translated blocks too. *)
let test_bypass_needs_flush () =
  let program = Insn.[ Op_imm (Add, 2, 2, 1); Ebreak ] in
  let m, code = boot (List.map Encode.encode program) in
  let _ = run_block m in
  Alcotest.(check int) "first run, old semantics" 1 (Machine.reg_int m 2);
  Sram.write32 code code_base (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
  reset m;
  let _ = run_block m in
  Alcotest.(check int) "bypass write unseen: stale block still served" 1
    (Machine.reg_int m 2);
  Machine.flush_decode_cache m;
  reset m;
  let _ = run_block m in
  Alcotest.(check int) "after flush, new semantics" 16 (Machine.reg_int m 2);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "flush accounted" true (s.Machine.block_flushes >= 1)

(* --- block chaining and superblocks ------------------------------------ *)

let run_chain m =
  match Machine.run ~dispatch:Machine.Dispatch_chain m with
  | Machine.Step_halted, n -> n
  | r, _ -> Alcotest.failf "did not halt: %s" (result_name r)

(* A two-block loop joined by a direct jal — the chain path must follow
   both the jal edge and the backedge without re-probing, and a store
   that kills a chained successor must unlink the edge {e before} the
   next transfer: after the patch, the re-run must execute the patched
   semantics, never the stale linked block. *)
let chained_loop =
  Insn.
    [
      Op_imm (Add, 1, 1, 1);
      (* head: block A *)
      Jal (0, 4);
      (* A -> B, direct *)
      Op_imm (Add, 2, 2, 1);
      (* next: block B (the patch target) *)
      Branch (Ne, 1, 6, -12);
      (* B -> A taken, B -> C fall *)
      Ebreak;
    ]

let test_chain_links_and_unlink () =
  let mk () =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    m
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  let n = run_chain m in
  Alcotest.(check int) "same retired count" n_ref n;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "transfers chained" true (s.Machine.chain_hits > 0);
  Alcotest.(check int) "no stale links yet" 0 s.Machine.chain_unlinks;
  (* the block path must leave the chain counters untouched *)
  let mb = mk () in
  let _ = run_block mb in
  Alcotest.(check int) "block dispatch never chains" 0
    (Machine.block_stats mb).Machine.chain_hits;
  (* patch B's add through the bus: the snoop kills B and bumps the
     chain epoch, so A's link to the dead B must not be followed *)
  Bus.write m.Machine.bus ~width:4 (code_base + 8)
    (Encode.encode (Insn.Op_imm (Add, 2, 2, 16)));
  let s2 = Machine.block_stats m in
  Alcotest.(check bool) "the store invalidated the successor" true
    (s2.Machine.block_invalidations > s.Machine.block_invalidations);
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_chain m in
  Alcotest.(check int) "patched semantics, not the stale link" (16 * 4)
    (Machine.reg_int m 2);
  let s3 = Machine.block_stats m in
  Alcotest.(check bool) "stale edge counted as unlink" true
    (s3.Machine.chain_unlinks > 0)

(* [flush_decode_cache] must bump the chain epoch in one step — every
   link installed before the flush is stale, whatever block it lives
   in. *)
let test_chain_epoch_flush () =
  let m, _ = boot (List.map Encode.encode chained_loop) in
  Machine.set_reg_int m 6 4;
  let _ = run_chain m in
  let e1 = Decode_cache.chain_epoch m.Machine.bcache in
  Machine.flush_decode_cache m;
  let e2 = Decode_cache.chain_epoch m.Machine.bcache in
  Alcotest.(check bool) "flush bumps the chain epoch" true (e2 > e1);
  reset m;
  Machine.set_reg_int m 6 4;
  let _ = run_chain m in
  Alcotest.(check int) "re-run after flush still correct" (4 + 4)
    (Machine.reg_int m 1 + Machine.reg_int m 2)

(* A hot fall-dominated branch grows a superblock across its not-taken
   direction; on the iteration where the branch finally fires it is an
   {e interior} taken branch — a side exit that must land at the exact
   architectural point (PC, minstret, registers) the reference path
   reaches. *)
let test_superblock_side_exit () =
  let program =
    Insn.
      [
        Op_imm (Add, 1, 1, 1);
        (* head: counter *)
        Branch (Eq, 1, 6, 12);
        (* exit branch: not taken until r1 = r6 *)
        Op_imm (Add, 2, 2, 1);
        Jal (0, -12);
        (* backedge *)
        Ebreak;
        (* out: *)
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg_int m 6 20;
    m
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  m.Machine.hot_threshold <- 4;
  m.Machine.hot_adaptive <- false;
  let n = run_chain m in
  Alcotest.(check int) "same retired count" n_ref n;
  Alcotest.(check int) "same minstret" ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) "side exit lands on the exact state"
    (Machine.state_hash ref_m) (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the hot fall edge grew a superblock" true
    (s.Machine.superblocks_formed >= 1);
  Alcotest.(check bool) "the exit took a side exit" true
    (s.Machine.side_exits >= 1)

(* The recording entry point ([Trace.run ~dispatch:Dispatch_chain]) must
   emit the same per-instruction stream as the reference path, with
   chained transfers carrying [Machine.mark_chained] — the mark is how a
   rendered trace distinguishes a linked transfer from a probe. *)
let test_trace_marks_chained_transfers () =
  let collect dispatch =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    let entries = ref [] in
    let _ = Trace.run m ~fuel:10_000 ~dispatch ~f:(fun e -> entries := e :: !entries) in
    (m, List.rev !entries)
  in
  let ref_m, ref_t = collect Machine.Dispatch_ref in
  let chn_m, chn_t = collect Machine.Dispatch_chain in
  Alcotest.(check string) "traced runs agree on state"
    (Machine.state_hash ref_m) (Machine.state_hash chn_m);
  Alcotest.(check int) "same trace length" (List.length ref_t)
    (List.length chn_t);
  List.iter2
    (fun r c ->
      Alcotest.(check int) "same traced pc" r.Trace.tr_pc c.Trace.tr_pc;
      Alcotest.(check int) "reference trace is unmarked" 0 r.Trace.tr_mark)
    ref_t chn_t;
  Alcotest.(check bool) "chained transfers are marked" true
    (List.exists (fun e -> e.Trace.tr_mark = Machine.mark_chained) chn_t)

(* --- the trace-jit tier ------------------------------------------------- *)

let run_jit m =
  match Machine.run ~dispatch:Machine.Dispatch_jit m with
  | Machine.Step_halted, n -> n
  | r, _ -> Alcotest.failf "did not halt: %s" (result_name r)

(* a 16-byte readable/writable window inside the code SRAM, away from
   the program words *)
let data_cap ?(len = 16) () =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw (code_base + 0x200))
    ~length:len ~exact:false

(* Pass-1 regression: a dominating access lets the optimizer eliminate
   the second identical access's checks, but an in-block [Csetbounds]
   redefines the register — the SSA version moves, so the access after
   it must run the full check sequence and trap exactly where the
   reference interpreter traps.  An optimizer that keyed facts to the
   register {e name} instead of the version would serve the stale
   "checked" fact and miss the trap. *)
let test_jit_csetbounds_kills_facts () =
  let program =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 0 };
        (* shrink r4 to 8 bytes: the next access is now out of bounds *)
        Csetboundsimm (4, 4, 8);
        Load { signed = true; width = W; rd = 3; rs1 = 4; off = 64 };
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4 (data_cap ());
    m
  in
  let ref_m = mk () in
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let m = mk () in
  let r_jit, n_jit = Machine.run ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check string)
    "both runs end the same way" (result_name r_ref) (result_name r_jit);
  Alcotest.(check int) "same retired count" n_ref n_jit;
  Alcotest.(check int) "same minstret" ref_m.Machine.minstret
    m.Machine.minstret;
  Alcotest.(check string) "same state hash" (Machine.state_hash ref_m)
    (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the duplicate access was eliminated" true
    (s.Machine.checks_eliminated >= 1)

(* Pass-2 regression: a hot loop whose two static-offset loads are
   covered by one hoisted entry guard, patched {e mid-trace} — after the
   superblock and its plan exist, a bus store rewrites one load of the
   loop body.  The snoop must kill the block and its plan together; the
   remaining iterations run the patched semantics, bit-identical to a
   reference machine patched at the same instruction boundary. *)
let test_jit_hoisted_guard_patch_midtrace () =
  let program =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 8 };
        Op_imm (Add, 3, 3, 1);
        Branch (Eq, 3, 6, 8);
        (* fall-dominated exit: the backedge below joins the superblock *)
        Jal (0, -16);
        Ebreak;
      ]
  in
  let mk () =
    let m, _ = boot (List.map Encode.encode program) in
    Machine.set_reg m 4 (data_cap ());
    Machine.set_reg_int m 6 20;
    m
  in
  let ref_m = mk () in
  let m = mk () in
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false;
  (* run both machines 30 instructions in: the loop is hot, the
     superblock formed and the guarded plan compiled and executing *)
  let r_ref0, n_ref0 = Machine.run ~fuel:30 ~dispatch:Machine.Dispatch_ref ref_m in
  let r_jit0, n_jit0 = Machine.run ~fuel:30 ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check bool)
    "both mid-trace stops agree" true
    ((r_ref0, n_ref0) = (r_jit0, n_jit0));
  let s_mid = Machine.block_stats m in
  Alcotest.(check bool) "the loads were hoisted behind a guard" true
    (s_mid.Machine.checks_hoisted >= 2);
  Alcotest.(check bool) "the loop grew a superblock" true
    (s_mid.Machine.superblocks_formed >= 1);
  (* patch the second load into an immediate add, identically on both *)
  let patch = Encode.encode (Insn.Op_imm (Add, 2, 2, 16)) in
  Bus.write ref_m.Machine.bus ~width:4 (code_base + 4) patch;
  Bus.write m.Machine.bus ~width:4 (code_base + 4) patch;
  let r_ref, n_ref = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let r_jit, n_jit = Machine.run ~dispatch:Machine.Dispatch_jit m in
  Alcotest.(check bool) "both halt" true
    (r_ref = Machine.Step_halted && r_jit = Machine.Step_halted);
  Alcotest.(check int) "same retired count after the patch" n_ref n_jit;
  Alcotest.(check string) "same state hash after the patch"
    (Machine.state_hash ref_m) (Machine.state_hash m);
  let s = Machine.block_stats m in
  Alcotest.(check bool) "the patch invalidated the planned block" true
    (s.Machine.block_invalidations > 0)

(* Counter accounting parity: the recording rounds ([step_round], driving
   the traced/perf paths) and the merged executor ([Machine.run]) must
   agree that the optimizer engaged — both compile the same plans. *)
let test_jit_counters_on_both_paths () =
  let mk () =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    m
  in
  let m = mk () in
  let _ = run_jit m in
  let s = Machine.block_stats m in
  Alcotest.(check bool) "merged executor compiled plans" true
    (s.Machine.jit_blocks_compiled > 0);
  Alcotest.(check bool) "bookkeeping removal accounted" true
    (s.Machine.dead_bookkeeping_removed > 0);
  let m2 = mk () in
  let rec drive () =
    match Machine.step_round m2 Machine.Dispatch_jit with
    | Machine.Step_ok | Machine.Step_trap _ -> drive ()
    | _ -> ()
  in
  drive ();
  let s2 = Machine.block_stats m2 in
  Alcotest.(check bool) "recording rounds compiled plans too" true
    (s2.Machine.jit_blocks_compiled > 0)

(* The three block tiers are settings of one executor: chain links
   blocks but never compiles a plan, block neither links nor forms
   superblocks, jit compiles.  Each must still reach the reference
   state. *)
let test_tier_settings () =
  let mk () =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    m.Machine.hot_threshold <- 2;
    m.Machine.hot_adaptive <- false;
    m
  in
  let ref_m = mk () in
  let _ = Machine.run ~dispatch:Machine.Dispatch_ref ref_m in
  let run dispatch =
    let m = mk () in
    (match Machine.run ~dispatch m with
    | Machine.Step_halted, _ -> ()
    | r, _ -> Alcotest.failf "did not halt: %s" (result_name r));
    Alcotest.(check string) "reference state hash" (Machine.state_hash ref_m)
      (Machine.state_hash m);
    Alcotest.(check int) "reference minstret" ref_m.Machine.minstret
      m.Machine.minstret;
    Machine.block_stats m
  in
  let c = run Machine.Dispatch_chain in
  Alcotest.(check int) "chain compiles no plan" 0 c.Machine.jit_blocks_compiled;
  Alcotest.(check int) "chain has no opt side exit" 0 c.Machine.opt_side_exits;
  Alcotest.(check bool) "chain links" true (c.Machine.chain_hits > 0);
  let b = run Machine.Dispatch_block in
  Alcotest.(check int) "block never links" 0 b.Machine.chain_hits;
  Alcotest.(check int) "block forms no superblock" 0
    b.Machine.superblocks_formed;
  let j = run Machine.Dispatch_jit in
  Alcotest.(check bool) "jit compiles plans" true
    (j.Machine.jit_blocks_compiled > 0)

(* [Trace.run ~dispatch:Dispatch_jit] renders the reference stream with
   chained transfers marked [jit]; a block whose entry guard fails is
   marked [opt-side-exit] and deoptimizes to full checks, so the
   faulting access (here: a hoisted load past the end of a short
   region) traps at exactly the reference point. *)
let test_trace_marks_jit () =
  let collect ?len dispatch =
    let m, _ = boot (List.map Encode.encode chained_loop) in
    Machine.set_reg_int m 6 4;
    (match len with Some l -> Machine.set_reg m 4 (data_cap ~len:l ()) | None -> ());
    let entries = ref [] in
    let _ =
      Trace.run m ~fuel:10_000 ~dispatch ~f:(fun e -> entries := e :: !entries)
    in
    (m, List.rev !entries)
  in
  let ref_m, ref_t = collect Machine.Dispatch_ref in
  let jit_m, jit_t = collect Machine.Dispatch_jit in
  Alcotest.(check string) "traced runs agree on state"
    (Machine.state_hash ref_m) (Machine.state_hash jit_m);
  Alcotest.(check int) "same trace length" (List.length ref_t)
    (List.length jit_t);
  List.iter2
    (fun r c ->
      Alcotest.(check int) "same traced pc" r.Trace.tr_pc c.Trace.tr_pc)
    ref_t jit_t;
  Alcotest.(check bool) "jit transfers are marked" true
    (List.exists (fun e -> e.Trace.tr_mark = Machine.mark_jit) jit_t);
  (* guard-failure rendering: two guarded loads whose union span
     overruns an 8-byte region — the plan deopts ([opt-side-exit]) and
     the second load traps exactly as on the reference path *)
  let guarded =
    Insn.
      [
        Load { signed = true; width = W; rd = 1; rs1 = 4; off = 0 };
        Load { signed = true; width = W; rd = 2; rs1 = 4; off = 8 };
        Ebreak;
      ]
  in
  let collect_g dispatch =
    let m, _ = boot (List.map Encode.encode guarded) in
    Machine.set_reg m 4 (data_cap ~len:8 ());
    let entries = ref [] in
    let r, _ =
      Trace.run m ~fuel:100 ~dispatch ~f:(fun e -> entries := e :: !entries)
    in
    (m, r, List.rev !entries)
  in
  let grm, gr, _ = collect_g Machine.Dispatch_ref in
  let gjm, gj, gjt = collect_g Machine.Dispatch_jit in
  Alcotest.(check string) "guard failure ends both runs identically"
    (result_name gr) (result_name gj);
  Alcotest.(check string) "guard failure reaches the reference state"
    (Machine.state_hash grm) (Machine.state_hash gjm);
  Alcotest.(check bool) "the deoptimized block is marked" true
    (List.exists (fun e -> e.Trace.tr_mark = Machine.mark_opt_side_exit) gjt)

let suite =
  [
    Alcotest.test_case "block formation and stats accounting" `Quick
      test_formation_and_stats;
    Alcotest.test_case "length cap and terminators bound blocks" `Quick
      test_block_boundaries;
    Alcotest.test_case "self-modifying store abandons its own block" `Quick
      test_self_modifying_abandon;
    Alcotest.test_case "fuel-exact block cutting" `Quick test_fuel_cutting;
    Alcotest.test_case "device writes keep cached blocks valid" `Quick
      test_device_write_keeps_blocks;
    Alcotest.test_case "bus-bypass writes need an explicit flush" `Quick
      test_bypass_needs_flush;
    Alcotest.test_case "chained edges follow and unlink on store" `Quick
      test_chain_links_and_unlink;
    Alcotest.test_case "flush bumps the chain epoch" `Quick
      test_chain_epoch_flush;
    Alcotest.test_case "superblock side exit is architecturally exact" `Quick
      test_superblock_side_exit;
    Alcotest.test_case "traced chain runs mark chained transfers" `Quick
      test_trace_marks_chained_transfers;
    Alcotest.test_case "in-block csetbounds kills eliminated-check facts"
      `Quick test_jit_csetbounds_kills_facts;
    Alcotest.test_case "hoisted guard survives a mid-trace code patch" `Quick
      test_jit_hoisted_guard_patch_midtrace;
    Alcotest.test_case "jit counters account on merged and recording paths"
      `Quick test_jit_counters_on_both_paths;
    Alcotest.test_case "each block tier runs its own executor settings" `Quick
      test_tier_settings;
    Alcotest.test_case "traced jit runs mark transfers and deoptimizations"
      `Quick test_trace_marks_jit;
  ]
