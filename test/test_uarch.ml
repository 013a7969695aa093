(* Tests for the cycle models and the background revoker engine
   (paper 3.3.3, 4). *)

open Cheriot_core
open Cheriot_uarch
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Bus = Cheriot_mem.Bus

let heap_base = 0x40000
let heap_size = 0x10000

let make () =
  let sram = Sram.create ~base:heap_base ~size:heap_size in
  let rev = Revbits.create ~heap_base ~heap_size () in
  (sram, rev)

let cap_at addr len =
  Capability.(
    set_bounds (with_address root_mem_rw addr) ~length:len ~exact:true)

let store_cap sram addr c =
  Sram.write_cap sram addr (c.Capability.tag, Capability.to_word c)

let test_sweep_invalidates_stale () =
  let sram, rev = make () in
  (* Two caps in memory: one to a freed object, one to a live object. *)
  let freed = cap_at (heap_base + 0x100) 64 in
  let live = cap_at (heap_base + 0x200) 64 in
  store_cap sram (heap_base + 0x1000) freed;
  store_cap sram (heap_base + 0x1008) live;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r ~start:heap_base ~stop:(heap_base + heap_size);
  Alcotest.(check bool) "epoch odd while sweeping" true
    (Revoker.epoch r mod 2 = 1);
  let cycles = Revoker.run_to_completion r in
  Alcotest.(check bool) "epoch even after" true (Revoker.epoch r mod 2 = 0);
  Alcotest.(check int) "one cap invalidated" 1 (Revoker.caps_invalidated r);
  Alcotest.(check bool) "stale tag cleared" false
    (Sram.tag_at sram (heap_base + 0x1000));
  Alcotest.(check bool) "live tag kept" true
    (Sram.tag_at sram (heap_base + 0x1008));
  (* Pipelined 2-stage engine: ~1 word/cycle over the whole heap. *)
  let words = heap_size / 8 in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ~1 word/cycle (%d cycles for %d words)"
       cycles words)
    true
    (cycles < words + 16)

let test_pipelining_ablation () =
  (* The single-stage engine needs ~2 cycles per word (3.3.3). *)
  let sram, rev = make () in
  let r1 = Revoker.create ~pipelined:false ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r1 ~start:heap_base ~stop:(heap_base + heap_size);
  let slow = Revoker.run_to_completion r1 in
  let r2 = Revoker.create ~pipelined:true ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r2 ~start:heap_base ~stop:(heap_base + heap_size);
  let fast = Revoker.run_to_completion r2 in
  Alcotest.(check bool)
    (Printf.sprintf "2-stage ~2x faster (%d vs %d)" fast slow)
    true
    (float_of_int slow /. float_of_int fast > 1.8)

let test_ibex_bus_slower () =
  let sram, rev = make () in
  let rf = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick rf ~start:heap_base ~stop:(heap_base + heap_size);
  let flute = Revoker.run_to_completion rf in
  let ri = Revoker.create ~core:Core_model.Ibex ~sram ~rev () in
  Revoker.kick ri ~start:heap_base ~stop:(heap_base + heap_size);
  let ibex = Revoker.run_to_completion ri in
  Alcotest.(check bool)
    (Printf.sprintf "Ibex 33-bit bus ~2x slower (%d vs %d)" ibex flute)
    true
    (float_of_int ibex /. float_of_int flute > 1.8)

let test_race_snoop () =
  (* Paper 3.3.3's race: revoker loads A, app stores to A, stale word must
     not be written back.  We interleave ticks with a store to the word
     the engine has in flight. *)
  let sram, rev = make () in
  let freed = cap_at (heap_base + 0x100) 64 in
  let slot = heap_base + 0x40 in
  store_cap sram slot freed;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x80);
  (* Tick until the engine has loaded the slot (9th word: 8 ticks in). *)
  for _ = 1 to 9 do
    Revoker.tick r
  done;
  (* Main pipeline overwrites the word with fresh integer data. *)
  Sram.write32 sram slot 0xdeadbeef;
  Sram.write32 sram (slot + 4) 0x12345678;
  Revoker.snoop_store r slot;
  ignore (Revoker.run_to_completion r);
  (* The fresh data must survive: the engine reloaded and found an
     untagged word, so wrote nothing back. *)
  Alcotest.(check int) "fresh low word intact" 0xdeadbeef
    (Sram.read32 sram slot);
  Alcotest.(check int) "fresh high word intact" 0x12345678
    (Sram.read32 sram (slot + 4));
  Alcotest.(check bool) "at least one reload" true (Revoker.race_reloads r >= 1)

(* [tick_n k] must be bit-identical to [k] successive [tick]s — sweep
   results, statistics and epoch transitions — including through bus
   stalls (Ibex's narrow bus inserts them on every word) and a store
   snoop landing at the same granted-cycle offset on both engines. *)
let test_tick_n_equivalence () =
  let mk core =
    let sram, rev = make () in
    let freed = cap_at (heap_base + 0x100) 64 in
    store_cap sram (heap_base + 0x1000) freed;
    store_cap sram (heap_base + 0x40) freed;
    Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
    let r = Revoker.create ~core ~sram ~rev () in
    Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x2000);
    (sram, r)
  in
  List.iter
    (fun core ->
      let sram_a, a = mk core and sram_b, b = mk core in
      (* grant the same cycle schedule: singly to [a], batched to [b],
         with a mid-sweep snoop at the same point on both *)
      let grants = [ 1; 7; 3; 64; 1; 1; 128; 513 ] in
      List.iteri
        (fun gi k ->
          for _ = 1 to k do
            Revoker.tick a
          done;
          Revoker.tick_n b k;
          if gi = 3 then begin
            Sram.write32 sram_a (heap_base + 0x40) 0xdeadbeef;
            Sram.write32 sram_b (heap_base + 0x40) 0xdeadbeef;
            Revoker.snoop_store a (heap_base + 0x40);
            Revoker.snoop_store b (heap_base + 0x40)
          end;
          Alcotest.(check bool) "sweeping state equal" (Revoker.sweeping a)
            (Revoker.sweeping b);
          Alcotest.(check int) "words swept equal" (Revoker.words_swept a)
            (Revoker.words_swept b);
          Alcotest.(check int) "busy cycles equal" (Revoker.busy_cycles a)
            (Revoker.busy_cycles b))
        grants;
      while Revoker.sweeping a do
        Revoker.tick a
      done;
      Revoker.tick_n b 1_000_000;
      Alcotest.(check int) "epoch equal" (Revoker.epoch a) (Revoker.epoch b);
      Alcotest.(check int) "caps invalidated equal" (Revoker.caps_invalidated a)
        (Revoker.caps_invalidated b);
      Alcotest.(check int) "race reloads equal" (Revoker.race_reloads a)
        (Revoker.race_reloads b);
      Alcotest.(check bool) "stale tag cleared on both" false
        (Sram.tag_at sram_a (heap_base + 0x1000)
        || Sram.tag_at sram_b (heap_base + 0x1000));
      (* a non-sweeping engine must consume batched grants for free *)
      Revoker.tick_n b 1_000_000;
      Alcotest.(check int) "idle grants cost nothing" (Revoker.busy_cycles a)
        (Revoker.busy_cycles b))
    [ Core_model.Flute; Core_model.Ibex ]

let test_mmio_interface () =
  let sram, rev = make () in
  let freed = cap_at (heap_base + 0x100) 64 in
  store_cap sram (heap_base + 0x800) freed;
  Revbits.paint rev ~addr:(heap_base + 0x100) ~len:64;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  let bus = Bus.create () in
  Bus.add_sram bus sram;
  Revoker.attach r bus ~base:0x1000_0000;
  let reg n = 0x1000_0000 + n in
  Bus.write bus ~width:4 (reg 0) heap_base;
  Bus.write bus ~width:4 (reg 4) (heap_base + 0x1000);
  let epoch0 = Bus.read bus ~width:4 (reg 8) in
  Bus.write bus ~width:4 (reg 12) 1;
  Alcotest.(check int) "epoch bumped by kick" (epoch0 + 1)
    (Bus.read bus ~width:4 (reg 8));
  (* kick while sweeping: no effect *)
  Bus.write bus ~width:4 (reg 12) 1;
  Alcotest.(check int) "double kick ignored" (epoch0 + 1)
    (Bus.read bus ~width:4 (reg 8));
  ignore (Revoker.run_to_completion r);
  Alcotest.(check int) "epoch completed" (epoch0 + 2)
    (Bus.read bus ~width:4 (reg 8));
  Alcotest.(check bool) "stale invalidated" false
    (Sram.tag_at sram (heap_base + 0x800))

(* The [start]/[end] registers program the next sweep; a write while a
   sweep runs must not reach it.  An [end] past the SRAM written
   mid-sweep used to become the running sweep's bound unclamped, and
   the stage loads then ran off the end of the SRAM. *)
let test_mmio_write_mid_sweep () =
  let sram, rev = make () in
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  let bus = Bus.create () in
  Bus.add_sram bus sram;
  Revoker.attach r bus ~base:0x1000_0000;
  let reg n = 0x1000_0000 + n in
  Bus.write bus ~width:4 (reg 0) heap_base;
  Bus.write bus ~width:4 (reg 4) (heap_base + 0x1000);
  Bus.write bus ~width:4 (reg 12) 1;
  Bus.write bus ~width:4 (reg 4) 0x90000;
  ignore (Revoker.run_to_completion r);
  Alcotest.(check int) "the running sweep kept its 4 KiB" (0x1000 / 8)
    (Revoker.words_swept r);
  Alcotest.(check int) "the register holds the programmed end" 0x90000
    (Bus.read bus ~width:4 (reg 4));
  (* the next kick takes the new end, clamped into the SRAM *)
  Bus.write bus ~width:4 (reg 12) 1;
  ignore (Revoker.run_to_completion r);
  Alcotest.(check int) "the next sweep ran to the end of the SRAM"
    ((0x1000 + heap_size) / 8)
    (Revoker.words_swept r)

let test_bus_snoop_wired () =
  (* Stores through the Bus must reach the engine's snoop. *)
  let sram, rev = make () in
  let bus = Bus.create () in
  Bus.add_sram bus sram;
  let r = Revoker.create ~core:Core_model.Flute ~sram ~rev () in
  Revoker.attach r bus ~base:0x1000_0000;
  Revoker.kick r ~start:heap_base ~stop:(heap_base + 0x100);
  Revoker.tick r;
  Revoker.tick r;
  (* The engine now has words in flight at heap_base and heap_base+8. *)
  Bus.write bus ~width:4 heap_base 42;
  Alcotest.(check bool) "snoop saw the store" true (Revoker.race_reloads r >= 1)

(* --- core model ------------------------------------------------------- *)

let ev insn =
  {
    Cheriot_isa.Machine.ev_insn = Some insn;
    ev_taken_branch = false;
    ev_trap = None;
  }

let test_core_model_costs () =
  let flute = Core_model.params_of Flute in
  let ibex = Core_model.params_of Ibex in
  let clc = Cheriot_isa.Insn.Clc (10, 2, 0) in
  let lw =
    Cheriot_isa.Insn.Load { signed = true; width = W; rd = 10; rs1 = 2; off = 0 }
  in
  (* Flute: 64-bit bus, filter free.  Ibex: two beats + visible filter. *)
  let c_flute_off = Core_model.cycles_of_event flute ~load_filter:false (ev clc) in
  let c_flute_on = Core_model.cycles_of_event flute ~load_filter:true (ev clc) in
  Alcotest.(check int) "Flute filter is free" c_flute_off c_flute_on;
  let c_ibex_off = Core_model.cycles_of_event ibex ~load_filter:false (ev clc) in
  let c_ibex_on = Core_model.cycles_of_event ibex ~load_filter:true (ev clc) in
  Alcotest.(check int) "Ibex filter costs one cycle" (c_ibex_off + 1) c_ibex_on;
  let w_ibex = Core_model.cycles_of_event ibex ~load_filter:true (ev lw) in
  Alcotest.(check bool) "Ibex cap load dearer than word load" true
    (c_ibex_on > w_ibex);
  let w_flute = Core_model.cycles_of_event flute ~load_filter:true (ev lw) in
  Alcotest.(check int) "Flute cap load same as word load" w_flute c_flute_on

(* --- Perf dispatch parity --------------------------------------------- *)

(* The cycle model must be blind to the dispatch machinery: runs of the
   same program on all five tiers charge identical cycles and
   instructions and land in identical machine state.  The loop program
   mixes the event classes the model prices differently (loads, stores,
   ALU, taken/untaken branches) and ends in a WFI with no interrupt
   source, covering the block tiers' idle-round charging too. *)
module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm
module Insn = Cheriot_isa.Insn

let code_base = 0x1_0000
let data_base = 0x1_8000

let exec_cap base len =
  Capability.set_bounds
    (Capability.with_address Capability.root_executable base)
    ~length:len ~exact:false

let mem_cap base len =
  Capability.set_bounds
    (Capability.with_address Capability.root_mem_rw base)
    ~length:len ~exact:false

let boot_perf program =
  let bus = Bus.create () in
  let sram = Sram.create ~base:code_base ~size:0xA000 in
  Bus.add_sram bus sram;
  let m = Machine.create bus in
  Asm.load (Asm.assemble ~origin:code_base program) sram;
  m.Machine.pcc <- exec_cap code_base 0x400;
  Machine.set_reg m 4 (mem_cap data_base 16);
  m

let parity_program =
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 in
  [
    Asm.Label "top";
    Asm.I (Insn.Load { signed = true; width = W; rd = t0; rs1 = 4; off = 0 });
    Asm.I (Insn.Op_imm (Add, t0, t0, 1));
    Asm.I (Insn.Store { width = W; rs2 = t0; rs1 = 4; off = 0 });
    Asm.Li (t1, 10);
    Asm.B (Insn.Lt, t0, t1, "top");
    Asm.I Insn.Wfi;
  ]

(* [addi; lw; addi; csrrs t2, mcycle, x0; ebreak]: the [Csr] reads the
   cycle count that the perf harness has charged so far, so a recorded
   round that ran it before charging the round's earlier instructions
   would read a stale [mcycle] and land on a different state. *)
let mcycle_program =
  let t0 = Insn.reg_t0 and t1 = Insn.reg_t1 and t2 = Insn.reg_t2 in
  [
    Asm.I (Insn.Op_imm (Add, t0, 0, 1));
    Asm.I (Insn.Load { signed = true; width = W; rd = t1; rs1 = 4; off = 0 });
    Asm.I (Insn.Op_imm (Add, t0, t0, 1));
    Asm.I (Insn.Csr (Csrrs, t2, 0, Cheriot_isa.Csr.mcycle));
    Asm.I Insn.Ebreak;
  ]

let tiers =
  List.filter (fun (_, d) -> d <> Machine.Dispatch_ref) Machine.dispatches

let perf_run dispatch program setup =
  let m = boot_perf program in
  setup m;
  let p =
    Perf.create ~dispatch ~params:(Core_model.params_of Core_model.Ibex) m
  in
  let r = Perf.run ~fuel:1_000_000 p in
  (r, p.Perf.stats, m.Machine.mcycle, Machine.state_hash m, Machine.block_stats m)

(* Every tier must end like the reference run: same result, cycles,
   [mcycle], instructions, traps and final state.
   Returns the reference result and each block tier's block stats. *)
let check_perf_parity ?(setup = fun _ -> ()) program =
  let r_ref, s_ref, cy_ref, h_ref, bs_ref =
    perf_run Machine.Dispatch_ref program setup
  in
  Alcotest.(check int) "no block activity on reference" 0
    (bs_ref.Machine.block_hits + bs_ref.Machine.block_misses);
  let stats =
    List.map
      (fun (name, d) ->
        let r, s, cy, h, bs = perf_run d program setup in
        let what f = Printf.sprintf "%s (%s)" f name in
        Alcotest.(check bool) (what "same result") true (r = r_ref);
        Alcotest.(check int) (what "cycles") s_ref.Perf.cycles s.Perf.cycles;
        Alcotest.(check int) (what "mcycle") cy_ref cy;
        Alcotest.(check int) (what "instructions") s_ref.Perf.instructions
          s.Perf.instructions;
        Alcotest.(check int) (what "traps") s_ref.Perf.traps s.Perf.traps;
        Alcotest.(check string) (what "state hash") h_ref h;
        (name, bs))
      tiers
  in
  (r_ref, List.remove_assoc "cached" stats)

let test_perf_dispatch_parity () =
  let r, stats = check_perf_parity parity_program in
  Alcotest.(check bool) "all paths reach the WFI" true
    (r = Machine.Step_waiting);
  (* the harness really drove the block tiers *)
  List.iter
    (fun (name, bs) ->
      Alcotest.(check bool) ("block stats threaded " ^ name) true
        (bs.Machine.block_hits > 0 && Machine.avg_block_len bs > 1.0))
    stats;
  let r, stats = check_perf_parity mcycle_program in
  Alcotest.(check bool) "the mcycle read halts" true (r = Machine.Step_halted);
  List.iter
    (fun (name, bs) ->
      Alcotest.(check bool) ("mcycle program translated " ^ name) true
        (bs.Machine.blocks_filled > 0))
    stats

(* With interrupts enabled and the timer armed, the block tiers must
   deliver the timer interrupt at exactly the same cycle as the
   per-step paths (they fall back to per-step dispatch in that regime —
   a mid-block comparator crossing would otherwise be observable). *)
let test_perf_timer_parity () =
  let isr_base = code_base + 0x200 in
  let program =
    [ Asm.Label "spin"; Asm.I (Insn.Op_imm (Add, 5, 5, 1)); Asm.J (0, "spin") ]
  in
  let setup (m : Machine.t) =
    let sram =
      match Bus.sram_at m.Machine.bus ~size:4 isr_base with
      | Some s -> s
      | None -> Alcotest.fail "no sram at isr"
    in
    Asm.load (Asm.assemble ~origin:isr_base [ Asm.I Insn.Ebreak ]) sram;
    Machine.flush_decode_cache m;
    m.Machine.mtcc <- exec_cap isr_base 0x100;
    m.Machine.mtimecmp <- 100;
    m.Machine.mie <- true
  in
  Alcotest.(check bool) "every tier halts in the ISR" true
    (fst (check_perf_parity ~setup program) = Machine.Step_halted)

let suite =
  [
    Alcotest.test_case "sweep invalidates stale caps" `Quick
      test_sweep_invalidates_stale;
    Alcotest.test_case "pipelining ablation (1 vs 2 stage)" `Quick
      test_pipelining_ablation;
    Alcotest.test_case "Ibex narrow bus halves sweep rate" `Quick
      test_ibex_bus_slower;
    Alcotest.test_case "store race: snoop forces reload" `Quick
      test_race_snoop;
    Alcotest.test_case "tick_n bit-identical to repeated tick" `Quick
      test_tick_n_equivalence;
    Alcotest.test_case "MMIO start/end/epoch/kick" `Quick test_mmio_interface;
    Alcotest.test_case "MMIO start/end writes wait for the next kick" `Quick
      test_mmio_write_mid_sweep;
    Alcotest.test_case "bus store snoop wired" `Quick test_bus_snoop_wired;
    Alcotest.test_case "core model costs" `Quick test_core_model_costs;
    Alcotest.test_case "perf harness blind to dispatch path" `Quick
      test_perf_dispatch_parity;
    Alcotest.test_case "timer interrupt cycle-exact under block dispatch"
      `Quick test_perf_timer_parity;
  ]
