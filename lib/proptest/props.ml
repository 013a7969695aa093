(** The observational-equivalence property family (DESIGN.md §12).

    One generator of programs — flat random instruction streams
    ({!Flatgen}) and well-formed multi-compartment scenarios
    ({!Scenario}) — and one family of properties over it:

    + {b state-trace equivalence} of all five dispatch modes
      (ref / cached / block / chain / jit), per retired instruction and
      under interrupt injection, with a tiny [hot_threshold] so
      superblock formation, side exits and the optimizer's check plans
      are constantly crossed;
    + {b cycle-model agreement}: the {!Perf} harness charges identical
      cycles and instructions on every dispatch variant, on both core
      models (Ibex and Flute);
    + {b authority monotonicity}: no scenario execution amplifies the
      boot-time capability envelope (the paper-2.5 invariant,
      generalized from the flat fuzz boot to linked images);
    + {b codec/engine invariants}: the E'4/B'9/T'9 bounds round-trip
      properties (in [test_bounds], over {!Flatgen.gen_region}),
      [Revoker.tick_n] ≡ tick-loop equivalence under random grant and
      snoop schedules, and each bulk temporal-safety primitive (micro-tag
      clear, [Revbits] paint/clear, the software sweep's run skip) ≡ its
      per-granule original, kept here as the reference;
    + {b auditor precision}: every generated {e clean} scenario audits
      with zero findings — the zero-false-positive claim pinned under
      generated, not hand-written, inputs.

    Every property prints, on failure, the qcheck seed plus the shrunk
    program (disassembly listing and reference trace), so a failure
    reproduces in one command. *)

open Cheriot_core
open Cheriot_isa
module Sram = Cheriot_mem.Sram
module Bus = Cheriot_mem.Bus
module Revbits = Cheriot_mem.Revbits
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf
module Revoker = Cheriot_uarch.Revoker
module Loader = Cheriot_rtos.Loader
module Allocator = Cheriot_rtos.Allocator
module Audit = Cheriot_analysis.Audit
module Rules = Cheriot_analysis.Rules
module Planverify = Cheriot_analysis.Planverify

(* A small deterministic LCG over a generated seed: the shrinker can
   minimise interesting injection schedules along with the program. *)
let lcg seed =
  let state = ref seed in
  fun bound ->
    state := ((!state * 1103515245) + 12345) land 0x3FFF_FFFF;
    !state mod bound

(* --- flat-stream lockstep ------------------------------------------------ *)

(* A tiny hotness threshold makes superblock formation reachable within
   short streams (adaptation off so it stays pinned); only the chain and
   jit tiers consult it. *)
let pin_hot (m : Machine.t) =
  m.Machine.hot_threshold <- 2;
  m.Machine.hot_adaptive <- false

(* One machine per entry of [Machine.dispatches], reference first. *)
let tier_machines mk =
  List.map
    (fun (name, d) ->
      let m = mk () in
      pin_hot m;
      (name, d, m))
    Machine.dispatches

(* Run [fuel] on every tier's machine and require each to end the batch
   like the reference, the head of [tiers]: same result, same retired
   count, same architectural state.  [at] is the reference's retired
   count before the batch.  Returns the reference's [(result, retired)]. *)
let lockstep_batch ~what ~at ~fuel tiers =
  match tiers with
  | [] -> invalid_arg "lockstep_batch"
  | (_, d_ref, ref_m) :: others ->
      let r_ref, n_ref = Machine.run ~fuel ~dispatch:d_ref ref_m in
      List.iter
        (fun (name, d, m) ->
          let r, n = Machine.run ~fuel ~dispatch:d m in
          if (r, n) <> (r_ref, n_ref) then
            QCheck.Test.fail_reportf
              "%s ref/%s diverged after %d insns (fuel %d): ref retired %d, \
               %s retired %d"
              what name at fuel n_ref name n;
          Obs.compare_states ~what:(Printf.sprintf "%s ref/%s" what name) at
            ref_m m)
        others;
      (r_ref, n_ref)

let require_tier_hashes ~what at tiers =
  match List.map (fun (_, _, m) -> m) tiers with
  | ref_m :: others -> Obs.require_hashes_equal ~what at ref_m others
  | [] -> ()

(** Drive the same stream on five identically-booted machines in
    lockstep — one per dispatch path, each with [fuel:1] so every
    mid-block state is exposed — comparing the full architectural
    state after every single step and the state hashes at the end. *)
let flat_lockstep ?(writable_code = false) words =
  let tiers = tier_machines (fun () -> (Boot.flat ~writable_code words).Boot.m) in
  let rec go n =
    if n <= 256 then
      match lockstep_batch ~what:"flat" ~at:n ~fuel:1 tiers with
      | Machine.Step_ok, _ -> go (n + 1)
      | _ -> ()
  in
  go 0;
  require_tier_hashes ~what:"flat lockstep" 256 tiers;
  true

(* Batches until the reference has retired [limit] instructions (or run
   [max_batches] batches), halts or double-faults.  [batch ()] applies
   the batch's injections to every machine and returns its fuel; the
   state hashes are compared after every batch. *)
let batch_lockstep ~what ~limit ~max_batches ~batch tiers =
  let total = ref 0 and batches = ref 0 in
  (try
     while !total < limit && !batches < max_batches do
       incr batches;
       let fuel = batch () in
       let r_ref, n_ref = lockstep_batch ~what ~at:!total ~fuel tiers in
       require_tier_hashes ~what !total tiers;
       total := !total + n_ref;
       match r_ref with
       | Machine.Step_halted | Machine.Step_double_fault -> raise Exit
       | _ -> ()
     done
   with Exit -> ());
  true

(** Interrupt-injection equivalence (the heart of the block-dispatch
    soundness argument): drive the five paths in random-length fuel
    batches, toggling the external interrupt line and rewriting the
    timer comparator / cycle counter identically on all five between
    batches.  Batched block execution checks for interrupts only at
    block boundaries; that must deliver every interrupt at exactly the
    same retired-instruction boundary as the per-step loops.  The tiny
    hot threshold makes batches cross the superblock formation point
    mid-stream, so interrupt delivery is checked against freshly
    re-translated superblocks too. *)
let flat_interrupt_lockstep ?(writable_code = false) (words, seed) =
  let handler_cap =
    Capability.set_bounds
      (Capability.with_address Capability.root_executable Boot.code_base)
      ~length:Boot.code_size ~exact:false
  in
  let mk () =
    let m = (Boot.flat ~writable_code words).Boot.m in
    (* vector traps back into the program text so interrupts take the
       real trap-entry path instead of double-faulting *)
    m.Machine.mtcc <- handler_cap;
    m.Machine.mie <- true;
    m
  in
  let tiers = tier_machines mk in
  let rand = lcg seed in
  let batch () =
    let fuel = 1 + rand 32 in
    let toggle = rand 4 = 0 in
    let retime = rand 4 = 0 in
    let cmp = rand 8 and cyc = rand 8 in
    List.iter
      (fun (_, _, (m : Machine.t)) ->
        if toggle then m.Machine.ext_interrupt <- not m.Machine.ext_interrupt;
        if retime then begin
          m.Machine.mtimecmp <- cmp;
          m.Machine.mcycle <- cyc
        end)
      tiers;
    fuel
  in
  batch_lockstep ~what:"interrupt batch" ~limit:256 ~max_batches:max_int ~batch
    tiers

(* --- flat authority monotonicity ----------------------------------------- *)

(** Paper 2.5 on the flat boot: execute the stream on the reference
    interpreter and assert after every step that every tagged capability
    anywhere still lies within the initial authority. *)
let flat_authority ?(writable_code = false) words =
  let f = Boot.flat ~writable_code words in
  let m = f.Boot.m in
  let srams = Boot.flat_srams f in
  let within = Boot.flat_within_authority ~writable_code in
  let rec go n =
    if n > 256 then true
    else
      match Machine.step m with
      | Machine.Step_ok -> (
          match Boot.authority_violations ~within m srams with
          | [] -> go (n + 1)
          | bad ->
              QCheck.Test.fail_reportf "authority amplified at step %d: %s" n
                (String.concat "," bad))
      | Machine.Step_trap _ | Machine.Step_waiting | Machine.Step_halted
      | Machine.Step_double_fault ->
          Boot.authority_violations ~within m srams = []
  in
  go 0

(* --- scenario lockstep ---------------------------------------------------- *)

let scenario_fuel = 4096
let scenario_batches = 96

(** One injection round, applied identically to every machine in the
    lockstep group: interrupt-line and timer writes on the machine, and
    allocator churn / revocation sweeps / host ("DMA") code patches on
    the image. *)
let inject rand (links : Scenario.linked list) =
  let ms = List.map (fun l -> l.Scenario.t.Loader.machine) links in
  (* external interrupt: raise rarely, lower quickly — the ISR cannot
     ack the line, so a high line re-fires on every Mret *)
  (match ms with
  | m0 :: _ ->
      if m0.Machine.ext_interrupt then begin
        if rand 4 < 3 then
          List.iter (fun m -> m.Machine.ext_interrupt <- false) ms
      end
      else if rand 4 = 0 then
        List.iter (fun m -> m.Machine.ext_interrupt <- true) ms
  | [] -> ());
  if rand 4 = 0 then begin
    let cmp = rand 8 and cyc = rand 8 in
    List.iter
      (fun (m : Machine.t) ->
        m.Machine.mtimecmp <- cmp;
        m.Machine.mcycle <- cyc)
      ms
  end;
  (* allocator churn: malloc / free / revoke, same call on every image *)
  if rand 8 = 0 then begin
    let size = 8 + (8 * rand 4) in
    List.iter
      (fun l ->
        match l.Scenario.alloc with
        | Some a -> (
            match Allocator.malloc a size with
            | Ok c -> l.Scenario.handles <- l.Scenario.handles @ [ c ]
            | Error _ -> ())
        | None -> ())
      links
  end;
  if rand 8 = 0 then
    List.iter
      (fun l ->
        match (l.Scenario.alloc, l.Scenario.handles) with
        | Some a, c :: rest ->
            ignore (Allocator.free a c);
            l.Scenario.handles <- rest
        | _ -> ())
      links;
  if rand 8 = 0 then
    List.iter
      (fun l ->
        match l.Scenario.alloc with
        | Some a -> Allocator.revoke_now a
        | None -> ())
      links;
  (* a host-driven code patch through the bus — the cached blocks and
     chained links covering the word must die on every machine *)
  if rand 8 = 0 then begin
    match links with
    | l0 :: _ ->
        let comp = rand l0.Scenario.n in
        let word = Encode.encode Scenario.patch_insn_after in
        List.iter
          (fun l ->
            let b = Loader.find l.Scenario.t (Scenario.comp_name comp) in
            let addr = b.Loader.image.Asm.origin + Scenario.patch_offset in
            Bus.write l.Scenario.t.Loader.bus ~width:4 addr word)
          links
    | [] -> ()
  end

(** State-trace equivalence of all five dispatch modes on a linked
    multi-compartment image, under interrupt injection, allocator churn,
    revocation sweeps and code patches, with the chain and jit machines
    forming superblocks at [hot_threshold = 2]. *)
let scenario_lockstep (sc : Scenario.t) =
  let links =
    List.map (fun _ -> Scenario.link ~instrument:true sc) Machine.dispatches
  in
  let tiers =
    List.map2
      (fun (name, d) l ->
        let m = l.Scenario.t.Loader.machine in
        pin_hot m;
        (name, d, m))
      Machine.dispatches links
  in
  let rand = lcg sc.Scenario.seed in
  let batch () =
    inject rand links;
    1 + rand 64
  in
  batch_lockstep ~what:"scenario" ~limit:scenario_fuel
    ~max_batches:scenario_batches ~batch tiers

(* --- cycle-model agreement ------------------------------------------------ *)

(** The {!Perf} harness must charge identical cycles and instructions on
    every dispatch variant, for both core models, with identical final
    architectural state. *)
let scenario_perf_agreement (sc : Scenario.t) =
  List.iter
    (fun core ->
      let run dispatch =
        let l = Scenario.link ~instrument:true sc in
        let m = l.Scenario.t.Loader.machine in
        let p =
          Perf.create ~dispatch ~params:(Core_model.params_of core) m
        in
        let r = Perf.run ~fuel:scenario_fuel p in
        (r, p.Perf.stats.Perf.cycles, p.Perf.stats.Perf.instructions,
         Machine.state_hash m)
      in
      match List.map (fun (name, d) -> (name, run d)) Machine.dispatches with
      | [] -> ()
      | (_, (r0, c0, i0, h0)) :: others ->
          List.iter
            (fun (name, (r, c, i, h)) ->
              if (r, c, i, h) <> (r0, c0, i0, h0) then
                QCheck.Test.fail_reportf
                  "%s/%s cycle model disagrees: ref (cycles %d, insns %d) vs \
                   (cycles %d, insns %d)%s"
                  (Core_model.config_name
                     (Core_model.config ~cheri:true ~load_filter:true core))
                  name c0 i0 c i
                  (if h <> h0 then ", state hashes differ" else ""))
            others)
    [ Core_model.Ibex; Core_model.Flute ];
  true

(* --- scenario authority monotonicity -------------------------------------- *)

(** Collect the boot-time authority envelope of a linked image: the
    (base, top, perms) of every tagged capability reachable at boot —
    registers, PCC, SCRs, and every granule of the image SRAM. *)
let boot_envelope (l : Scenario.linked) =
  let m = l.Scenario.t.Loader.machine in
  let sram = l.Scenario.t.Loader.sram in
  let caps = ref [] in
  let add c =
    if c.Capability.tag then
      caps :=
        (Capability.base c, Capability.top c, Capability.perms c) :: !caps
  in
  for r = 1 to 15 do
    add m.Machine.regs.(r)
  done;
  add m.Machine.pcc;
  add m.Machine.mtcc;
  add m.Machine.mepcc;
  add m.Machine.mtdc;
  add m.Machine.mscratchc;
  let base = Sram.base sram and size = Sram.size sram in
  let a = ref base in
  while !a < base + size do
    if Sram.tag_at sram !a then begin
      let tag, w = Sram.read_cap sram !a in
      add (Capability.of_word ~tag w)
    end;
    a := !a + 8
  done;
  !caps

let within_envelope env c =
  (not c.Capability.tag)
  || begin
       let b = Capability.base c
       and t = Capability.top c
       and p = Capability.perms c in
       List.exists
         (fun (eb, et, ep) -> b >= eb && t <= et && Perm.Set.subset p ep)
         env
     end

(** Authority monotonicity generalized to multi-compartment programs:
    run the scenario on the reference interpreter and assert,
    periodically and at termination, that every tagged capability in
    the register file, SCRs and the whole image SRAM still lies within
    the boot envelope — the switcher, loader-built descriptors, sealed
    sentries, heap allocations and code-patch windows included. *)
let scenario_authority (sc : Scenario.t) =
  let l = Scenario.link ~instrument:true sc in
  let m = l.Scenario.t.Loader.machine in
  let sram = l.Scenario.t.Loader.sram in
  let env = boot_envelope l in
  let srams = [ (Sram.base sram, Sram.size sram, sram) ] in
  let check step =
    match
      Boot.authority_violations ~within:(within_envelope env) m srams
    with
    | [] -> ()
    | bad ->
        QCheck.Test.fail_reportf "scenario authority amplified at step %d: %s"
          step (String.concat "," bad)
  in
  let rec go n =
    if n > 2048 then ()
    else
      match Machine.step m with
      | Machine.Step_ok ->
          if n mod 64 = 0 then check n;
          go (n + 1)
      | Machine.Step_trap _ ->
          check n;
          go (n + 1)
      | Machine.Step_waiting | Machine.Step_halted | Machine.Step_double_fault
        ->
          check n
  in
  go 0;
  true

(* --- auditor precision ---------------------------------------------------- *)

(** Every generated clean scenario must audit with zero findings: the
    auditor's zero-false-positive contract, pinned under generated
    multi-compartment inputs rather than the hand-written corpus. *)
let scenario_audits_clean (sc : Scenario.t) =
  let l = Scenario.link ~instrument:false sc in
  match Audit.run ~call_summaries:true ~field_sensitive:true l.Scenario.t with
  | [] -> true
  | findings ->
      QCheck.Test.fail_reportf "clean scenario has %d finding(s): %s"
        (List.length findings)
        (String.concat "; "
           (List.map (Format.asprintf "%a" Rules.pp_finding) findings))

(* --- plan soundness (DESIGN.md §14) ---------------------------------------- *)

(** Translation validation under generated inputs: every check plan the
    jit tier compiles from a random multi-compartment scenario at
    [hot_threshold = 2] must be provable sound by {!Planverify} —
    including plans whose guards group accesses through derived
    (non-entry) register versions, which the scenario stack prologue and
    epilogue exercise on every cross-compartment call. *)
let scenario_plans_sound (sc : Scenario.t) =
  let l = Scenario.link ~instrument:true sc in
  let plans =
    Planverify.collect ~fuel:scenario_fuel l.Scenario.t.Loader.machine
  in
  List.iter
    (fun (p : Planverify.plan) ->
      match Planverify.verify_plan p with
      | Planverify.Sound -> ()
      | Planverify.Unsound cx ->
          QCheck.Test.fail_reportf "unsound plan at 0x%x op %d: %s: %s"
            p.Planverify.p_block.Machine.b_start cx.Planverify.cx_index
            cx.Planverify.cx_rule cx.Planverify.cx_detail)
    plans;
  true

(** Compile-time validation is observationally free: a jit machine with
    {!Planverify.install}ed validation retires exactly the states of a
    bare one, and never rejects a plan the optimizer actually emits. *)
let scenario_validated_jit_agrees (sc : Scenario.t) =
  let mk () =
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    m.Machine.hot_threshold <- 2;
    m.Machine.hot_adaptive <- false;
    m
  in
  let plain = mk () and validated = mk () in
  Planverify.install validated;
  let r_p =
    Machine.run ~fuel:scenario_fuel ~dispatch:Machine.Dispatch_jit plain
  in
  let r_v =
    Machine.run ~fuel:scenario_fuel ~dispatch:Machine.Dispatch_jit validated
  in
  if r_p <> r_v then
    QCheck.Test.fail_reportf "validated jit run result diverged";
  Obs.compare_states ~what:"plain/validated jit" scenario_fuel plain validated;
  Obs.require_hashes_equal ~what:"validated jit" scenario_fuel plain
    [ validated ];
  let rejected = validated.Machine.counters.Machine.jit_plans_rejected in
  if rejected <> 0 then
    QCheck.Test.fail_reportf
      "validator rejected %d plan(s) the optimizer emitted" rejected;
  true

(* --- bulk temporal-safety primitives ≡ their per-granule originals ------- *)

(* The memories these properties sweep: long untagged runs with a few
   clusters of capabilities (each to its own target granule, painted
   when the cluster is freed) and a few half-tagged granules, whose one
   micro-tag must not read as a tag. *)
let bulk_base = 0x40000
let bulk_size = 0x2000
let bulk_granules = bulk_size / 8

type layout = {
  clusters : (int * int * bool) list;
      (** (first granule, length, freed?) runs of capabilities *)
  halves : int list;  (** granules left with one micro-tag set *)
}

let place_layout sram rev (l : layout) =
  List.iter
    (fun (first, len, freed) ->
      for i = 0 to len - 1 do
        let at = bulk_base + (8 * ((first + i) mod bulk_granules)) in
        let target =
          bulk_base + (8 * (((first * 31) + (i * 7) + 5) mod bulk_granules))
        in
        let c =
          Capability.set_bounds
            (Capability.with_address Capability.root_mem_rw target)
            ~length:8 ~exact:true
        in
        Sram.write_cap sram at (true, Capability.to_word c);
        if freed then Revbits.paint rev ~addr:target ~len:8
      done)
    l.clusters;
  List.iter
    (fun g ->
      let at = bulk_base + (8 * (g mod bulk_granules)) in
      Sram.write_cap sram at (true, 0x1234_5678_9abc_def0L);
      Sram.write32 sram (at + (4 * (g land 1))) 0)
    l.halves

(* [dense] tags every granule before the layout is placed, so a clear
   that strays one micro-tag past its write shows. *)
let bulk_memory ?(dense = false) l =
  let sram = Sram.create ~base:bulk_base ~size:bulk_size in
  let rev = Revbits.create ~heap_base:bulk_base ~heap_size:bulk_size () in
  if dense then
    for g = 0 to bulk_granules - 1 do
      Sram.write_cap sram (bulk_base + (8 * g)) (true, Int64.of_int g)
    done;
  place_layout sram rev l;
  (sram, rev)

let gen_layout =
  let open QCheck.Gen in
  let* clusters =
    list_size (0 -- 5)
      (triple (int_bound (bulk_granules - 1)) (1 -- 6) bool)
  in
  let* halves = list_size (0 -- 4) (int_bound (bulk_granules - 1)) in
  return { clusters; halves }

let print_layout l =
  Printf.sprintf "clusters=[%s] halves=[%s]"
    (String.concat ";"
       (List.map
          (fun (g, n, f) -> Printf.sprintf "%d+%d%s" g n (if f then "F" else ""))
          l.clusters))
    (String.concat ";" (List.map string_of_int l.halves))

(* Revoker.tick_n ≡ tick loop.  [tick_n] stalls in bulk and
   fast-forwards untagged runs; the reference grants one [tick] at a
   time. *)

type revoker_case = {
  rc_core : Core_model.core;
  rc_pipelined : bool;
  rc_layout : layout;
  rc_start : int;  (** granules between the heap start and the sweep's *)
  rc_stop_gap : int;  (** granules between the sweep's end and the heap's *)
  rc_grants : int list;  (** cycle-grant batch sizes *)
  rc_snoops : (int * int * bool) list;
      (** (grant index, granule past the next to retire, capability
          store?): after that grant a store lands on an in-flight word
          (offsets 0 and 1) or the one about to load (2) *)
}

(** [tick_n k] must be bit-identical to [k] successive [tick]s — sweep
    results, statistics, epoch transitions and final memory — under
    random capability layouts, sweep bounds, grant schedules and
    stores racing the engine's in-flight words. *)
let revoker_tick_n_agrees (rc : revoker_case) =
  let freed_target = bulk_base + bulk_size - 8 in
  let freed_cap =
    Capability.to_word
      (Capability.set_bounds
         (Capability.with_address Capability.root_mem_rw freed_target)
         ~length:8 ~exact:true)
  in
  let start = bulk_base + (8 * rc.rc_start) in
  let mk () =
    let sram, rev = bulk_memory rc.rc_layout in
    Revbits.paint rev ~addr:freed_target ~len:8;
    let r =
      Revoker.create ~pipelined:rc.rc_pipelined ~core:rc.rc_core ~sram ~rev ()
    in
    Revoker.kick r ~start ~stop:(bulk_base + bulk_size - (8 * rc.rc_stop_gap));
    (sram, r)
  in
  let sram_a, a = mk () and sram_b, b = mk () in
  let agree what =
    if
      Revoker.sweeping a <> Revoker.sweeping b
      || Revoker.epoch a <> Revoker.epoch b
      || Revoker.words_swept a <> Revoker.words_swept b
      || Revoker.busy_cycles a <> Revoker.busy_cycles b
      || Revoker.caps_invalidated a <> Revoker.caps_invalidated b
      || Revoker.race_reloads a <> Revoker.race_reloads b
      || Sram.digest sram_a <> Sram.digest sram_b
    then
      QCheck.Test.fail_reportf
        "tick/tick_n diverged %s (swept %d vs %d, busy %d vs %d, \
         invalidated %d vs %d, reloads %d vs %d)"
        what (Revoker.words_swept a) (Revoker.words_swept b)
        (Revoker.busy_cycles a) (Revoker.busy_cycles b)
        (Revoker.caps_invalidated a)
        (Revoker.caps_invalidated b)
        (Revoker.race_reloads a) (Revoker.race_reloads b)
  in
  List.iteri
    (fun gi k ->
      for _ = 1 to k do
        Revoker.tick a
      done;
      Revoker.tick_n b k;
      List.iter
        (fun (at, off, cap) ->
          let addr = start + (8 * (Revoker.words_swept a + off)) in
          if at = gi && addr < bulk_base + bulk_size then
            List.iter
              (fun (sram, r) ->
                if cap then Sram.write_cap sram addr (true, freed_cap)
                else Sram.write32 sram addr 0xdeadbeef;
                Revoker.snoop_store r addr)
              [ (sram_a, a); (sram_b, b) ])
        rc.rc_snoops;
      agree (Printf.sprintf "at grant %d" gi))
    rc.rc_grants;
  while Revoker.sweeping a do
    Revoker.tick a
  done;
  ignore (Revoker.run_to_completion b);
  agree "at the end";
  true

let gen_revoker_case : revoker_case QCheck.Gen.t =
  let open QCheck.Gen in
  let* core = oneofl [ Core_model.Ibex; Core_model.Flute ] in
  let* pipelined = bool in
  let* layout = gen_layout in
  let* start = int_bound 7 and* stop_gap = int_bound 7 in
  (* grants shorter than a bus step, ones that end inside a run, and
     ones that cross several runs *)
  let* grants =
    list_size (1 -- 16)
      (frequency [ (3, 1 -- 3); (4, 4 -- 120); (2, 120 -- 1500) ])
  in
  let* snoops =
    list_size (0 -- 4) (triple (int_bound 15) (int_bound 2) bool)
  in
  return
    { rc_core = core; rc_pipelined = pipelined; rc_layout = layout;
      rc_start = start; rc_stop_gap = stop_gap; rc_grants = grants;
      rc_snoops = snoops }

let arb_revoker_case =
  QCheck.make
    ~print:(fun rc ->
      Printf.sprintf
        "%s pipelined=%b %s sweep=+%d..-%d grants=[%s] snoops=[%s]"
        (match rc.rc_core with Core_model.Ibex -> "ibex" | _ -> "flute")
        rc.rc_pipelined
        (print_layout rc.rc_layout)
        rc.rc_start rc.rc_stop_gap
        (String.concat ";" (List.map string_of_int rc.rc_grants))
        (String.concat ";"
           (List.map
              (fun (g, o, c) -> Printf.sprintf "%d+%d%s" g o (if c then "C" else ""))
              rc.rc_snoops)))
    gen_revoker_case

(* Micro-tag clear: a write masks the micro-tag bytes at its edges and
   fills the whole bytes between.  The reference is the per-half rule: a
   granule's half keeps its micro-tag iff the write misses it.  The data
   must match the same bytes written one at a time. *)

type clear_case = {
  cc_layout : layout;
  cc_addr : int;  (** byte offset of the write *)
  cc_len : int;
  cc_blit : bool;  (** [blit_string] rather than [fill] *)
  cc_dense : bool;  (** every granule tagged before the layout *)
}

let microtag_clear_agrees (cc : clear_case) =
  let memory () = fst (bulk_memory ~dense:cc.cc_dense cc.cc_layout) in
  let bulk = memory () and per_byte = memory () in
  let addr = bulk_base + cc.cc_addr in
  let granule g = bulk_base + (8 * g) in
  let before =
    Array.init bulk_granules (fun g -> Sram.read_microtags bulk (granule g))
  in
  let byte i = if cc.cc_blit then (i * 37) land 0xff else 0xa5 in
  if cc.cc_blit then
    Sram.blit_string bulk ~addr (String.init cc.cc_len (fun i -> Char.chr (byte i)))
  else Sram.fill bulk ~addr ~len:cc.cc_len (Char.chr (byte 0));
  for i = 0 to cc.cc_len - 1 do
    Sram.write8 per_byte (addr + i) (byte i)
  done;
  let missed half = half + 4 <= addr || half >= addr + cc.cc_len in
  Array.iteri
    (fun g (lo, hi) ->
      let a = granule g in
      let expect = (lo && missed a, hi && missed (a + 4)) in
      if Sram.read_microtags bulk a <> expect then
        QCheck.Test.fail_reportf "granule 0x%x: micro-tags differ from the \
                                  per-half rule" a)
    before;
  if Sram.digest bulk <> Sram.digest per_byte then
    QCheck.Test.fail_reportf "bulk and per-byte writes differ";
  true

let arb_clear_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun cc ->
      Printf.sprintf "%s%s %s +0x%x len %d"
        (if cc.cc_dense then "dense " else "")
        (print_layout cc.cc_layout)
        (if cc.cc_blit then "blit" else "fill")
        cc.cc_addr cc.cc_len)
    (let* layout = gen_layout in
     (* writes inside one micro-tag byte, across two or three, and long
        ones *)
     let* len = frequency [ (2, 1 -- 63); (3, 56 -- 80); (2, 64 -- 600) ] in
     let* addr = int_bound (bulk_size - len) and* blit = bool
     and* dense = bool in
     return
       { cc_layout = layout; cc_addr = addr; cc_len = len; cc_blit = blit;
         cc_dense = dense })

(* Revbits paint/clear set whole bitmap bytes.  The reference sets one
   bit per granule, with the original clamping to the covered region. *)

type revbits_case = {
  rb_log2 : int;
  rb_heap_size : int;
  rb_ops : (bool * int * int) list;
      (** (paint?, offset from the heap base, length) *)
}

let revbits_agree (rb : revbits_case) =
  let base = 0x1000 and g = 1 lsl rb.rb_log2 in
  let rev =
    Revbits.create ~granule_log2:rb.rb_log2 ~heap_base:base
      ~heap_size:rb.rb_heap_size ()
  in
  let bits = Array.make ((rb.rb_heap_size + g - 1) / g) false in
  List.iter
    (fun (paint, off, len) ->
      let addr = base + off in
      if paint then Revbits.paint rev ~addr ~len
      else Revbits.clear rev ~addr ~len;
      let lo = max addr base in
      let last = min (addr + len - 1) (base + rb.rb_heap_size - 1) in
      if len > 0 && last >= lo then
        for i = (lo - base) / g to (last - base) / g do
          bits.(i) <- paint
        done)
    rb.rb_ops;
  Array.iteri
    (fun i b ->
      if Revbits.is_revoked rev (base + (i * g)) <> b then
        QCheck.Test.fail_reportf "granule %d: bulk %b, per-granule %b" i
          (not b) b)
    bits;
  let painted = Array.fold_left (fun n b -> if b then n + 1 else n) 0 bits in
  if Revbits.painted_granules rev <> painted then
    QCheck.Test.fail_reportf "painted_granules %d, per-granule count %d"
      (Revbits.painted_granules rev)
      painted;
  true

let arb_revbits_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun rb ->
      Printf.sprintf "granule %d heap %d ops=[%s]" (1 lsl rb.rb_log2)
        rb.rb_heap_size
        (String.concat ";"
           (List.map
              (fun (p, o, l) ->
                Printf.sprintf "%s %d+%d" (if p then "paint" else "clear") o l)
              rb.rb_ops)))
    (let* log2 = 3 -- 5 and* heap_size = 1 -- 2048 in
     let* ops =
       list_size (1 -- 12)
         (triple bool (-64 -- (heap_size + 64))
            (frequency [ (2, 0 -- 64); (2, 64 -- 2200) ]))
     in
     return { rb_log2 = log2; rb_heap_size = heap_size; rb_ops = ops })

(* The software sweep skips untagged runs inside a batch.  The
   reference loads and checks every granule, and the batch charges are
   recomputed from the granule counts. *)

type sweep_case = {
  sw_layout : layout;
  sw_start : int;  (** byte offsets into the SRAM *)
  sw_stop : int;
  sw_batch : int;
}

let sw_sweep_agrees (sc : sweep_case) =
  let params = Core_model.params_of Core_model.Ibex in
  let bulk, rev_bulk = bulk_memory sc.sw_layout in
  let clock = Cheriot_rtos.Clock.create params in
  let sw =
    Cheriot_rtos.Sw_revoker.create ~batch_granules:sc.sw_batch ~sram:bulk
      ~rev:rev_bulk ~clock ()
  in
  let start = bulk_base + sc.sw_start and stop = bulk_base + sc.sw_stop in
  let batches = ref 0 in
  Cheriot_rtos.Sw_revoker.sweep sw ~on_batch_end:(fun () -> incr batches)
    ~start ~stop;
  let ref_mem, rev = bulk_memory sc.sw_layout in
  let invalidated = ref 0 and ref_batches = ref 0 and cycles = ref 0 in
  let cost = Cheriot_rtos.Sw_revoker.pair_cost params in
  let pos = ref (start land lnot 7) in
  while !pos < stop do
    let batch_end = min stop (!pos + (sc.sw_batch * 8)) in
    cycles := !cycles + ((((batch_end - !pos) / 8) + 1) / 2 * cost);
    incr ref_batches;
    while !pos < batch_end do
      let tag, word = Sram.read_cap ref_mem !pos in
      if
        tag
        && Revbits.is_revoked rev
             (Capability.base (Capability.of_word ~tag word))
      then begin
        Sram.write_cap ref_mem !pos (false, word);
        incr invalidated
      end;
      pos := !pos + 8
    done
  done;
  if
    Cheriot_rtos.Sw_revoker.invalidated sw <> !invalidated
    || Sram.digest bulk <> Sram.digest ref_mem
    || !batches <> !ref_batches
    || Cheriot_rtos.Clock.cycles clock <> !cycles
  then
    QCheck.Test.fail_reportf
      "sweeps differ: invalidated %d vs %d, batches %d vs %d, cycles %d vs \
       %d, memory %s"
      (Cheriot_rtos.Sw_revoker.invalidated sw)
      !invalidated !batches !ref_batches
      (Cheriot_rtos.Clock.cycles clock)
      !cycles
      (if Sram.digest bulk = Sram.digest ref_mem then "equal" else "differs");
  true

let arb_sweep_case =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun sc ->
      Printf.sprintf "%s sweep +0x%x..+0x%x batch %d" (print_layout sc.sw_layout)
        sc.sw_start sc.sw_stop sc.sw_batch)
    (let* layout = gen_layout in
     let* a = int_bound bulk_size and* b = int_bound bulk_size in
     let* batch = oneof [ 1 -- 8; 9 -- 300 ] in
     return
       { sw_layout = layout; sw_start = min a b; sw_stop = max a b;
         sw_batch = batch })

(* --- the assembled test family -------------------------------------------- *)

let arb_flat = Flatgen.arb_program Flatgen.gen_program
let arb_flat_smc = Flatgen.arb_program Flatgen.gen_program_smc

let arb_flat_seeded gen =
  QCheck.make
    ~print:(fun (ws, seed) ->
      Printf.sprintf "seed %d\n%s" seed (Boot.print_words ws))
    QCheck.Gen.(pair gen (int_bound 0x3FFF_FFFF))

let tests =
  [
    QCheck.Test.make
      ~name:
        "ref, cached, block, chain and jit dispatch agree on random streams"
      ~count:(Iters.count ~default:1000) arb_flat flat_lockstep;
    QCheck.Test.make
      ~name:"self-modifying streams agree on all five dispatch paths"
      ~count:(Iters.count ~default:400) arb_flat_smc
      (flat_lockstep ~writable_code:true);
    QCheck.Test.make
      ~name:"interrupt injection: all five paths deliver identically"
      ~count:(Iters.count ~default:200)
      (arb_flat_seeded Flatgen.gen_program)
      flat_interrupt_lockstep;
    QCheck.Test.make
      ~name:"interrupt injection over self-modifying streams"
      ~count:(Iters.count ~default:100)
      (arb_flat_seeded Flatgen.gen_program_smc)
      (flat_interrupt_lockstep ~writable_code:true);
  ]

let fuzz_tests =
  [
    QCheck.Test.make ~name:"no instruction stream amplifies authority"
      ~count:(Iters.count ~default:300) arb_flat flat_authority;
    QCheck.Test.make
      ~name:"no self-modifying stream amplifies authority"
      ~count:(Iters.count ~default:150) arb_flat_smc
      (flat_authority ~writable_code:true);
  ]

let scenario_tests =
  [
    QCheck.Test.make
      ~name:
        "multi-compartment scenarios: five dispatch paths agree under \
         interrupts, churn and patches"
      ~count:(Iters.count ~default:60)
      (Scenario.arb ())
      scenario_lockstep;
    QCheck.Test.make
      ~name:"multi-compartment scenarios: cycle models agree on every \
             dispatch variant"
      ~count:(Iters.count ~default:15)
      (Scenario.arb ())
      scenario_perf_agreement;
    QCheck.Test.make
      ~name:"multi-compartment scenarios: no execution amplifies the boot \
             authority envelope"
      ~count:(Iters.count ~default:40)
      (Scenario.arb ())
      scenario_authority;
    QCheck.Test.make
      ~name:"clean generated scenarios audit with zero findings"
      ~count:(Iters.count ~default:60)
      (Scenario.arb ~clean:true ())
      scenario_audits_clean;
    QCheck.Test.make
      ~name:"every jit check plan from a generated scenario verifies sound"
      ~count:(Iters.count ~default:40)
      (Scenario.arb ())
      scenario_plans_sound;
    QCheck.Test.make
      ~name:"compile-time plan validation is observationally free"
      ~count:(Iters.count ~default:25)
      (Scenario.arb ())
      scenario_validated_jit_agrees;
    QCheck.Test.make
      ~name:"Revoker.tick_n is bit-identical to the tick loop"
      ~count:(Iters.count ~default:100) arb_revoker_case
      revoker_tick_n_agrees;
    QCheck.Test.make
      ~name:"bulk micro-tag clears match the per-half clear"
      ~count:(Iters.count ~default:200) arb_clear_case microtag_clear_agrees;
    QCheck.Test.make
      ~name:"bytewise Revbits paint/clear match the per-granule bits"
      ~count:(Iters.count ~default:300) arb_revbits_case revbits_agree;
    QCheck.Test.make
      ~name:"the run-skipping software sweep matches the per-granule sweep"
      ~count:(Iters.count ~default:100) arb_sweep_case sw_sweep_agrees;
  ]
