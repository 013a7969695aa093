(* The multi-compartment property family ([Cheriot_proptest.Props]):
   qcheck properties over generated scenarios — dispatch-path
   equivalence under injection, cycle-model agreement, authority
   monotonicity, auditor precision, revoker engine equivalence — plus a
   deterministic coverage self-check and pinned regressions for the
   corners the generator is designed to reach.

   The coverage check matters because an equivalence property over a
   generator that never forms a superblock or crosses a compartment
   boundary would pass vacuously: it generates a fixed batch of
   scenarios and asserts the aggregate execution really did chain
   blocks, form superblocks, take side exits, cross compartments and
   trap. *)

open Cheriot_isa
module Loader = Cheriot_rtos.Loader
module Scenario = Cheriot_proptest.Scenario
module Props = Cheriot_proptest.Props

let run_gen gen st = QCheck.Gen.generate1 ~rand:st gen

(* Generate a fixed batch of full-vocabulary scenarios and drive each
   one on a chain-dispatch machine with the property harness's tiny
   hot threshold; the aggregate block statistics must show every
   mechanism the equivalence properties claim to exercise. *)
let test_generator_coverage () =
  let st = Random.State.make [| 0x5eed |] in
  let stats = Hashtbl.create 8 in
  let bump k v =
    Hashtbl.replace stats k (v + try Hashtbl.find stats k with Not_found -> 0)
  in
  let comps_entered = ref 0 and traps = ref 0 in
  for _ = 1 to 40 do
    let sc = run_gen (Scenario.gen ()) st in
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    m.Machine.hot_threshold <- 2;
    let crossed = ref false in
    let trapped = ref false in
    let c1 =
      if l.Scenario.n > 1 then Some (Loader.find l.Scenario.t "c1") else None
    in
    ignore
      (Trace.run m ~fuel:4096 ~dispatch:Machine.Dispatch_chain ~f:(fun e ->
           (match c1 with
           | Some b ->
               let o = b.Loader.image.Asm.origin in
               if
                 e.Trace.tr_pc >= o
                 && e.Trace.tr_pc < o + (4 * Array.length b.Loader.image.Asm.words)
               then crossed := true
           | None -> ());
           match e.Trace.tr_result with
           | Machine.Step_trap _ -> trapped := true
           | _ -> ()));
    if !crossed then incr comps_entered;
    if !trapped then incr traps;
    let s = Machine.block_stats m in
    bump "chain_hits" s.Machine.chain_hits;
    bump "superblocks" s.Machine.superblocks_formed;
    bump "side_exits" s.Machine.side_exits;
    bump "invalidations" s.Machine.block_invalidations
  done;
  let get k = try Hashtbl.find stats k with Not_found -> 0 in
  Alcotest.(check bool) "scenarios chain block transfers" true
    (get "chain_hits" > 0);
  Alcotest.(check bool) "scenarios form superblocks" true
    (get "superblocks" > 0);
  Alcotest.(check bool) "scenarios take superblock side exits" true
    (get "side_exits" > 0);
  Alcotest.(check bool) "scenario stores invalidate translated blocks" true
    (get "invalidations" > 0);
  Alcotest.(check bool) "scenarios cross compartment boundaries" true
    (!comps_entered > 0);
  Alcotest.(check bool) "scenarios trap" true (!traps > 0)

(* The tiers of [Machine.dispatches] with the given command-line names. *)
let tiers names =
  List.filter (fun (name, _) -> List.mem name names) Machine.dispatches

(* Pinned regression: a timer interrupt armed while a superblock is hot
   must be delivered at exactly the same retired-instruction boundary on
   every dispatch path — on chain and jit the delivery point is a
   superblock side exit, the corner DESIGN.md §10 argues correct. *)
let test_interrupt_at_superblock_boundary () =
  let sc = { Scenario.bodies = [ [ Fall_loop 7; Fall_loop 3; Arith 1 ] ];
             seed = 0 } in
  let machines =
    List.map
      (fun (name, d) ->
        let l = Scenario.link ~instrument:true sc in
        let m = l.Scenario.t.Loader.machine in
        m.Machine.hot_threshold <- 2;
        (name, d, m))
      Machine.dispatches
  in
  let _, _, ref_m = List.hd machines in
  let batch = ref 0 in
  let interrupted = ref false in
  let finished = ref false in
  while not !finished do
    incr batch;
    if !batch = 3 then
      (* arm the timer mid-run: by now the fall loop is hot and the
         chain and jit machines are executing a formed superblock *)
      List.iter
        (fun (_, _, (m : Machine.t)) ->
          m.Machine.mtimecmp <- 1;
          m.Machine.mcycle <- 1)
        machines;
    let runs =
      List.map
        (fun (name, d, m) ->
          let r = Machine.run ~fuel:5 ~dispatch:d m in
          (name, r, Machine.state_hash m))
        machines
    in
    if ref_m.Machine.mcause land 0x8000_0000 <> 0 then interrupted := true;
    let _, r_ref, h_ref = List.hd runs in
    List.iter
      (fun (name, r, h) ->
        Alcotest.(check bool)
          (Printf.sprintf "batch %d: same result and retired count (%s)" !batch
             name)
          true (r = r_ref);
        Alcotest.(check string)
          (Printf.sprintf "batch %d: same state hash (%s)" !batch name)
          h_ref h)
      runs;
    match fst r_ref with
    | Machine.Step_halted | Machine.Step_double_fault | Machine.Step_waiting ->
        finished := true
    | _ -> if !batch > 200 then finished := true
  done;
  Alcotest.(check bool) "an interrupt was delivered" true !interrupted;
  List.iter
    (fun (name, _, m) ->
      if List.mem name [ "chain"; "jit" ] then
        Alcotest.(check bool) ("a superblock had formed on " ^ name) true
          ((Machine.block_stats m).Machine.superblocks_formed >= 1))
    machines

(* Pinned regression: a cross-compartment code patch — compartment c1
   storing over c0's patchable instruction through its granted window —
   must invalidate c0's already-translated block on every translating
   tier (the store snoop crossing compartment boundaries), with final
   state identical to the reference interpreter. *)
let test_cross_compartment_patch_snoop () =
  let sc =
    { Scenario.bodies = [ [ Call 0; Arith 1 ]; [ Patch 0; Arith 2 ] ];
      seed = 0 }
  in
  let run dispatch =
    let l = Scenario.link ~instrument:true sc in
    let m = l.Scenario.t.Loader.machine in
    let r, n = Machine.run ~fuel:4096 ~dispatch m in
    (r, n, Machine.state_hash m, Machine.block_stats m)
  in
  let r0, n0, h0, _ = run Machine.Dispatch_ref in
  Alcotest.(check bool) "reference halts" true (r0 = Machine.Step_halted);
  List.iter
    (fun (name, d) ->
      let r, n, h, s = run d in
      Alcotest.(check bool) (name ^ ": same result") true (r = r0);
      Alcotest.(check int) (name ^ ": same retired count") n0 n;
      Alcotest.(check string) (name ^ ": same state hash") h0 h;
      Alcotest.(check bool) (name ^ ": the patch store invalidated a block")
        true
        (s.Machine.block_invalidations >= 1))
    (tiers [ "block"; "chain"; "jit" ])

(* Pinned regression: recorded rounds (what [Trace.run] drives) run the
   same executor as the lockstep properties, but rebuild the retirement
   ring from its segments, and a side exit ends a segment.  A traced
   run over a superblock-forming scenario, on each tier that forms
   superblocks, must land on the reference state and emit exactly one
   ring entry per retired instruction, and must actually have taken a
   side exit — without this, a ring that drops or repeats the entries
   around a side exit is invisible to every other equivalence check. *)
let test_traced_superblock_matches_reference () =
  let sc =
    { Scenario.bodies = [ [ Fall_loop 7; Arith 5; Fall_loop 2 ] ]; seed = 0 }
  in
  let mk () =
    let l = Scenario.link ~instrument:true sc in
    l.Scenario.t.Loader.machine
  in
  let ref_m = mk () in
  let _, n_ref = Machine.run ~fuel:4096 ~dispatch:Machine.Dispatch_ref ref_m in
  List.iter
    (fun (name, dispatch) ->
      let m = mk () in
      m.Machine.hot_threshold <- 2;
      let entries = ref 0 in
      ignore (Trace.run m ~fuel:4096 ~dispatch ~f:(fun _ -> incr entries));
      let what f = Printf.sprintf "%s (%s)" f name in
      Alcotest.(check int) (what "traced run retires the reference count")
        n_ref !entries;
      Alcotest.(check string) (what "traced run lands on the reference state")
        (Machine.state_hash ref_m) (Machine.state_hash m);
      let s = Machine.block_stats m in
      Alcotest.(check bool) (what "the traced run formed a superblock") true
        (s.Machine.superblocks_formed >= 1);
      Alcotest.(check bool) (what "the traced run took a side exit") true
        (s.Machine.side_exits >= 1))
    (tiers [ "chain"; "jit" ])

(* Pinned regression: the generator shook this scenario out of
   [scenario_lockstep].  [Allocator.revoke_now] used to sweep only
   [heap_base, heap_end), so the stale heap capability this program
   leaves in c1's globals survived revocation; after the chunk was
   released and coalesced, the guest's [Heap_rw] store through the
   stale cap zeroed the free chunk's boundary tag and a later backward
   coalesce crashed the allocator.  With the sweep covering the whole
   SRAM the stale copy is untagged, the store traps — identically on
   every dispatch path — and the property must hold. *)
let test_stale_global_cap_scenario () =
  let sc =
    { Scenario.bodies = [ [ Call 0 ]; [ Heap_rw 7; Call 0 ]; []; [] ];
      seed = 582252 }
  in
  Alcotest.(check bool) "lockstep holds on the shaken-out scenario" true
    (Props.scenario_lockstep sc)

let suite =
  List.map QCheck_alcotest.to_alcotest Props.scenario_tests
  @ [
      Alcotest.test_case "generated scenarios reach every claimed mechanism"
        `Quick test_generator_coverage;
      Alcotest.test_case "interrupt delivery at a superblock boundary" `Quick
        test_interrupt_at_superblock_boundary;
      Alcotest.test_case "cross-compartment patch store is snooped" `Quick
        test_cross_compartment_patch_snoop;
      Alcotest.test_case "traced superblock run matches the reference" `Quick
        test_traced_superblock_matches_reference;
      Alcotest.test_case "stale cap in compartment globals is revoked" `Quick
        test_stale_global_cap_scenario;
    ]
