(* Differential oracle for the decoded-instruction and basic-block
   translation caches.

   [Machine.step] is the reference interpreter: it re-reads and
   re-decodes the instruction word at the PC on every step.
   [Machine.step_fast] fetches through the decode cache and, on a
   validated hit, skips the fetch checks and the PC-advance
   representability check by installing precomputed results.  The block
   dispatch path ([Machine.run ~dispatch:Dispatch_block]) executes
   whole translated basic blocks with interrupt checks only at block
   boundaries and bookkeeping deferred across simple instructions; the
   chain path ([Dispatch_chain]) additionally follows direct
   block-to-block links and re-translates hot fall-dominated paths
   into superblocks; the jit path ([Dispatch_jit]) runs the chained
   rounds with per-block optimized check plans from [Ir.optimize].
   All five must be observationally indistinguishable.

   The lockstep drivers, interrupt-injection schedules and the
   state-comparison predicate live in [Cheriot_proptest]
   ({!Props.flat_lockstep}, {!Props.flat_interrupt_lockstep},
   {!Obs.compare_states}); this file is the property list, plus the
   deterministic lockstep over the coremark, allocator and
   packet-processing programs.  The multi-compartment versions —
   switcher cross-calls, allocator churn, revocation sweeps and code
   patches in the loop — run in the [proptest] suite. *)

open Cheriot_isa
module Props = Cheriot_proptest.Props
module Core_model = Cheriot_uarch.Core_model

(* The same oracle on deterministic programs with long traces: the
   coremark, allocator and packet-processing ISA programs on all five
   dispatch paths, equal retired counts and state hashes, every run
   halting within a fuel cap (a stuck PC in a fast tier is a failure,
   not a hang).  At the default hot threshold some program must form a
   superblock under the chain and jit tiers, and the optimizer must
   eliminate a check on some program under jit: a lockstep in which the
   trace heuristic or the optimizer never engages passes vacuously. *)
let programs =
  [
    ( "coremark",
      fun () ->
        Cheriot_workloads.Coremark.setup ~iterations:2
          (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex) );
    ( "alloc_bench",
      fun () -> Cheriot_workloads.Alloc_bench.isa_setup ~rounds:5 () );
    ("iot_app", fun () -> Cheriot_workloads.Iot_app.isa_setup ~packets:10 ());
  ]

(* Every fast tier at the default threshold, then chain and jit with an
   aggressive threshold that forms superblocks all over the hot loops.
   The engagement checks read the default-threshold runs only. *)
let tiers =
  Machine.
    [
      ("cached", Dispatch_cached, None);
      ("block", Dispatch_block, None);
      ("chain", Dispatch_chain, None);
      ("jit", Dispatch_jit, None);
      ("superblocks", Dispatch_chain, Some 2);
      ("jit superblocks", Dispatch_jit, Some 2);
    ]

let test_program_lockstep () =
  let run ?hot_threshold name setup dispatch =
    let m = setup () in
    (match hot_threshold with
    | Some t ->
        m.Machine.hot_threshold <- t;
        m.Machine.hot_adaptive <- false
    | None -> ());
    (match Machine.run ~fuel:50_000_000 ~dispatch m with
    | Machine.Step_halted, _ -> ()
    | _ -> Alcotest.failf "%s: did not halt within the fuel cap" name);
    (m.Machine.minstret, Machine.state_hash m, Machine.block_stats m)
  in
  let stats =
    List.concat_map
      (fun (name, setup) ->
        let ref_insns, ref_hash, _ = run name setup Machine.Dispatch_ref in
        List.map
          (fun (label, d, hot_threshold) ->
            let insns, hash, st = run ?hot_threshold name setup d in
            Alcotest.(check int)
              (Printf.sprintf "%s: retired instructions (%s)" name label)
              ref_insns insns;
            Alcotest.(check string)
              (Printf.sprintf "%s: state hash (%s)" name label)
              ref_hash hash;
            (label, st))
          tiers)
      programs
  in
  let some tier f =
    List.exists (fun (label, st) -> label = tier && f st > 0) stats
  in
  Alcotest.(check bool) "some program forms a superblock (chain)" true
    (some "chain" (fun s -> s.Machine.superblocks_formed));
  Alcotest.(check bool) "some program forms a superblock (jit)" true
    (some "jit" (fun s -> s.Machine.superblocks_formed));
  Alcotest.(check bool) "some program has a check eliminated (jit)" true
    (some "jit" (fun s -> s.Machine.checks_eliminated))

let suite =
  List.map QCheck_alcotest.to_alcotest Props.tests
  @ [
      Alcotest.test_case
        "coremark, alloc and iot traces match across dispatch paths" `Quick
        test_program_lockstep;
    ]
