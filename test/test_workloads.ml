(* Tests for the evaluation workloads: the CoreMark-shaped suite
   (Table 3), the allocation microbenchmark (Table 4 / Figs 5-6) and the
   IoT application (7.2.3).  These check the qualitative claims of the
   paper's evaluation — who wins, and in which direction each mechanism
   moves the numbers — and pin a sample of Table 4's absolute values. *)

module Core_model = Cheriot_uarch.Core_model
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app
module Allocator = Cheriot_rtos.Allocator

let cm ?(iterations = 3) core ~cheri ~filter =
  Coremark.run ~iterations (Core_model.config ~cheri ~load_filter:filter core)

let test_coremark_checksums_agree () =
  (* The capability build must compute exactly what the baseline does:
     source-level compatibility (paper 1). *)
  let rs =
    [
      cm Flute ~cheri:false ~filter:false;
      cm Flute ~cheri:true ~filter:false;
      cm Flute ~cheri:true ~filter:true;
      cm Ibex ~cheri:false ~filter:false;
      cm Ibex ~cheri:true ~filter:true;
    ]
  in
  match rs with
  | r0 :: rest ->
      List.iter
        (fun r ->
          Alcotest.(check int) "checksum" r0.Coremark.checksum
            r.Coremark.checksum)
        rest
  | [] -> assert false

let test_coremark_table3_shape () =
  let f_base = cm Flute ~cheri:false ~filter:false in
  let f_caps = cm Flute ~cheri:true ~filter:false in
  let f_filt = cm Flute ~cheri:true ~filter:true in
  let i_base = cm Ibex ~cheri:false ~filter:false in
  let i_caps = cm Ibex ~cheri:true ~filter:false in
  let i_filt = cm Ibex ~cheri:true ~filter:true in
  (* capabilities cost cycles on both cores *)
  Alcotest.(check bool) "Flute caps slower" true
    (f_caps.Coremark.cycles > f_base.Coremark.cycles);
  Alcotest.(check bool) "Ibex caps slower" true
    (i_caps.Coremark.cycles > i_base.Coremark.cycles);
  (* the load filter is free on Flute (hidden in the pipeline, Fig. 4) *)
  Alcotest.(check int) "Flute filter free" f_caps.Coremark.cycles
    f_filt.Coremark.cycles;
  (* ... and visible on Ibex (extra load-to-use on clc) *)
  Alcotest.(check bool) "Ibex filter costs" true
    (i_filt.Coremark.cycles > i_caps.Coremark.cycles);
  (* Ibex pays proportionally more for capabilities (narrow bus) *)
  let ovh c b =
    float_of_int (c.Coremark.cycles - b.Coremark.cycles)
    /. float_of_int b.Coremark.cycles
  in
  Alcotest.(check bool) "Ibex caps overhead > Flute's" true
    (ovh i_caps i_base > ovh f_caps f_base);
  (* instruction counts: same binary shape per ISA across cores *)
  Alcotest.(check int) "insns core-independent"
    f_caps.Coremark.instructions i_caps.Coremark.instructions

let test_coremark_deterministic () =
  let a = cm Flute ~cheri:true ~filter:true in
  let b = cm Flute ~cheri:true ~filter:true in
  Alcotest.(check int) "cycles deterministic" a.Coremark.cycles
    b.Coremark.cycles

(* Every Table 3 configuration charges the same cycles on every
   dispatch tier: the block tiers' retirement ring must price the load
   filter and capability memory traffic exactly as the per-step
   reference run does. *)
let test_coremark_tiers_agree () =
  let module Machine = Cheriot_isa.Machine in
  List.iter
    (fun (core, cheri, load_filter) ->
      let config = Core_model.config ~cheri ~load_filter core in
      let run dispatch = Coremark.run ~iterations:2 ~dispatch config in
      let r0 = run Machine.Dispatch_ref in
      List.iter
        (fun (name, dispatch) ->
          let r = run dispatch in
          let what f =
            Printf.sprintf "%s %s (%s)" (Core_model.config_name config) f name
          in
          Alcotest.(check int) (what "checksum") r0.Coremark.checksum
            r.Coremark.checksum;
          Alcotest.(check int) (what "cycles") r0.Coremark.cycles
            r.Coremark.cycles;
          Alcotest.(check int) (what "instructions") r0.Coremark.instructions
            r.Coremark.instructions)
        (List.filter
           (fun (_, d) -> d <> Machine.Dispatch_ref)
           Machine.dispatches))
    Core_model.
      [
        (Flute, false, false);
        (Flute, true, false);
        (Flute, true, true);
        (Ibex, false, false);
        (Ibex, true, false);
        (Ibex, true, true);
      ]

(* Smaller total so the property tests stay fast; the shapes hold at any
   churn volume. *)
let ab ?(total = 128 * 1024) core temporal hwm ~size =
  Alloc_bench.run ~total { Alloc_bench.core; temporal; hwm } ~size

let test_alloc_bench_ordering () =
  List.iter
    (fun size ->
      let base = ab Core_model.Flute Allocator.Baseline false ~size in
      let meta = ab Core_model.Flute Allocator.Metadata false ~size in
      let sw = ab Core_model.Flute Allocator.Software false ~size in
      let hw = ab Core_model.Flute Allocator.Hardware false ~size in
      Alcotest.(check bool)
        (Printf.sprintf "size %d: metadata costs more than baseline" size)
        true
        (meta.Alloc_bench.cycles >= base.Alloc_bench.cycles);
      Alcotest.(check bool)
        (Printf.sprintf "size %d: software >= metadata" size)
        true
        (sw.Alloc_bench.cycles >= meta.Alloc_bench.cycles);
      Alcotest.(check bool)
        (Printf.sprintf "size %d: hardware revoker beats software" size)
        true
        (hw.Alloc_bench.cycles <= sw.Alloc_bench.cycles))
    [ 64; 1024; 16384 ]

let test_alloc_bench_hwm_helps_small () =
  let base = ab Core_model.Flute Allocator.Baseline false ~size:32 in
  let hwm = ab Core_model.Flute Allocator.Baseline true ~size:32 in
  let saving =
    float_of_int (base.Alloc_bench.cycles - hwm.Alloc_bench.cycles)
    /. float_of_int base.Alloc_bench.cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "HWM saves ~10%% at 32B (got %.1f%%)" (100. *. saving))
    true
    (saving > 0.04 && saving < 0.2)

let test_alloc_bench_revocation_dominates_large () =
  let sw = ab Core_model.Flute Allocator.Software false ~size:65536 ~total:(256 * 1024) in
  Alcotest.(check bool) "sweeps happen" true (sw.Alloc_bench.sweeps > 0);
  Alcotest.(check bool) "revocation dominates at 64KiB" true
    (float_of_int sw.Alloc_bench.sweep_cycles
    > 0.5 *. float_of_int sw.Alloc_bench.cycles)

let test_alloc_bench_ibex_hwm_anomaly () =
  (* Paper 7.2.2: at 128 KiB on Ibex, Hardware+HWM is slower than
     Hardware alone — the two extra CSRs on every wait context switch. *)
  let hw = ab Core_model.Ibex Allocator.Hardware false ~size:131072 ~total:(1 lsl 20) in
  let hwm = ab Core_model.Ibex Allocator.Hardware true ~size:131072 ~total:(1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "HWM slower with hw revoker at 128KiB (%d vs %d)"
       hwm.Alloc_bench.cycles hw.Alloc_bench.cycles)
    true
    (hwm.Alloc_bench.cycles > hw.Alloc_bench.cycles)

let test_alloc_bench_deterministic () =
  let a = ab Core_model.Ibex Allocator.Hardware true ~size:4096 in
  let b = ab Core_model.Ibex Allocator.Hardware true ~size:4096 in
  Alcotest.(check int) "deterministic" a.Alloc_bench.cycles b.Alloc_bench.cycles

(* Exact results of every Table 4 configuration at 32 B on both cores,
   and of the threshold/16 ablation row, copied from
   perfbench/pinned.txt: a drift of one cycle anywhere on the allocator,
   switcher or revoker path fails here without running perfbench. *)
let table4_pins =
  Core_model.(Allocator.[
    ((Flute, Baseline, false), None, 32,
     "cycles=53018681 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=50331648 quarantine_peak=0");
    ((Flute, Metadata, false), None, 32,
     "cycles=53084217 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=50331648 quarantine_peak=0");
    ((Flute, Software, false), None, 32,
     "cycles=54522752 iterations=32768 sweeps=9 sweep_cycles=1474560 bytes_zeroed=50331648 quarantine_peak=131080");
    ((Flute, Hardware, false), None, 32,
     "cycles=53714516 iterations=32768 sweeps=9 sweep_cycles=666324 bytes_zeroed=50331648 quarantine_peak=131080");
    ((Flute, Baseline, true), None, 32,
     "cycles=48758845 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=19922944 quarantine_peak=0");
    ((Flute, Metadata, true), None, 32,
     "cycles=48824381 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=19922944 quarantine_peak=0");
    ((Flute, Software, true), None, 32,
     "cycles=50262916 iterations=32768 sweeps=9 sweep_cycles=1474560 bytes_zeroed=19922944 quarantine_peak=131080");
    ((Flute, Hardware, true), None, 32,
     "cycles=49457488 iterations=32768 sweeps=9 sweep_cycles=669132 bytes_zeroed=19922944 quarantine_peak=131080");
    ((Ibex, Baseline, false), None, 32,
     "cycles=59768923 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=50331648 quarantine_peak=0");
    ((Ibex, Metadata, false), None, 32,
     "cycles=59899995 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=50331648 quarantine_peak=0");
    ((Ibex, Software, false), None, 32,
     "cycles=63681451 iterations=32768 sweeps=9 sweep_cycles=3833856 bytes_zeroed=50331648 quarantine_peak=131080");
    ((Ibex, Hardware, false), None, 32,
     "cycles=61318663 iterations=32768 sweeps=9 sweep_cycles=1471068 bytes_zeroed=50331648 quarantine_peak=131080");
    ((Ibex, Baseline, true), None, 32,
     "cycles=51707999 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=19922944 quarantine_peak=0");
    ((Ibex, Metadata, true), None, 32,
     "cycles=51839071 iterations=32768 sweeps=0 sweep_cycles=0 bytes_zeroed=19922944 quarantine_peak=0");
    ((Ibex, Software, true), None, 32,
     "cycles=55620527 iterations=32768 sweeps=9 sweep_cycles=3833856 bytes_zeroed=19922944 quarantine_peak=131080");
    ((Ibex, Hardware, true), None, 32,
     "cycles=53268179 iterations=32768 sweeps=9 sweep_cycles=1481508 bytes_zeroed=19922944 quarantine_peak=131080");
    ((Flute, Hardware, true), Some (256 * 1024 / 16), 1024,
     "cycles=6451005 iterations=1024 sweeps=64 sweep_cycles=4758272 bytes_zeroed=622592 quarantine_peak=16512");
  ])

let test_alloc_bench_pins () =
  List.iter
    (fun ((core, temporal, hwm), threshold, size, expected) ->
      let config = { Alloc_bench.core; temporal; hwm } in
      let r = Alloc_bench.run ?threshold config ~size in
      Alcotest.(check string)
        (Printf.sprintf "%s %d B" (Alloc_bench.config_name config) size)
        expected
        (Printf.sprintf
           "cycles=%d iterations=%d sweeps=%d sweep_cycles=%d \
            bytes_zeroed=%d quarantine_peak=%d"
           r.Alloc_bench.cycles r.iterations r.sweeps r.sweep_cycles
           r.bytes_zeroed r.quarantine_peak))
    table4_pins

let test_iot_app () =
  let r = Iot_app.run ~seconds:3.0 () in
  Alcotest.(check bool)
    (Printf.sprintf "CPU load plausible (%.1f%%)" r.Iot_app.cpu_load_percent)
    true
    (r.Iot_app.cpu_load_percent > 8.0 && r.Iot_app.cpu_load_percent < 30.0);
  Alcotest.(check bool) "mostly idle" true (r.Iot_app.idle_percent > 70.0);
  Alcotest.(check bool) "js ticks ~100/s" true
    (abs (r.Iot_app.js_ticks - 300) < 30);
  Alcotest.(check bool) "packets flowed" true (r.Iot_app.packets > 10);
  let r2 = Iot_app.run ~seconds:3.0 () in
  Alcotest.(check (float 0.001)) "deterministic" r.Iot_app.cpu_load_percent
    r2.Iot_app.cpu_load_percent

let test_iot_app_software_revoker_variant () =
  (* The optional/ablation variant: same app with the software revoker
     still fits the real-time budget, just with more CPU load. *)
  let hw = Iot_app.run ~seconds:2.0 ~temporal:Allocator.Hardware () in
  let sw = Iot_app.run ~seconds:2.0 ~temporal:Allocator.Software () in
  Alcotest.(check bool) "software revoker costs more CPU" true
    (sw.Iot_app.cpu_load_percent >= hw.Iot_app.cpu_load_percent);
  Alcotest.(check bool) "still far from saturation" true
    (sw.Iot_app.cpu_load_percent < 50.0)

let suite =
  [
    Alcotest.test_case "coremark checksums agree across builds" `Quick
      test_coremark_checksums_agree;
    Alcotest.test_case "coremark Table 3 shape" `Quick
      test_coremark_table3_shape;
    Alcotest.test_case "coremark deterministic" `Quick
      test_coremark_deterministic;
    Alcotest.test_case "alloc bench config ordering" `Slow
      test_alloc_bench_ordering;
    Alcotest.test_case "HWM saves ~10% at small sizes" `Quick
      test_alloc_bench_hwm_helps_small;
    Alcotest.test_case "revocation dominates large sizes" `Quick
      test_alloc_bench_revocation_dominates_large;
    Alcotest.test_case "Ibex 128KiB HWM anomaly" `Slow
      test_alloc_bench_ibex_hwm_anomaly;
    Alcotest.test_case "alloc bench deterministic" `Quick
      test_alloc_bench_deterministic;
    Alcotest.test_case "IoT app ~17.5% CPU" `Quick test_iot_app;
    Alcotest.test_case "IoT app software-revoker variant" `Quick
      test_iot_app_software_revoker_variant;
    Alcotest.test_case "coremark Table 3 cycles agree on every tier" `Quick
      test_coremark_tiers_agree;
    Alcotest.test_case "Table 4 cells equal their pins" `Quick
      test_alloc_bench_pins;
  ]
