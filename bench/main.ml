(* The benchmark harness: regenerates every table and figure in the
   paper's evaluation (section 7) from the simulator, side by side with
   the published numbers, plus the DESIGN.md ablations and a Bechamel
   wall-clock microbenchmark of the simulator itself.

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table1|table2|table3|table4|fig5|fig6|iot|ablations|micro
*)

module Core_model = Cheriot_uarch.Core_model
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app
module Allocator = Cheriot_rtos.Allocator
module Gates = Cheriot_area.Gates

let section title = Format.printf "@.=== %s ===@.@." title

(* --- Table 1 / Fig 2: the permission ontology ------------------------- *)

let table1 () =
  section "Table 1 / Fig. 2 -- permissions and their compressed encoding";
  Format.printf "%-6s %-12s %s@." "bits" "format" "decoded set";
  for bits = 0 to 63 do
    let s = Cheriot_core.Perm.decode bits in
    match Cheriot_core.Perm.format_of s with
    | Some fmt when Cheriot_core.Perm.encode s = Some bits ->
        let fmt_name =
          match fmt with
          | Cheriot_core.Perm.Mem_cap_rw -> "mem-cap-rw"
          | Mem_cap_ro -> "mem-cap-ro"
          | Mem_cap_wo -> "mem-cap-wo"
          | Mem_no_cap -> "mem-no-cap"
          | Executable -> "executable"
          | Sealing -> "sealing"
        in
        Format.printf "0x%02x   %-12s %a@." bits fmt_name
          Cheriot_core.Perm.Set.pp s
    | _ -> ()
  done;
  Format.printf
    "@.(every 6-bit value decodes, no redundant encodings; EX+SD is \
     unrepresentable: W^X in hardware)@."

(* --- Table 2 ----------------------------------------------------------- *)

let paper_table2 =
  [
    ("RV32E", 26988, 1.437);
    ("RV32E + PMP16", 55905, 2.16);
    ("RV32E + capabilities", 58110, 2.58);
    ("  + load filter", 58431, 2.58);
    ("    + background revoker", 61422, 2.73);
  ]

let table2 () =
  section "Table 2 -- area and power of Ibex variants (TSMC 28nm, 300 MHz)";
  Format.printf "%-28s %22s %24s@." "" "gates (paper)" "power mW (paper)";
  List.iter2
    (fun (name, gates, ratio, p, pr) (_, pg, pp_) ->
      Format.printf "%-28s %8d (%6d) %5.2fx   %6.3f (%5.3f) %5.2fx@." name
        gates pg ratio p pp_ pr)
    (Gates.table2 ()) paper_table2;
  Format.printf "@.f_max: %d MHz for all variants@." (Gates.fmax_mhz 0)

(* --- Table 3 ----------------------------------------------------------- *)

let paper_table3 =
  [
    ("Flute RV32E", 2.017, 0.0);
    ("Flute +capabilities", 1.892, 5.73);
    ("Flute +load filter", 1.892, 5.73);
    ("Ibex RV32E", 2.086, 0.0);
    ("Ibex +capabilities", 1.811, 13.18);
    ("Ibex +load filter", 1.624, 21.28);
  ]

let table3 () =
  section "Table 3 -- CoreMark/MHz";
  Coremark.calibrate ();
  let configs =
    [
      Core_model.config ~cheri:false Flute;
      Core_model.config ~cheri:true ~load_filter:false Flute;
      Core_model.config ~cheri:true ~load_filter:true Flute;
      Core_model.config ~cheri:false Ibex;
      Core_model.config ~cheri:true ~load_filter:false Ibex;
      Core_model.config ~cheri:true ~load_filter:true Ibex;
    ]
  in
  let results = List.map Coremark.run configs in
  let base_flute = (List.nth results 0).Coremark.score in
  let base_ibex = (List.nth results 3).Coremark.score in
  Format.printf "%-24s %8s %10s %14s %12s@." "" "score" "overhead"
    "paper score" "paper ovh";
  List.iteri
    (fun i r ->
      let name, pscore, povh = List.nth paper_table3 i in
      let base = if i < 3 then base_flute else base_ibex in
      let ovh = 100.0 *. (base -. r.Coremark.score) /. base in
      Format.printf "%-24s %8.3f %9.2f%% %14.3f %11.2f%%@." name
        r.Coremark.score ovh pscore povh)
    results;
  let c0 = (List.nth results 0).Coremark.checksum in
  assert (List.for_all (fun r -> r.Coremark.checksum = c0) results);
  Format.printf
    "@.(all six configurations compute identical checksums: 0x%x)@." c0

(* --- Table 4 / Figs 5-6 ------------------------------------------------ *)

let alloc_configs hwm =
  [
    (Allocator.Baseline, hwm);
    (Allocator.Metadata, hwm);
    (Allocator.Software, hwm);
    (Allocator.Hardware, hwm);
  ]

let run_alloc_table core =
  List.map
    (fun size ->
      let row =
        List.map
          (fun (temporal, hwm) ->
            Alloc_bench.run { Alloc_bench.core; temporal; hwm } ~size)
          (alloc_configs false @ alloc_configs true)
      in
      (size, row))
    Alloc_bench.paper_sizes

let print_alloc_table core =
  let tbl = run_alloc_table core in
  Format.printf "%-8s %10s %10s %10s %10s %10s %10s %10s %10s@." "size"
    "Baseline" "Metadata" "Software" "Hardware" "Base(S)" "Meta(S)" "Soft(S)"
    "Hard(S)";
  List.iter
    (fun (size, row) ->
      Format.printf "%-8d" size;
      List.iter (fun r -> Format.printf " %10d" r.Alloc_bench.cycles) row;
      Format.printf "@.")
    tbl;
  tbl

let table4 () =
  section "Table 4 -- cycles to allocate 1 MiB of heap at different sizes";
  Format.printf "--- Flute ---@.";
  let f = print_alloc_table Core_model.Flute in
  Format.printf "@.--- Ibex ---@.";
  let i = print_alloc_table Core_model.Ibex in
  (f, i)

let print_overheads tbl =
  Format.printf "%-8s %10s %10s %10s %10s %10s %10s %10s@." "size" "Metadata"
    "Software" "Hardware" "Base(S)" "Meta(S)" "Soft(S)" "Hard(S)";
  List.iter
    (fun (size, row) ->
      match row with
      | base :: rest ->
          Format.printf "%-8d" size;
          List.iter
            (fun r ->
              Format.printf " %9.1f%%"
                (Alloc_bench.overhead_vs_baseline ~baseline:base r))
            rest;
          Format.printf "@."
      | [] -> ())
    tbl

let fig56 core name tbl =
  section
    (Printf.sprintf
       "Fig. %s -- allocator overhead vs baseline (no temporal safety), %s"
       name (Core_model.name core));
  print_overheads tbl

(* --- end-to-end IoT application ---------------------------------------- *)

let iot () =
  section "Section 7.2.3 -- end-to-end IoT application (Ibex @ 20 MHz, 60 s)";
  let r = Iot_app.run ~seconds:60.0 () in
  Format.printf
    "CPU load: %.1f%% (paper: 17.5%%); idle thread: %.1f%% (paper: 82.5%%)@."
    r.Iot_app.cpu_load_percent r.Iot_app.idle_percent;
  Format.printf
    "packets: %d  JS frames: %d  heap allocations: %d  revocation sweeps: \
     %d  context switches: %d@."
    r.Iot_app.packets r.Iot_app.js_ticks r.Iot_app.allocations
    r.Iot_app.sweeps r.Iot_app.context_switches

(* --- ablations (DESIGN.md section 5) ------------------------------------ *)

let ablations () =
  section "Ablation: background revoker pipelining (3.3.3)";
  let sweep pipelined =
    let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:(256 * 1024) in
    let rev =
      Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024) ()
    in
    let r =
      Cheriot_uarch.Revoker.create ~pipelined ~core:Core_model.Flute ~sram
        ~rev ()
    in
    Cheriot_uarch.Revoker.kick r ~start:0x80000 ~stop:(0x80000 + (256 * 1024));
    Cheriot_uarch.Revoker.run_to_completion r
  in
  let one = sweep false and two = sweep true in
  Format.printf
    "256 KiB sweep: 1-stage %d cycles, 2-stage %d cycles (%.2fx speedup)@."
    one two
    (float_of_int one /. float_of_int two);

  section "Ablation: quarantine threshold (sweep frequency vs memory)";
  List.iter
    (fun frac ->
      let threshold = 256 * 1024 / frac in
      let r =
        Alloc_bench.run_with_threshold
          {
            Alloc_bench.core = Core_model.Flute;
            temporal = Allocator.Hardware;
            hwm = true;
          }
          ~size:1024 ~threshold
      in
      Format.printf
        "threshold heap/%-2d (%3d KiB): %9d cycles, %3d sweeps, quarantine \
         peak %d KiB@."
        frac (threshold / 1024) r.Alloc_bench.cycles r.Alloc_bench.sweeps
        (r.Alloc_bench.quarantine_peak / 1024))
    [ 2; 4; 8; 16 ];

  section "Ablation: revocation granule size (3.3.1)";
  List.iter
    (fun granule_log2 ->
      let heap = 256 * 1024 in
      let rev =
        Cheriot_mem.Revbits.create ~granule_log2 ~heap_base:0 ~heap_size:heap
          ()
      in
      let bitmap = Cheriot_mem.Revbits.bitmap_bytes rev in
      Format.printf
        "granule %2d B: bitmap %5d B (%.2f%% of heap), min allocation slack \
         %d B@."
        (1 lsl granule_log2) bitmap
        (100.0 *. float_of_int bitmap /. float_of_int heap)
        ((1 lsl granule_log2) - 8))
    [ 3; 4; 5 ];

  section "Ablation: software revoker batch size (real-time latency, 2.1)";
  List.iter
    (fun batch ->
      let params = Core_model.params_of Core_model.Flute in
      let clock = Cheriot_rtos.Clock.create params in
      let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:(256 * 1024) in
      let rev =
        Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:(256 * 1024)
          ()
      in
      let sw =
        Cheriot_rtos.Sw_revoker.create ~batch_granules:batch ~sram ~rev ~clock
          ()
      in
      let batches = ref 0 in
      let worst = ref 0 in
      let last = ref 0 in
      Cheriot_rtos.Sw_revoker.sweep sw
        ~on_batch_end:(fun () ->
          incr batches;
          let now = Cheriot_rtos.Clock.cycles clock in
          worst := max !worst (now - !last);
          last := now)
        ~start:0x80000
        ~stop:(0x80000 + (256 * 1024));
      Format.printf
        "batch %5d granules: %3d preemption points, worst \
         interrupts-disabled window %6d cycles@."
        batch !batches !worst)
    [ 32; 128; 512; 4096 ]

(* --- Bechamel microbenchmarks of the simulator itself ------------------- *)

let micro () =
  section "Bechamel -- wall-clock microbenchmarks of the simulator";
  let open Bechamel in
  let cap = Cheriot_core.Capability.root_mem_rw in
  let word = Cheriot_core.Capability.to_word cap in
  (* one Test.make per table: the dominant simulator primitive behind
     each experiment *)
  let t_decode =
    Test.make ~name:"table1: cap of_word+to_word"
      (Staged.stage (fun () ->
           Cheriot_core.Capability.(to_word (of_word ~tag:true word))))
  in
  let t_gates =
    Test.make ~name:"table2: area/power model"
      (Staged.stage (fun () -> Gates.table2 ()))
  in
  let mk_machine () =
    let bus = Cheriot_mem.Bus.create () in
    let sram = Cheriot_mem.Sram.create ~base:0x10000 ~size:0x1000 in
    Cheriot_mem.Bus.add_sram bus sram;
    let img =
      Cheriot_isa.Asm.assemble ~origin:0x10000
        [
          Cheriot_isa.Asm.Label "loop";
          Cheriot_isa.Asm.I (Cheriot_isa.Insn.Op_imm (Add, 10, 10, 1));
          Cheriot_isa.Asm.J (0, "loop");
        ]
    in
    Cheriot_isa.Asm.load img sram;
    let m = Cheriot_isa.Machine.create bus in
    m.Cheriot_isa.Machine.pcc <-
      Cheriot_core.Capability.(
        set_bounds (with_address root_executable 0x10000) ~length:0x100
          ~exact:false);
    m
  in
  let m = mk_machine () in
  let t_step =
    Test.make ~name:"table3: machine step"
      (Staged.stage (fun () -> ignore (Cheriot_isa.Machine.step m)))
  in
  let t_alloc =
    let params = Core_model.params_of Core_model.Flute in
    let clock = Cheriot_rtos.Clock.create params in
    let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:0x40000 in
    let rev =
      Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:0x40000 ()
    in
    let alloc =
      Allocator.create ~temporal:Allocator.Baseline ~sram ~rev ~clock
        ~heap_base:0x80000 ~heap_size:0x40000 ()
    in
    Test.make ~name:"table4: malloc+free pair"
      (Staged.stage (fun () ->
           match Allocator.malloc alloc 64 with
           | Ok c -> ignore (Allocator.free alloc c)
           | Error _ -> ()))
  in
  let t_sweep =
    let sram = Cheriot_mem.Sram.create ~base:0x80000 ~size:0x10000 in
    let rev =
      Cheriot_mem.Revbits.create ~heap_base:0x80000 ~heap_size:0x10000 ()
    in
    let r = Cheriot_uarch.Revoker.create ~core:Core_model.Flute ~sram ~rev () in
    Test.make ~name:"fig5/6: 64 KiB revoker sweep"
      (Staged.stage (fun () ->
           Cheriot_uarch.Revoker.kick r ~start:0x80000 ~stop:0x90000;
           ignore (Cheriot_uarch.Revoker.run_to_completion r)))
  in
  let tests =
    Test.make_grouped ~name:"cheriot-sim"
      [ t_decode; t_gates; t_step; t_alloc; t_sweep ]
  in
  let raw =
    Benchmark.all
      (Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ())
      Toolkit.Instance.[ monotonic_clock ]
      tests
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-40s %12.1f ns/op@." name est
      | Some _ | None -> Format.printf "%-40s (no estimate)@." name)
    (List.sort compare rows)

(* --- dispatch-tier differential benchmark ------------------------------- *)

module Machine = Cheriot_isa.Machine

(* Runs each workload to completion under all five dispatch tiers on
   fresh machines, so the cached and block tiers pay their cold-miss
   cost every time, and asserts that every tier retires the same number
   of instructions and reaches bit-identical architectural state.  The
   tiers are timed interleaved (one run of each tier per repetition):
   host speed drifts over seconds, and interleaving exposes every tier
   to the same drift instead of charging it to whichever ran last.
   Reports min and median wall seconds (monotonic clock) per tier, plus
   each tier's own counters.  Also fails the run if no workload forms a
   superblock under the chain and jit tiers or eliminates a check under
   the jit tier — the trace heuristic or the optimizer never engaging
   is a regression, not a neutral result.  Writes
   BENCH_dispatch{,_smoke}.json. *)

let tiers =
  Machine.
    [
      ("reference", Dispatch_ref);
      ("cached", Dispatch_cached);
      ("block", Dispatch_block);
      ("chain", Dispatch_chain);
      ("jit", Dispatch_jit);
    ]

let runs = 5

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Bounded: a divergence bug in a fast tier could leave the PC stuck,
   and the CI gate must fail on that, not hang. *)
let run_tier ~mk dispatch =
  let m = mk () in
  let t0 = now () in
  (match Machine.run ~fuel:50_000_000 ~dispatch m with
  | Machine.Step_halted, _ -> ()
  | Machine.Step_waiting, _ -> failwith "dispatch: workload hit WFI"
  | Machine.Step_double_fault, _ -> failwith "dispatch: double fault"
  | (Machine.Step_ok | Machine.Step_trap _), _ ->
      failwith "dispatch: workload ran out of fuel");
  (now () -. t0, m)

type tier_result = {
  tr_name : string;
  tr_dispatch : Machine.dispatch;
  tr_insns : int;
  tr_hash : string;
  tr_min : float;
  tr_median : float;
  tr_machine : Machine.t;  (* the last run's machine, for its counters *)
}

let time_tiers ~mk =
  let tiers = Array.of_list tiers in
  let times = Array.map (fun _ -> Array.make runs 0.0) tiers in
  let last = Array.map (fun _ -> None) tiers in
  for k = 0 to runs - 1 do
    Array.iteri
      (fun i (_, d) ->
        let dt, m = run_tier ~mk d in
        times.(i).(k) <- dt;
        last.(i) <- Some m)
      tiers
  done;
  Array.to_list
    (Array.mapi
       (fun i (name, d) ->
         let ts = times.(i) in
         Array.sort compare ts;
         let m = Option.get last.(i) in
         {
           tr_name = name;
           tr_dispatch = d;
           tr_insns = m.Machine.minstret;
           tr_hash = Machine.state_hash m;
           tr_min = ts.(0);
           tr_median = ts.(runs / 2);
           tr_machine = m;
         })
       tiers)

(* The counters each tier owns, as JSON fields. *)
let tier_counters t =
  let m = t.tr_machine in
  let d = Machine.decode_stats m and s = Machine.block_stats m in
  let ints = List.map (fun (k, v) -> (k, string_of_int v)) in
  match t.tr_dispatch with
  | Machine.Dispatch_ref -> []
  | Dispatch_cached ->
      ints
        [
          ("decode_hits", d.Cheriot_isa.Decode_cache.hits);
          ("decode_misses", d.misses);
          ("decode_invalidations", d.invalidations);
        ]
  | Dispatch_block ->
      ints
        [
          ("block_hits", s.Machine.block_hits);
          ("block_misses", s.block_misses);
          ("block_invalidations", s.block_invalidations);
          ("block_aborts", s.block_aborts);
          ("blocks_filled", s.blocks_filled);
        ]
      @ [ ("avg_block_len", Printf.sprintf "%.2f" (Machine.avg_block_len s)) ]
  | Dispatch_chain ->
      ints
        [
          ("chain_hits", s.chain_hits);
          ("chain_unlinks", s.chain_unlinks);
          ("superblocks_formed", s.superblocks_formed);
          ("side_exits", s.side_exits);
        ]
  | Dispatch_jit ->
      ints
        [
          ("superblocks_formed", s.superblocks_formed);
          ("jit_blocks_compiled", s.jit_blocks_compiled);
          ("checks_eliminated", s.checks_eliminated);
          ("checks_hoisted", s.checks_hoisted);
          ("checks_hoisted_nonentry", s.checks_hoisted_nonentry);
          ("dead_bookkeeping_removed", s.dead_bookkeeping_removed);
          ("opt_side_exits", s.opt_side_exits);
          ("jit_plans_rejected", s.jit_plans_rejected);
        ]

let tier_json t =
  Printf.sprintf
    "%S: {\"instructions\": %d, \"min_seconds\": %.6f, \"median_seconds\": \
     %.6f, \"insns_per_sec\": %.0f%s}"
    t.tr_name t.tr_insns t.tr_min t.tr_median
    (float_of_int t.tr_insns /. max 1e-9 t.tr_min)
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ", %S: %s" k v) (tier_counters t)))

let dispatch_bench ?(smoke = false) () =
  section
    (if smoke then "dispatch -- smoke (reduced workloads)"
     else "dispatch -- every dispatch tier, interleaved");
  let workloads =
    [
      ( "coremark",
        fun () ->
          Coremark.setup
            ~iterations:(if smoke then 2 else 40)
            (Core_model.config ~cheri:true ~load_filter:true Core_model.Ibex)
      );
      ( "alloc_bench",
        fun () -> Alloc_bench.isa_setup ~rounds:(if smoke then 5 else 400) ()
      );
      ( "iot_app",
        fun () -> Iot_app.isa_setup ~packets:(if smoke then 10 else 1500) ()
      );
    ]
  in
  Format.printf "%-12s %12s" "workload" "insns";
  List.iter (fun (n, _) -> Format.printf " %13s" (n ^ " Mi/s")) tiers;
  Format.printf " %7s@." "match";
  let diverged = ref false in
  let rows =
    List.map
      (fun (name, mk) ->
        let ts = time_tiers ~mk in
        let r = List.hd ts in
        let ok =
          List.for_all
            (fun t -> t.tr_insns = r.tr_insns && t.tr_hash = r.tr_hash)
            ts
        in
        if not ok then begin
          diverged := true;
          Format.eprintf "DIVERGENCE on %s:%s@." name
            (String.concat ""
               (List.map
                  (fun t -> Printf.sprintf " %s %d/%s" t.tr_name t.tr_insns t.tr_hash)
                  ts))
        end;
        Format.printf "%-12s %12d" name r.tr_insns;
        List.iter
          (fun t ->
            Format.printf " %13.2f"
              (float_of_int t.tr_insns /. max 1e-9 t.tr_min /. 1e6))
          ts;
        Format.printf " %7s@." (if ok then "yes" else "NO");
        (name, ts, ok))
      workloads
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"bench\": \"dispatch\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"clock\": \"monotonic\",\n  \"runs\": %d,\n\
       \  \"workloads\": [\n"
       smoke runs);
  List.iteri
    (fun i (name, ts, ok) ->
      Buffer.add_string buf
        (Printf.sprintf "    {\"name\": %S, \"state_match\": %b,\n     \"tiers\": {\n%s}}%s\n"
           name ok
           (String.concat ",\n"
              (List.map (fun t -> "       " ^ tier_json t) ts))
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  (* The smoke run is a CI divergence gate, not a performance claim: keep
     it from clobbering the full-size numbers. *)
  let file =
    if smoke then "BENCH_dispatch_smoke.json" else "BENCH_dispatch.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if !diverged then begin
    prerr_endline "dispatch: dispatch tiers diverged";
    exit 1
  end;
  let some tier f =
    List.exists
      (fun (_, ts, _) ->
        List.exists
          (fun t -> t.tr_name = tier && f (Machine.block_stats t.tr_machine) > 0)
          ts)
      rows
  in
  List.iter
    (fun tier ->
      if not (some tier (fun s -> s.Machine.superblocks_formed)) then begin
        Printf.eprintf "dispatch: no workload formed any superblock (%s)\n" tier;
        exit 1
      end)
    [ "chain"; "jit" ];
  if not (some "jit" (fun s -> s.Machine.checks_eliminated)) then begin
    prerr_endline "dispatch: optimizer eliminated no checks on any workload";
    exit 1
  end

(* --- static auditor timing ------------------------------------------------ *)

(* Times a full Audit.run (CFG recovery + interprocedural fixpoint +
   linkage checks) over each shipped image, so auditor slowdowns show up
   in the perf trajectory alongside the simulator benches.  Doubles as a
   gate: shipped images must stay clean. *)
let audit_bench ?(smoke = false) () =
  section
    (if smoke then "audit -- smoke (static auditor fixpoint timing)"
     else "audit -- static auditor fixpoint timing");
  let runs = if smoke then 2 else 5 in
  Format.printf "%-12s %12s %10s@." "image" "seconds" "findings";
  let rows =
    List.map
      (fun (name, build) ->
        let t = build () in
        let findings = Cheriot_analysis.Audit.run t in
        let best = ref infinity in
        for _ = 1 to runs do
          let t0 = Sys.time () in
          ignore (Cheriot_analysis.Audit.run t);
          let dt = Sys.time () -. t0 in
          if dt < !best then best := dt
        done;
        Format.printf "%-12s %12.6f %10d@." name !best (List.length findings);
        (name, !best, List.length findings))
      Cheriot_workloads.Firmware.shipped
  in
  let total = List.fold_left (fun a (_, s, _) -> a +. s) 0. rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"audit\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"images\": [\n" smoke);
  List.iteri
    (fun i (name, secs, nf) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"seconds\": %.6f, \"findings\": %d}%s\n" name
           secs nf
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"total_seconds\": %.6f\n}\n" total);
  let file = if smoke then "BENCH_audit_smoke.json" else "BENCH_audit.json" in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if List.exists (fun (_, _, nf) -> nf > 0) rows then begin
    prerr_endline "audit: findings on shipped images";
    exit 1
  end

(* --- incremental (summary-cache) audit timing ----------------------------- *)

(* Times a cold audit sweep over a fleet of near-identical images (the
   coremark compartment plus a per-variant sensor compartment,
   Firmware.fleet) against the same sweep through a shared summary
   cache: the expensive coremark fixpoint is re-analyzed once, every
   further image re-analyzes only its one-instruction-different sensor.
   Doubles as a gate: every warm report must be byte-identical to its
   cold counterpart, the cache must actually hit, and (full mode) the
   cached sweep must be at least 2x faster.  Writes
   BENCH_audit_incremental*.json. *)
let audit_incremental_bench ?(smoke = false) () =
  section
    (if smoke then "audit_incremental -- smoke (summary-cache sweep timing)"
     else "audit_incremental -- summary-cache audit sweep timing");
  let grid = if smoke then 3 else 8 in
  let runs = if smoke then 2 else 5 in
  let module Audit = Cheriot_analysis.Audit in
  let module Summary = Cheriot_analysis.Summary in
  let module Rules = Cheriot_analysis.Rules in
  let images =
    List.init grid (fun i ->
        ( Printf.sprintf "fleet-%d" i,
          Cheriot_workloads.Firmware.fleet ~variant:i () ))
  in
  (* correctness before timing: warm ≡ cold, byte for byte, per variant *)
  let cache = Summary.create_cache () in
  let hits = ref 0 and misses = ref 0 in
  let identical =
    List.for_all
      (fun (name, t) ->
        let warm, st = Audit.run_stats ~cache t in
        let cold = Audit.run t in
        hits := !hits + st.Audit.cache_hits;
        misses := !misses + st.Audit.cache_misses;
        String.equal
          (Rules.report_to_json [ (name, Rules.sort_findings warm) ])
          (Rules.report_to_json [ (name, Rules.sort_findings cold) ]))
      images
  in
  let time f =
    let best = ref infinity in
    for _ = 1 to runs do
      let t0 = Sys.time () in
      f ();
      let dt = Sys.time () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cold_s =
    time (fun () -> List.iter (fun (_, t) -> ignore (Audit.run t)) images)
  in
  let warm_s =
    time (fun () ->
        let cache = Summary.create_cache () in
        List.iter (fun (_, t) -> ignore (Audit.run_stats ~cache t)) images)
  in
  let speedup = if warm_s > 0. then cold_s /. warm_s else infinity in
  Format.printf "%-6s %12s %12s %8s %6s %8s@." "grid" "cold_s" "warm_s"
    "speedup" "hits" "identical";
  Format.printf "%-6d %12.6f %12.6f %8.2f %6d %8b@." grid cold_s warm_s speedup
    !hits identical;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"audit_incremental\",\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"smoke\": %b,\n  \"grid\": %d,\n  \"cold_seconds\": %.6f,\n\
       \  \"warm_seconds\": %.6f,\n  \"speedup\": %.2f,\n\
       \  \"cache_hits\": %d,\n  \"cache_misses\": %d,\n\
       \  \"identical\": %b\n}\n"
       smoke grid cold_s warm_s speedup !hits !misses identical);
  let file =
    if smoke then "BENCH_audit_incremental_smoke.json"
    else "BENCH_audit_incremental.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if not identical then begin
    prerr_endline "audit_incremental: warm report diverged from cold";
    exit 1
  end;
  if !hits = 0 then begin
    prerr_endline "audit_incremental: summary cache never hit";
    exit 1
  end;
  if (not smoke) && speedup < 2.0 then begin
    prerr_endline "audit_incremental: cached sweep under 2x over cold";
    exit 1
  end

(* --- plan-soundness verifier timing --------------------------------------- *)

(* Times [Planverify.verify_plan] over every plan the jit tier compiles
   from the shipped images (forced hot so every reachable block
   compiles), so verifier slowdowns show up in the perf trajectory.
   Doubles as a gate: an image compiling zero plans, or any plan proving
   Unsound, fails the run.  Writes BENCH_planverify*.json. *)
let planverify_bench ?(smoke = false) () =
  section
    (if smoke then "planverify -- smoke (plan-soundness verifier timing)"
     else "planverify -- plan-soundness verifier timing");
  let runs = if smoke then 2 else 5 in
  Format.printf "%-12s %8s %12s %10s@." "image" "plans" "seconds" "unsound";
  let rows =
    List.map
      (fun (name, build) ->
        let t = build () in
        let m = t.Cheriot_rtos.Loader.machine in
        m.Machine.hot_threshold <- 2;
        m.Machine.hot_adaptive <- false;
        let plans = Cheriot_analysis.Planverify.collect m in
        let unsound =
          List.length
            (List.filter
               (fun p ->
                 Cheriot_analysis.Planverify.verify_plan p
                 <> Cheriot_analysis.Planverify.Sound)
               plans)
        in
        let best = ref infinity in
        for _ = 1 to runs do
          let t0 = Sys.time () in
          List.iter
            (fun p -> ignore (Cheriot_analysis.Planverify.verify_plan p))
            plans;
          let dt = Sys.time () -. t0 in
          if dt < !best then best := dt
        done;
        Format.printf "%-12s %8d %12.6f %10d@." name (List.length plans) !best
          unsound;
        (name, List.length plans, !best, unsound))
      Cheriot_workloads.Firmware.shipped
  in
  let total = List.fold_left (fun a (_, _, s, _) -> a +. s) 0. rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"planverify\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"smoke\": %b,\n  \"images\": [\n" smoke);
  List.iteri
    (fun i (name, n, secs, unsound) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"plans\": %d, \"seconds\": %.6f, \"unsound\": \
            %d}%s\n"
           name n secs unsound
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "  ],\n  \"total_seconds\": %.6f\n}\n" total);
  let file =
    if smoke then "BENCH_planverify_smoke.json" else "BENCH_planverify.json"
  in
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "@.wrote %s@." file;
  if List.exists (fun (_, n, _, _) -> n = 0) rows then begin
    prerr_endline "planverify: an image compiled no plans";
    exit 1
  end;
  if List.exists (fun (_, _, _, u) -> u > 0) rows then begin
    prerr_endline "planverify: unsound plans on shipped images";
    exit 1
  end

(* --- driver -------------------------------------------------------------- *)

let all () =
  table1 ();
  table2 ();
  table3 ();
  let flute, ibex = table4 () in
  fig56 Core_model.Flute "5" flute;
  fig56 Core_model.Ibex "6" ibex;
  iot ();
  ablations ();
  dispatch_bench ();
  audit_bench ();
  audit_incremental_bench ();
  planverify_bench ();
  micro ()

let () =
  match Sys.argv with
  | [| _ |] -> all ()
  | [| _; "table1" |] -> table1 ()
  | [| _; "table2" |] -> table2 ()
  | [| _; "table3" |] -> table3 ()
  | [| _; "table4" |] -> ignore (table4 ())
  | [| _; "fig5" |] -> fig56 Core_model.Flute "5" (run_alloc_table Core_model.Flute)
  | [| _; "fig6" |] -> fig56 Core_model.Ibex "6" (run_alloc_table Core_model.Ibex)
  | [| _; "iot" |] -> iot ()
  | [| _; "ablations" |] -> ablations ()
  | [| _; "dispatch" |] -> dispatch_bench ()
  | [| _; "dispatch"; "smoke" |] -> dispatch_bench ~smoke:true ()
  | [| _; "audit" |] -> audit_bench ()
  | [| _; "audit"; "smoke" |] -> audit_bench ~smoke:true ()
  | [| _; "audit_incremental" |] -> audit_incremental_bench ()
  | [| _; "audit_incremental"; "smoke" |] ->
      audit_incremental_bench ~smoke:true ()
  | [| _; "planverify" |] -> planverify_bench ()
  | [| _; "planverify"; "smoke" |] -> planverify_bench ~smoke:true ()
  | [| _; "micro" |] -> micro ()
  | _ ->
      prerr_endline
        "usage: main.exe \
         [table1|table2|table3|table4|fig5|fig6|iot|ablations|dispatch \
         [smoke]|audit [smoke]|audit_incremental [smoke]|planverify \
         [smoke]|micro]";
      exit 2
