(* alloc_grid: the Table 4 / Figs. 5-6 allocation grid (both cores x the
   eight temporal-safety/HWM configurations x the 13 paper sizes) plus
   the quarantine-threshold and revoker-pipelining ablations.  Churns
   Allocator, Switcher and Clock; runs no guest instructions.  Nothing in
   it is seeded: the paper fixes the grid. *)

open Common
module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Sw_revoker = Cheriot_rtos.Sw_revoker
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched
module Alloc_bench = Cheriot_workloads.Alloc_bench

let temporals = Allocator.[ Baseline; Metadata; Software; Hardware ]

let temporal_name = function
  | Allocator.Baseline -> "Baseline"
  | Metadata -> "Metadata"
  | Software -> "Software"
  | Hardware -> "Hardware"

(* Row order of [bench/main.exe table4]: per core, per size, the four
   configurations without and then with the stack high-water mark. *)
let configs core =
  List.concat_map
    (fun hwm ->
      List.map (fun temporal -> { Alloc_bench.core; temporal; hwm }) temporals)
    [ false; true ]

let cores = Core_model.[ Flute; Ibex ]

(* The self-check keeps the cheap large sizes only. *)
let sizes ~minimal =
  if minimal then List.filter (fun s -> s >= 16384) Alloc_bench.paper_sizes
  else Alloc_bench.paper_sizes

let cell_id (c : Alloc_bench.config) size =
  Printf.sprintf "alloc_grid/cell/%s/%s/%s/%d" (Core_model.name c.core)
    (temporal_name c.temporal)
    (if c.hwm then "hwm" else "nohwm")
    size

let threshold_fracs = [ 2; 4; 8; 16 ]
let threshold_config = { Alloc_bench.core = Flute; temporal = Hardware; hwm = true }
let threshold_size = 1024
let threshold_of frac = 256 * 1024 / frac
let threshold_id frac = Printf.sprintf "alloc_grid/threshold/%d" frac
let pipelining_id p = Printf.sprintf "alloc_grid/pipelining/%s" (if p then "2stage" else "1stage")

let render (r : Alloc_bench.result) =
  Printf.sprintf
    "cycles=%d iterations=%d sweeps=%d sweep_cycles=%d bytes_zeroed=%d \
     quarantine_peak=%d"
    r.cycles r.iterations r.sweeps r.sweep_cycles r.bytes_zeroed
    r.quarantine_peak

(* The revoker-pipelining ablation of [bench/main.exe ablations]: one
   full 256 KiB sweep on Flute by the 1-stage and the 2-stage engine. *)
let sweep_heap = 256 * 1024

let sweep_setup pipelined =
  let sram = Sram.create ~base:0x80000 ~size:sweep_heap in
  let rev = Revbits.create ~heap_base:0x80000 ~heap_size:sweep_heap () in
  Revoker.create ~pipelined ~core:Core_model.Flute ~sram ~rev ()

let sweep_run ?(run_to_completion = Revoker.run_to_completion) r =
  Revoker.kick r ~start:0x80000 ~stop:(0x80000 + sweep_heap);
  let cycles = run_to_completion r in
  sim ~cycles (Printf.sprintf "cycles=%d" cycles)

let pinned_cells ~minimal =
  List.concat_map
    (fun core ->
      List.concat_map
        (fun size -> List.map (fun c -> (c, size)) (configs core))
        (sizes ~minimal))
    cores

let ops ~seed:_ ~minimal =
  let cell (c, size) =
    op (cell_id c size) ignore (fun () ->
        let r = Alloc_bench.run c ~size in
        sim ~cycles:r.cycles (render r))
  in
  let threshold frac =
    op (threshold_id frac) ignore (fun () ->
        let r =
          Alloc_bench.run_with_threshold threshold_config ~size:threshold_size
            ~threshold:(threshold_of frac)
        in
        sim ~cycles:r.cycles (render r))
  in
  let pipelining p =
    op (pipelining_id p) (fun () -> sweep_setup p) (fun r -> sweep_run r)
  in
  List.map cell (pinned_cells ~minimal)
  @ List.map threshold threshold_fracs
  @ List.map pipelining [ false; true ]

(* --- traced replica ------------------------------------------------------ *)

(* Per-layer totals accumulated across the replica's cells. *)
type totals = {
  mutable sweeps : int;
  mutable sweep_cycles : int;
  mutable qpeak : int;
  mutable zeroed : int;
  mutable busy : int;  (** revoker busy cycles, Hardware cells *)
  mutable hw_cycles : int;  (** simulated cycles of the Hardware cells *)
  mutable ctx : int;
}

(* [Alloc_bench.run] step for step, with a span around every layer call
   the benchmark loop makes. *)
let run_traced tot ?(total = 1 lsl 20) ?threshold (config : Alloc_bench.config)
    ~size =
  let compute = Span.agg "clock.compute" and mall = Span.agg "allocator.malloc" in
  let fre = Span.agg "allocator.free" and cross = Span.agg "switcher.cross_call" in
  let params = Core_model.params_of config.core in
  let clock = Clock.create params in
  let heap_base = Alloc_bench.heap_base and heap_size = Alloc_bench.heap_size in
  let stack_base = Alloc_bench.stack_base in
  let sram = Sram.create ~base:stack_base ~size:(heap_base + heap_size - stack_base) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal:config.temporal ?quarantine_threshold:threshold
      ~flute_poll_quirk:(config.core = Core_model.Flute)
      ~sram ~rev ~clock ~heap_base ~heap_size ()
  in
  let hw =
    match config.temporal with
    | Allocator.Hardware ->
        let hw = Revoker.create ~core:config.core ~sram ~rev () in
        Clock.attach_revoker clock hw;
        Allocator.attach_hw_revoker alloc hw;
        Some hw
    | Allocator.Software ->
        Allocator.set_sw_revoker alloc (Sw_revoker.create ~sram ~rev ~clock ());
        None
    | Allocator.Baseline | Allocator.Metadata -> None
  in
  let switcher = Switcher.create ~hwm_enabled:config.hwm ~sram clock in
  let sched = Sched.create ~hwm_enabled:config.hwm clock in
  let stack = Switcher.make_stack ~base:stack_base ~size:Alloc_bench.stack_size in
  stack.Switcher.sp <- stack_base + 384;
  stack.Switcher.hwm <- stack_base + 384;
  let app = Sched.spawn sched ~name:"bench" ~priority:1 ~stack in
  let _idle = Sched.spawn sched ~name:"idle" ~priority:0 ~stack in
  Span.fine (Span.agg "sched.switch_to") (fun () -> Sched.switch_to sched app);
  Allocator.set_wait_ctx_pair alloc (2 * Sched.ctx_switch_cost sched);
  let iterations = total / size in
  for _ = 1 to iterations do
    Span.fine compute (fun () -> Clock.compute clock 20);
    let ptr =
      Span.fine cross (fun () ->
          Switcher.cross_call switcher stack ~callee_frame:96
            ~callee_stack_use:Alloc_bench.allocator_stack_use (fun () ->
              match Span.fine mall (fun () -> Allocator.malloc alloc size) with
              | Ok c -> c
              | Error e -> Fmt.failwith "malloc(%d): %a" size Allocator.pp_error e))
    in
    Span.fine compute (fun () -> Clock.compute clock 20);
    Span.fine cross (fun () ->
        Switcher.cross_call switcher stack ~callee_frame:96
          ~callee_stack_use:Alloc_bench.allocator_stack_use (fun () ->
            match Span.fine fre (fun () -> Allocator.free alloc ptr) with
            | Ok () -> ()
            | Error e -> Fmt.failwith "free(%d): %a" size Allocator.pp_error e))
  done;
  let st = Allocator.stats alloc in
  let r =
    {
      Alloc_bench.cycles = Clock.cycles clock;
      iterations;
      sweeps = st.Allocator.sweeps;
      sweep_cycles = st.Allocator.sweep_cycles;
      bytes_zeroed = Switcher.bytes_zeroed switcher;
      quarantine_peak = st.Allocator.quarantine_peak;
    }
  in
  tot.sweeps <- tot.sweeps + r.sweeps;
  tot.sweep_cycles <- tot.sweep_cycles + r.sweep_cycles;
  tot.qpeak <- max tot.qpeak r.quarantine_peak;
  tot.zeroed <- tot.zeroed + r.bytes_zeroed;
  tot.ctx <- tot.ctx + Sched.context_switches sched;
  (match hw with
  | Some hw ->
      tot.busy <- tot.busy + Revoker.busy_cycles hw;
      tot.hw_cycles <- tot.hw_cycles + r.cycles
  | None -> ());
  r

let replica ~seed:_ ~minimal ~(check : check) =
  let tot =
    { sweeps = 0; sweep_cycles = 0; qpeak = 0; zeroed = 0; busy = 0; hw_cycles = 0; ctx = 0 }
  in
  List.iter
    (fun (c, size) ->
      Span.coarse "cell" (fun () ->
          check (cell_id c size) (render (run_traced tot c ~size))))
    (pinned_cells ~minimal);
  List.iter
    (fun frac ->
      Span.coarse "threshold_row" (fun () ->
          check (threshold_id frac)
            (render
               (run_traced tot ~threshold:(threshold_of frac) threshold_config
                  ~size:threshold_size))))
    threshold_fracs;
  let rtc = Span.agg "revoker.run_to_completion" in
  List.iter
    (fun p ->
      Span.coarse "pipelining_row" (fun () ->
          let r = sweep_setup p in
          let o =
            sweep_run ~run_to_completion:(fun r -> Span.fine rtc (fun () -> Revoker.run_to_completion r)) r
          in
          check (pipelining_id p) o.out))
    [ false; true ];
  [
    ("allocator.sweeps", float_of_int tot.sweeps);
    ("allocator.sweep_cycles", float_of_int tot.sweep_cycles);
    ("allocator.quarantine_peak_kib", float_of_int tot.qpeak /. 1024.0);
    ("switcher.bytes_zeroed", float_of_int tot.zeroed);
    ("revoker.busy_cycles", float_of_int tot.busy);
    ("revoker.busy_ratio", ratio tot.busy tot.hw_cycles);
    ("sched.context_switches", float_of_int tot.ctx);
    ("sched.idle_ratio", 0.0);
  ]

let pins () =
  let outs = ref [] in
  List.iter
    (fun (Op o) -> outs := (o.id, (o.run (o.setup ())).out) :: !outs)
    (ops ~seed:0 ~minimal:false);
  List.rev !outs

let workload = { name = "alloc_grid"; ops; replica; pins; domains = [] }
