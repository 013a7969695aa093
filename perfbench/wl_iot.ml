(* iot_minute: the paper's 7.2.3 IoT minute (Ibex at 20 MHz, hardware
   revoker).  Same Clock/Revoker layer as alloc_grid, used differently:
   time drives it, idle advances dominate, allocations are few.  Nothing
   in it is seeded. *)

open Common
module Core_model = Cheriot_uarch.Core_model
module Revoker = Cheriot_uarch.Revoker
module Sram = Cheriot_mem.Sram
module Revbits = Cheriot_mem.Revbits
module Clock = Cheriot_rtos.Clock
module Allocator = Cheriot_rtos.Allocator
module Switcher = Cheriot_rtos.Switcher
module Sched = Cheriot_rtos.Sched
module Iot_app = Cheriot_workloads.Iot_app

(* The self-check runs two simulated seconds instead of sixty. *)
let seconds ~minimal = if minimal then 2.0 else 60.0
let run_id s = Printf.sprintf "iot_minute/run/%gs" s

let render ~cycles (r : Iot_app.result) =
  Printf.sprintf
    "cycles=%d cpu_load=%.9f idle=%.9f packets=%d js_ticks=%d allocations=%d \
     sweeps=%d context_switches=%d"
    cycles r.cpu_load_percent r.idle_percent r.packets r.js_ticks
    r.allocations r.sweeps r.context_switches

let cycles_of (r : Iot_app.result) =
  int_of_float (Float.round (r.seconds *. float_of_int Iot_app.clock_hz))

let ops ~seed:_ ~minimal =
  let s = seconds ~minimal in
  [
    op (run_id s) ignore (fun () ->
        let r = Iot_app.run ~seconds:s () in
        let cycles = cycles_of r in
        sim ~cycles (render ~cycles r));
  ]

(* --- traced replica: [Iot_app.run] with the hardware revoker ------------- *)

let run_traced ~seconds =
  let compute = Span.agg "clock.compute" and mall = Span.agg "allocator.malloc" in
  let fre = Span.agg "allocator.free" and crossa = Span.agg "switcher.cross_call" in
  let switch = Span.agg "sched.switch_to" and idle = Span.agg "sched.idle_to_next_wake" in
  let clock_hz = Iot_app.clock_hz in
  let core = Core_model.Ibex in
  let clock = Clock.create (Core_model.params_of core) in
  let heap_base = Iot_app.heap_base and heap_size = Iot_app.heap_size in
  let sram = Sram.create ~base:0x4_0000 ~size:(heap_base + heap_size - 0x4_0000) in
  let rev = Revbits.create ~heap_base ~heap_size () in
  let alloc =
    Allocator.create ~temporal:Allocator.Hardware ~sram ~rev ~clock ~heap_base
      ~heap_size ()
  in
  let hw = Revoker.create ~core ~sram ~rev () in
  Clock.attach_revoker clock hw;
  Allocator.attach_hw_revoker alloc hw;
  let switcher = Switcher.create ~hwm_enabled:true ~sram clock in
  let sched = Sched.create ~hwm_enabled:true clock in
  let mk name prio base =
    Sched.spawn sched ~name ~priority:prio
      ~stack:(Switcher.make_stack ~base ~size:1024)
  in
  let net = mk "tcpip" 3 0x4_0000 in
  let js = mk "microvium" 2 0x4_0800 in
  let packets = ref 0 and js_ticks = ref 0 and allocations = ref 0 in
  let compute_n n = Span.fine compute (fun () -> Clock.compute clock n) in
  let switch_to th = Span.fine switch (fun () -> Sched.switch_to sched th) in
  let cross stack f =
    Span.fine crossa (fun () ->
        Switcher.cross_call switcher stack ~callee_frame:96
          ~callee_stack_use:160 f)
  in
  let with_packet stack size f =
    incr packets;
    incr allocations;
    let p =
      cross stack (fun () ->
          match Span.fine mall (fun () -> Allocator.malloc alloc size) with
          | Ok c -> c
          | Error e -> Fmt.failwith "packet alloc: %a" Allocator.pp_error e)
    in
    f p;
    cross stack (fun () ->
        match Span.fine fre (fun () -> Allocator.free alloc p) with
        | Ok () -> ()
        | Error e -> Fmt.failwith "packet free: %a" Allocator.pp_error e)
  in
  let record stack size =
    switch_to net;
    with_packet stack size (fun _p ->
        compute_n Iot_app.tcpip_rx_cycles;
        cross stack (fun () -> compute_n Iot_app.tls_record_cycles);
        cross stack (fun () -> compute_n Iot_app.mqtt_cycles))
  in
  switch_to net;
  compute_n Iot_app.tls_handshake_crypto;
  for _ = 1 to 6 do
    record net.Sched.stack 640
  done;
  for _ = 1 to 4 do
    record net.Sched.stack 1024
  done;
  let total_cycles = int_of_float (seconds *. float_of_int clock_hz) in
  let tick_cycles = clock_hz / 1000 * Iot_app.js_tick_ms in
  let next_keepalive = ref (Clock.cycles clock + clock_hz) in
  while Clock.cycles clock < total_cycles do
    let tick_start = Clock.cycles clock in
    switch_to js;
    incr js_ticks;
    compute_n Iot_app.js_interpreter_cycles;
    let objs =
      List.filter_map
        (fun size ->
          incr allocations;
          match Span.fine mall (fun () -> Allocator.malloc alloc size) with
          | Ok c -> Some c
          | Error _ -> None)
        [ 48; 64; 32; 96 ]
    in
    List.iter (fun c -> ignore (Span.fine fre (fun () -> Allocator.free alloc c))) objs;
    if Clock.cycles clock >= !next_keepalive then begin
      next_keepalive := !next_keepalive + clock_hz;
      record net.Sched.stack 128;
      record net.Sched.stack 128
    end;
    let next_tick = tick_start + tick_cycles in
    if Clock.cycles clock < next_tick then begin
      Sched.sleep_until js next_tick;
      Sched.sleep_until net next_tick;
      ignore (Span.fine idle (fun () -> Sched.idle_to_next_wake sched))
    end
  done;
  let total = Clock.cycles clock in
  let idle_c = Sched.idle_cycles sched in
  let st = Allocator.stats alloc in
  let r =
    {
      Iot_app.seconds = float_of_int total /. float_of_int clock_hz;
      cpu_load_percent = 100.0 *. float_of_int (total - idle_c) /. float_of_int total;
      idle_percent = 100.0 *. float_of_int idle_c /. float_of_int total;
      packets = !packets;
      js_ticks = !js_ticks;
      allocations = !allocations;
      sweeps = st.Allocator.sweeps;
      context_switches = Sched.context_switches sched;
    }
  in
  (r, total, idle_c, Revoker.busy_cycles hw, st, Switcher.bytes_zeroed switcher)

let replica ~seed:_ ~minimal ~(check : check) =
  let s = seconds ~minimal in
  let r, total, idle_c, busy, st, zeroed =
    Span.coarse "run" (fun () -> run_traced ~seconds:s)
  in
  check (run_id s) (render ~cycles:total r);
  [
    ("allocator.sweeps", float_of_int st.Allocator.sweeps);
    ("allocator.sweep_cycles", float_of_int st.Allocator.sweep_cycles);
    ("allocator.quarantine_peak_kib", float_of_int st.Allocator.quarantine_peak /. 1024.0);
    ("switcher.bytes_zeroed", float_of_int zeroed);
    ("revoker.busy_cycles", float_of_int busy);
    ("revoker.busy_ratio", ratio busy total);
    ("sched.context_switches", float_of_int r.context_switches);
    ("sched.idle_ratio", ratio idle_c total);
  ]

let pins () =
  List.concat_map
    (fun minimal ->
      List.map (fun (Op o) -> (o.id, (o.run (o.setup ())).out)) (ops ~seed:0 ~minimal))
    [ false; true ]

let workload = { name = "iot_minute"; ops; replica; pins; domains = [] }
