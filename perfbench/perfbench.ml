(* The repository benchmark.  See README.md in this directory.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --self-check
     perfbench.exe --pin-out FILE
     perfbench.exe --render table4|iot

   A timed run repeats the workload's fixed work (one pass) until
   [--seconds] have elapsed, checks every simulated output against
   perfbench/pinned.txt, and prints the end-to-end metrics as the last
   line of standard output.  [--trace 1] instead runs one untraced pass
   and one traced replica pass and prints the per-layer metrics. *)

open Common

let workloads = [ Wl_alloc.workload; Wl_iot.workload; Wl_guest.workload; Wl_audit.workload ]
let pins_path = "perfbench/pinned.txt"
let trace_dir = ".perfbench"

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let sum = Array.fold_left ( +. ) 0.0

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* --- correctness accounting ----------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable reported : int }

let tally () = { attempted = 0; failed = 0; reported = 0 }

let fail tl id msg =
  tl.failed <- tl.failed + 1;
  if tl.reported < 10 then begin
    tl.reported <- tl.reported + 1;
    Printf.eprintf "perfbench: FAIL %s: %s\n%!" id msg
  end

let checker pins tl : check =
 fun id out ->
  tl.attempted <- tl.attempted + 1;
  match Pins.find pins id with
  | Some v when v = out -> ()
  | Some v -> fail tl id (Printf.sprintf "got %S, pinned %S" out v)
  | None -> fail tl id (Printf.sprintf "no pinned value (got %S)" out)

(* --- untraced passes ------------------------------------------------------- *)

type pass = {
  setups : Hostspeed.interval list;  (** the operations' set-up parts *)
  walls : Hostspeed.interval option array;  (** per-operation timed part *)
  outcomes : outcome option array;
}

(* The workload-level set-up: read the pinned outputs and build the
   pass's operation list (which links, calibrates or seeds as the
   workload needs). *)
let prepare (w : workload) ~seed ~minimal =
  Hostspeed.time (fun () ->
      let pins = Pins.load pins_path in
      (pins, w.ops ~seed ~minimal))

(* One pass over [ops]. *)
let run_pass ops pins tl =
  let n = List.length ops in
  let walls = Array.make n None and outcomes = Array.make n None in
  let setups = ref [] in
  List.iteri
    (fun i (Op o) ->
      match Hostspeed.time o.setup with
      | exception e ->
          tl.attempted <- tl.attempted + 1;
          fail tl o.id ("set-up raised " ^ Printexc.to_string e)
      | st, setup -> (
          setups := setup :: !setups;
          match Hostspeed.time (fun () -> o.run st) with
          | exception e ->
              tl.attempted <- tl.attempted + 1;
              fail tl o.id ("raised " ^ Printexc.to_string e)
          | r, wall ->
              walls.(i) <- Some wall;
              outcomes.(i) <- Some r;
              checker pins tl o.id r.out))
    ops;
  { setups = !setups; walls; outcomes }

let raw_walls p = Array.map (function Some iv -> Hostspeed.raw iv | None -> 0.0) p.walls
let raw_total ivs = List.fold_left (fun a iv -> a +. Hostspeed.raw iv) 0.0 ivs

(* Throughput figures over one pass's operations, from per-op times. *)
let rates walls outcomes =
  let sum f =
    let acc = ref 0.0 and t = ref 0.0 in
    Array.iteri
      (fun i o ->
        match o with
        | Some o -> (
            match f o with
            | Some x ->
                acc := !acc +. x;
                t := !t +. walls.(i)
            | None -> ())
        | None -> ())
      outcomes;
    if !t = 0.0 then 0.0 else !acc /. !t
  in
  let count k o = if o.kind = k then Some 1.0 else None in
  [
    ("sim_mcycles_per_s", sum (fun o -> if o.cycles > 0 then Some (float_of_int o.cycles /. 1e6) else None));
    ("guest_mips", sum (fun o -> if o.insns > 0 then Some (float_of_int o.insns /. 1e6) else None));
    ("audit_images_per_s", sum (count Cold_audit));
    ("reaudit_images_per_s", sum (count Warm_audit));
  ]

let metric_json (name, value, unit) = Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" name value unit

let print_result tl metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tl.failed = 0) tl.attempted tl.failed
    (String.concat ", " (List.map metric_json metrics))

let min_setup_samples = 10
let setup_samples_per_pass = 3

(* Repeat whole passes until [seconds] have (about) elapsed: a pass is
   not started when it would end more than half a pass past the
   deadline.  Every interval is rescaled to the reference host speed by
   the host-speed samples in and around it (see Hostspeed).  [wall_s] is the sum over
   operations of each operation's median time across the passes.
   [setup_s] is the median workload-level set-up, sampled a few times
   before every pass so the samples spread over the run (at least
   [min_setup_samples] in all), plus the median per-pass total of the
   operations' own set-up parts. *)
let timed (w : workload) ~seed ~seconds =
  let tl = tally () in
  let start = Span.now () in
  let passes = ref [] and preps = ref [] and heap_mb = ref 0.0 in
  let prepare () =
    let r, iv = prepare w ~seed ~minimal:false in
    preps := iv :: !preps;
    r
  in
  let continue () =
    match !passes with
    | [] -> true
    | ps ->
        let elapsed = Span.now () -. start in
        elapsed +. (0.5 *. elapsed /. float_of_int (List.length ps)) < seconds
  in
  Hostspeed.start ();
  while continue () do
    for _ = 2 to setup_samples_per_pass do
      ignore (prepare ())
    done;
    let pins, ops = prepare () in
    passes := run_pass ops pins tl :: !passes;
    (* the first pass's top heap: later passes only add allocator noise *)
    if !heap_mb = 0.0 then heap_mb := heap_peak_mb ()
  done;
  while List.length !preps < min_setup_samples do
    ignore (prepare ())
  done;
  Hostspeed.stop ();
  let passes = List.rev !passes in
  let n_ops = Array.length (List.hd passes).walls in
  let per_op f =
    Array.init n_ops (fun i -> median (List.filter_map (fun p -> Option.map f p.walls.(i)) passes))
  in
  let op_walls = per_op Hostspeed.rescale in
  let wall_s = sum op_walls in
  let setup_s =
    median (List.map Hostspeed.rescale !preps)
    +. median
         (List.map (fun p -> List.fold_left (fun a iv -> a +. Hostspeed.rescale iv) 0.0 p.setups) passes)
  in
  let raw_op_walls = per_op Hostspeed.raw in
  Printf.printf "workload %s seed %d: %d passes of %d operations\n" w.name seed
    (List.length passes) n_ops;
  Printf.printf "  pass wall_s (raw):   %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.4f" (sum (raw_walls p))) passes));
  Printf.printf "  raw wall_s:          %.6g (host speed %.3f of reference)\n" (sum raw_op_walls)
    (wall_s /. sum raw_op_walls);
  List.iter (fun (k, v) -> Printf.printf "  %-22s %.6g\n" k v) (rates raw_op_walls (List.hd passes).outcomes);
  Printf.printf "  %-22s %.6g (%d of %d failed)\n" "error_rate"
    (ratio tl.failed tl.attempted) tl.failed tl.attempted;
  print_result tl
    [ ("wall_s", wall_s, "s"); ("setup_s", setup_s, "s"); ("heap_peak_mb", !heap_mb, "MB") ];
  tl

(* --- traced run -------------------------------------------------------------- *)

(* Every per-layer metric, in BENCHMARK.json order; a layer the workload
   does not run reports 0. *)
let layer_metrics =
  [
    ("clock.compute.self_s", "s"); ("sched.idle_to_next_wake.self_s", "s");
    ("revoker.busy_cycles", "count"); ("revoker.busy_ratio", "ratio");
    ("allocator.malloc.calls", "count"); ("allocator.malloc.self_s", "s");
    ("allocator.free.calls", "count"); ("allocator.free.self_s", "s");
    ("switcher.cross_call.calls", "count"); ("switcher.cross_call.self_s", "s");
    ("allocator.sweeps", "count"); ("allocator.sweep_cycles", "count");
    ("allocator.quarantine_peak_kib", "KiB"); ("switcher.bytes_zeroed", "count");
    ("revoker.run_to_completion.self_s", "s"); ("sched.switch_to.self_s", "s");
    ("sched.context_switches", "count"); ("sched.idle_ratio", "ratio");
    ("perf.charge_s", "s");
    ("machine.run.ref.mips", "MIPS"); ("machine.run.cached.mips", "MIPS");
    ("machine.run.block.mips", "MIPS"); ("machine.run.chain.mips", "MIPS");
    ("machine.run.jit.mips", "MIPS");
    ("decode_cache.hit_ratio", "ratio"); ("machine.block.hit_ratio", "ratio");
    ("machine.chain_hits", "count"); ("machine.superblocks_formed", "count");
    ("ir.jit_blocks_compiled", "count"); ("ir.checks_eliminated", "count");
    ("machine.opt_side_exits", "count");
    ("audit.audit_linkage.self_s", "s"); ("audit.analyze_compartment.calls", "count");
    ("audit.analyze_compartment.self_s", "s"); ("linkflow.analyze.self_s", "s");
    ("rules.report_to_json.self_s", "s"); ("summary.hit_ratio", "ratio");
    ("planverify.collect.self_s", "s"); ("planverify.verify_plan.self_s", "s");
    ("planverify.plans", "count");
    ("sim_mcycles_per_s", "Mcycles/s"); ("guest_mips", "MIPS");
    ("audit_images_per_s", "1/s"); ("reaudit_images_per_s", "1/s");
    ("trace.wall_s", "s"); ("trace.overhead_s", "s"); ("error_rate", "ratio");
  ]

(* Span-derived layer times: [name.self_s] and [name.calls]. *)
let span_metric name =
  let strip suffix =
    let n = String.length name and k = String.length suffix in
    if n > k && String.sub name (n - k) k = suffix then Some (String.sub name 0 (n - k)) else None
  in
  match (strip ".self_s", strip ".calls") with
  | Some l, _ -> Some (Span.self_s l)
  | None, Some l -> Some (float_of_int (Span.calls l))
  | None, None -> None

let traced (w : workload) ~seed ~minimal =
  let tl = tally () in
  let (pins, ops), prep = prepare w ~seed ~minimal in
  let p = run_pass ops pins tl in
  let walls = raw_walls p in
  let untraced_total = Hostspeed.raw prep +. raw_total p.setups +. sum walls in
  Span.reset ();
  Span.enabled := true;
  let t0 = Span.now () in
  let counters = w.replica ~seed ~minimal ~check:(checker pins tl) in
  let traced_wall = Span.now () -. t0 in
  Span.enabled := false;
  (* guest_exec's tier sweep is extra work the untraced pass does not
     do: keep it out of the overhead *)
  let extra = Span.total_s "tiers" in
  let derived =
    rates walls p.outcomes
    @ [
        ("trace.wall_s", traced_wall);
        ("trace.overhead_s", traced_wall -. extra -. untraced_total);
        ("error_rate", ratio tl.failed tl.attempted);
      ]
  in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  Span.write (Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed));
  let value name =
    match List.assoc_opt name counters with
    | Some v -> v
    | None -> (
        match List.assoc_opt name derived with
        | Some v -> v
        | None -> Option.value ~default:0.0 (span_metric name))
  in
  (tl, List.map (fun (name, unit) -> (name, value name, unit)) layer_metrics)

(* --- modes ------------------------------------------------------------------- *)

let self_check () =
  let bad =
    List.fold_left
      (fun bad (w : workload) ->
        let t0 = Span.now () in
        let tl, _ = traced w ~seed:1 ~minimal:true in
        Printf.printf "self-check %-12s %4d outputs checked, %d failed (%.1f s)\n%!" w.name
          tl.attempted tl.failed (Span.now () -. t0);
        bad || tl.failed > 0 || tl.attempted = 0)
      false workloads
  in
  if bad then 1 else 0

let pin_out path =
  let rows = List.concat_map (fun (w : workload) -> w.pins ()) workloads in
  let domains = List.concat_map (fun (w : workload) -> w.domains) workloads in
  (* a program reachable from two seeds is enumerated twice: keep one row,
     and refuse two different values for one key *)
  let seen = Hashtbl.create 1024 in
  let rows =
    List.filter
      (fun (k, v) ->
        match Hashtbl.find_opt seen k with
        | Some v' when v' <> v -> failwith ("inconsistent pin " ^ k)
        | Some _ -> false
        | None ->
            Hashtbl.replace seen k v;
            true)
      rows
  in
  Pins.save path ~domains rows;
  Printf.printf "wrote %d pinned outputs to %s\n" (List.length rows) path;
  0

(* The pinned Table 4 and IoT outputs in the layout [bench/main.exe table4]
   and [bench/main.exe iot] print, for crosscheck.sh to diff. *)
let render what =
  let pins = Pins.load pins_path in
  let field key name =
    match Pins.find pins key with
    | None -> failwith ("no pin " ^ key)
    | Some v ->
        let pre = name ^ "=" in
        let kv = List.find (fun s -> String.length s > String.length pre && String.sub s 0 (String.length pre) = pre) (String.split_on_char ' ' v) in
        String.sub kv (String.length pre) (String.length kv - String.length pre)
  in
  match what with
  | "table4" ->
      List.iter
        (fun core ->
          List.iter
            (fun size ->
              Printf.printf "%-8d" size;
              List.iter
                (fun c -> Printf.printf " %10s" (field (Wl_alloc.cell_id c size) "cycles"))
                (Wl_alloc.configs core);
              print_newline ())
            Cheriot_workloads.Alloc_bench.paper_sizes)
        Wl_alloc.cores;
      0
  | "iot" ->
      let k = Wl_iot.run_id 60.0 in
      let f n = field k n in
      Printf.printf "CPU load: %.1f%% (paper: 17.5%%); idle thread: %.1f%% (paper: 82.5%%)\n"
        (float_of_string (f "cpu_load")) (float_of_string (f "idle"));
      Printf.printf
        "packets: %s  JS frames: %s  heap allocations: %s  revocation sweeps: %s  context switches: %s\n"
        (f "packets") (f "js_ticks") (f "allocations") (f "sweeps") (f "context_switches");
      0
  | _ ->
      prerr_endline "perfbench: --render takes table4 or iot";
      2

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe --self-check | --pin-out FILE | --render table4|iot\n\
     workloads: alloc_grid iot_minute guest_exec audit_fleet";
  2

let () =
  let rec parse acc = function
    | [] -> Some acc
    | "--self-check" :: rest -> parse (("self-check", "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> None
  in
  let code =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | None -> usage ()
    | Some opts -> (
        let get k = List.assoc_opt k opts in
        let workload =
          Option.bind (get "workload") (fun n ->
              List.find_opt (fun (w : workload) -> w.name = n) workloads)
        in
        let seed = Option.bind (get "seed") int_of_string_opt in
        let seconds = Option.bind (get "seconds") float_of_string_opt in
        match (get "self-check", get "pin-out", get "render") with
        | Some _, _, _ -> self_check ()
        | _, Some path, _ -> pin_out path
        | _, _, Some what -> render what
        | None, None, None -> (
            match (workload, seed, seconds, get "trace") with
            | Some w, Some seed, Some seconds, Some ("0" | "1" as trace) ->
                let tl =
                  if trace = "1" then begin
                    let tl, metrics = traced w ~seed ~minimal:false in
                    print_result tl metrics;
                    tl
                  end
                  else timed w ~seed ~seconds
                in
                if tl.failed = 0 then 0 else 1
            | _ -> usage ()))
  in
  exit code
