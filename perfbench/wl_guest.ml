(* guest_exec: guest instructions under the cycle model.  Table 3's six
   configurations through [Coremark.run] at a raised iteration count, and
   the ISA-level allocator and packet streams through
   [Perf.create]/[Perf.run], all with the library's default dispatch.
   The only workload that runs Machine, Decode_cache, Ir and Perf.  The
   seed picks the streams' round and packet counts. *)

open Common
module Core_model = Cheriot_uarch.Core_model
module Perf = Cheriot_uarch.Perf
module Machine = Cheriot_isa.Machine
module Decode_cache = Cheriot_isa.Decode_cache
module Coremark = Cheriot_workloads.Coremark
module Alloc_bench = Cheriot_workloads.Alloc_bench
module Iot_app = Cheriot_workloads.Iot_app

let table3 =
  Core_model.
    [
      ("flute-rv32e", config ~cheri:false Flute);
      ("flute-caps", config ~cheri:true ~load_filter:false Flute);
      ("flute-filter", config ~cheri:true ~load_filter:true Flute);
      ("ibex-rv32e", config ~cheri:false Ibex);
      ("ibex-caps", config ~cheri:true ~load_filter:false Ibex);
      ("ibex-filter", config ~cheri:true ~load_filter:true Ibex);
    ]

let iterations ~minimal = if minimal then 2 else 100

(* Seeded stream sizes are drawn from these ranges; every value in them
   is pinned.  Each drawn size comes with its mirror image in the range
   ([lo + hi - n]), so the seed varies the inputs but not the total
   amount of work a pass does. *)
let alloc_rounds = (64, 127)
let iot_packets = (128, 255)
let stream_pairs = 2

type program =
  | Coremark of string * Core_model.config * int
  | Alloc_isa of int
  | Iot_isa of int

let prog_id = function
  | Coremark (name, _, it) -> Printf.sprintf "coremark/%s/%d" name it
  | Alloc_isa r -> Printf.sprintf "alloc_isa/%d" r
  | Iot_isa p -> Printf.sprintf "iot_isa/%d" p

let run_id p = "guest_exec/" ^ prog_id p
let tiers_id p = "guest_exec/tiers/" ^ prog_id p

let draw st (lo, hi) = lo + Random.State.int st (hi - lo + 1)

let draw_pairs st n ((lo, hi) as range) mk =
  List.concat
    (List.init n (fun _ ->
         let v = draw st range in
         [ mk v; mk (lo + hi - v) ]))

let programs ~seed ~minimal =
  let st = Random.State.make [| seed |] in
  let n = if minimal then 1 else stream_pairs in
  let allocs = draw_pairs st n alloc_rounds (fun r -> Alloc_isa r) in
  let iots = draw_pairs st n iot_packets (fun p -> Iot_isa p) in
  let it = iterations ~minimal in
  let cms =
    List.map (fun (name, c) -> Coremark (name, c, it))
      (if minimal then [ List.hd table3; List.nth table3 5 ] else table3)
  in
  cms @ allocs @ iots

(* A fresh machine with the program loaded, for [Perf] or [Machine.run]. *)
let machine = function
  | Coremark (_, c, it) -> Coremark.setup ~iterations:it c
  | Alloc_isa rounds -> Alloc_bench.isa_setup ~rounds ()
  | Iot_isa packets -> Iot_app.isa_setup ~packets ()

let stream_params = Core_model.params_of Core_model.Ibex
let fuel = 50_000_000

let render_perf m (st : Perf.stats) =
  Printf.sprintf "a0=%x cycles=%d instructions=%d minstret=%d hash=%s"
    (Machine.reg_int m Cheriot_isa.Insn.reg_a0)
    st.cycles st.instructions m.Machine.minstret (Machine.state_hash m)

let render_coremark (r : Coremark.result) =
  Printf.sprintf "checksum=%x cycles=%d instructions=%d" r.checksum r.cycles
    r.instructions

let perf_run perf =
  match Perf.run ~fuel perf with
  | Machine.Step_halted -> ()
  | _ -> failwith "guest program did not halt"

let ops ~seed ~minimal =
  Coremark.calibrate ();
  List.map
    (fun p ->
      match p with
      | Coremark (_, c, it) ->
          op (run_id p) ignore (fun () ->
              let r = Coremark.run ~iterations:it c in
              sim ~cycles:r.cycles ~insns:r.instructions (render_coremark r))
      | Alloc_isa _ | Iot_isa _ ->
          op (run_id p)
            (fun () -> machine p)
            (fun m ->
              let perf = Perf.create ~params:stream_params m in
              perf_run perf;
              let st = perf.Perf.stats in
              sim ~cycles:st.cycles ~insns:st.instructions (render_perf m st)))
    (programs ~seed ~minimal)

(* --- traced replica ------------------------------------------------------ *)

let tiers =
  Machine.
    [
      ("ref", Dispatch_ref);
      ("cached", Dispatch_cached);
      ("block", Dispatch_block);
      ("chain", Dispatch_chain);
      ("jit", Dispatch_jit);
    ]

let tier_out m =
  Printf.sprintf "minstret=%d hash=%s" m.Machine.minstret (Machine.state_hash m)

let run_tier dispatch m =
  match Machine.run ~fuel ~dispatch m with
  | Machine.Step_halted, _ -> ()
  | _ -> failwith "guest program did not halt"

let replica ~seed ~minimal ~(check : check) =
  let a_setup = Span.agg "program.setup" and a_perf = Span.agg "perf.run" in
  let a_tier = List.map (fun (n, _) -> (n, Span.agg ("machine.run." ^ n))) tiers in
  let insns = Hashtbl.create 8 in
  let add k v = Hashtbl.replace insns k (v + Option.value ~default:0 (Hashtbl.find_opt insns k)) in
  let get k = Option.value ~default:0 (Hashtbl.find_opt insns k) in
  Span.coarse "calibrate" Coremark.calibrate;
  List.iter
    (fun p ->
      Span.coarse "program" (fun () ->
          (* the default-dispatch path the untraced run times *)
          let m = Span.fine a_setup (fun () -> machine p) in
          let params =
            match p with
            | Coremark (_, c, _) -> Core_model.params_of c.core
            | Alloc_isa _ | Iot_isa _ -> stream_params
          in
          let perf = Perf.create ~params m in
          Span.fine a_perf (fun () -> perf_run perf);
          let st = perf.Perf.stats in
          check (run_id p)
            (match p with
            | Coremark _ ->
                render_coremark
                  {
                    Coremark.checksum = Machine.reg_int m Coremark.a0;
                    cycles = st.cycles;
                    instructions = st.instructions;
                    score = 0.0;
                  }
            | Alloc_isa _ | Iot_isa _ -> render_perf m st);
          (* every dispatch tier must agree on state_hash and minstret *)
          Span.coarse "tiers" @@ fun () ->
          List.iter
            (fun (name, dispatch) ->
              let m = Span.fine a_setup (fun () -> machine p) in
              Span.fine (List.assoc name a_tier) (fun () -> run_tier dispatch m);
              check (tiers_id p) (tier_out m);
              add ("insns." ^ name) m.Machine.minstret;
              let dc = Machine.decode_stats m and bs = Machine.block_stats m in
              match name with
              | "cached" ->
                  add "dc.hits" dc.Decode_cache.hits;
                  add "dc.misses" dc.Decode_cache.misses
              | "block" ->
                  add "bk.hits" bs.Machine.block_hits;
                  add "bk.misses" bs.Machine.block_misses
              | "chain" ->
                  add "chain_hits" bs.Machine.chain_hits;
                  add "superblocks" bs.Machine.superblocks_formed
              | "jit" ->
                  add "jit_blocks" bs.Machine.jit_blocks_compiled;
                  add "checks_eliminated" bs.Machine.checks_eliminated;
                  add "opt_side_exits" bs.Machine.opt_side_exits
              | _ -> ())
            tiers))
    (programs ~seed ~minimal);
  let mips name =
    let t = Span.total_s ("machine.run." ^ name) in
    if t = 0.0 then 0.0 else float_of_int (get ("insns." ^ name)) /. t /. 1e6
  in
  List.map (fun (n, _) -> ("machine.run." ^ n ^ ".mips", mips n)) tiers
  @ [
      ("perf.charge_s", Span.total_s "perf.run" -. Span.total_s "machine.run.ref");
      ("decode_cache.hit_ratio", ratio (get "dc.hits") (get "dc.hits" + get "dc.misses"));
      ("machine.block.hit_ratio", ratio (get "bk.hits") (get "bk.hits" + get "bk.misses"));
      ("machine.chain_hits", float_of_int (get "chain_hits"));
      ("machine.superblocks_formed", float_of_int (get "superblocks"));
      ("ir.jit_blocks_compiled", float_of_int (get "jit_blocks"));
      ("ir.checks_eliminated", float_of_int (get "checks_eliminated"));
      ("machine.opt_side_exits", float_of_int (get "opt_side_exits"));
    ]

(* --- pins ------------------------------------------------------------------ *)

let all_programs () =
  let range (lo, hi) f = List.init (hi - lo + 1) (fun i -> f (lo + i)) in
  List.concat_map
    (fun it -> List.map (fun (n, c) -> Coremark (n, c, it)) table3)
    [ iterations ~minimal:false; iterations ~minimal:true ]
  @ range alloc_rounds (fun r -> Alloc_isa r)
  @ range iot_packets (fun p -> Iot_isa p)

let pins () =
  Coremark.calibrate ();
  List.concat_map
    (fun p ->
      let out =
        match p with
        | Coremark (_, c, it) -> render_coremark (Coremark.run ~iterations:it c)
        | Alloc_isa _ | Iot_isa _ ->
            let m = machine p in
            let perf = Perf.create ~params:stream_params m in
            perf_run perf;
            render_perf m perf.Perf.stats
      in
      let m = machine p in
      run_tier Machine.Dispatch_ref m;
      [ (run_id p, out); (tiers_id p, tier_out m) ])
    (all_programs ())

let workload = { name = "guest_exec"; ops; replica; pins; domains = [] }
