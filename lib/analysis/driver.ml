(* Reusable auditor driver: the logic behind `cheriot_audit`, factored
   out of the binary so the exit-code contract and report determinism
   are unit-testable.

   Exit-code contract (tested in test_audit), computed once in [gate],
   [report_gate] and [exact_gate]:
     0  clean (no findings; corpus detected exactly)
     1  findings on shipped images, or a corpus exactness failure
     2  analysis error, unknown image name, unknown rule id, or a rule
        no corpus image expects

   Findings are sorted by (compartment, pc, rule id) before JSON
   emission, so reports are byte-stable across runs and refactors of
   emission order. *)

module Loader = Cheriot_rtos.Loader
module Machine = Cheriot_isa.Machine
module Asm = Cheriot_isa.Asm

type images = (string * (unit -> Loader.t)) list

(* `--rule` accepts plan ids too, so `rules` output is uniformly usable
   as filter arguments across subcommands. *)
let catalogue = Rules.catalogue @ Rules.plan_catalogue

(* [matches sel x]: an absent selection matches everything. *)
let matches sel x = Option.fold ~none:true ~some:(String.equal x) sel

(* [refuse name fmt ...]: one "<name>: ..." line on stderr, and exit 2. *)
let refuse name fmt =
  Printf.ksprintf (fun msg -> Printf.eprintf "%s: %s\n%!" name msg; 2) fmt

(* [gate name ?images ?image ?rule body]: the one place a subcommand
   selects [images] (all, or only [image]), rejects an unknown image or
   rule id and turns an exception into an analysis error.  Otherwise
   [body] gets the selected images and returns the exit code. *)
let gate name ?(images : images = []) ?image ?rule body =
  match (List.filter (fun (n, _) -> matches image n) images, image, rule) with
  | [], Some n, _ -> refuse name "unknown image %S" n
  | _, _, Some r when not (List.mem_assoc r catalogue) ->
      refuse name "unknown rule %S" r
  | imgs, _, _ -> (
      try body imgs
      with e -> refuse name "analysis error: %s" (Printexc.to_string e))

(* [report_gate name ~images ?image ?rule ~clean ~dirty audit] audits
   every selected image, prints the sorted, [rule]-filtered JSON report,
   and returns 0 with [clean n_images] on stderr, or 1 with
   [dirty n_findings]. *)
let report_gate name ~images ?image ?rule ~clean ~dirty audit =
  let findings build =
    List.filter
      (fun (f : Rules.finding) -> matches rule f.Rules.rule)
      (Rules.sort_findings (audit (build ())))
  in
  gate name ~images ?image ?rule (fun imgs ->
      let report = List.map (fun (n, build) -> (n, findings build)) imgs in
      print_endline (Rules.report_to_json report);
      let total = List.length (List.concat_map snd report) in
      Printf.eprintf "%s: %s\n%!" name
        (if total = 0 then clean (List.length report) else dirty total);
      if total = 0 then 0 else 1)

(* [exact_gate name ~summary check entries] prints one PASS or FAIL line
   per entry, from [check]'s [Ok] or [Error] text, and returns 0 with
   "n/n [summary]" on stderr when every entry passed, else 1. *)
let exact_gate name ~summary check entries =
  let passed e =
    match check e with
    | Ok s ->
        Printf.eprintf "%s: PASS %s\n%!" name s;
        true
    | Error s ->
        Printf.eprintf "%s: FAIL %s\n%!" name s;
        false
  in
  let ok = List.fold_left (fun ok e -> passed e && ok) true entries in
  let n = List.length entries in
  if ok then Printf.eprintf "%s: %d/%d %s\n%!" name n n summary;
  if ok then 0 else 1

(* [shipped ~images ?name ?rule ()] audits the shipped catalogue (or the
   single image [name]) and prints the JSON report. *)
let shipped ~images ?name ?rule () =
  report_gate "shipped" ~images ?image:name ?rule
    ~clean:(Printf.sprintf "%d images clean")
    ~dirty:(Printf.sprintf "%d findings on shipped images")
    Audit.run

(* [corpus ?rule ()] checks every corpus image (or only those expecting
   [rule]) trips exactly its expected rule.  A rule no corpus image
   expects (every plan-* id) selects nothing, which proves nothing: exit
   2, not a vacuous pass. *)
let corpus ?rule () =
  let check (e : Corpus.entry) =
    let findings = Audit.run (e.Corpus.build ()) in
    let expected (f : Rules.finding) = f.Rules.rule = e.Corpus.rule in
    let hit = List.exists expected findings in
    let spurious = List.filter (fun f -> not (expected f)) findings in
    if hit && spurious = [] then
      Ok (Printf.sprintf "%-26s -> %s" e.Corpus.name e.Corpus.rule)
    else
      Error
        (String.concat "\n         "
           ((Printf.sprintf "%-26s expected %s" e.Corpus.name e.Corpus.rule
            :: (if hit then [] else [ "missed (false negative)" ]))
           @ List.map (Format.asprintf "spurious: %a" Rules.pp_finding)
               spurious))
  in
  let expects (e : Corpus.entry) = matches rule e.Corpus.rule in
  gate "corpus" ?rule (fun _ ->
      match (List.filter expects Corpus.entries, rule) with
      | [], Some r -> refuse "corpus" "no corpus image expects rule %S" r
      | entries, _ ->
          exact_gate "corpus" ~summary:"images detected exactly" check entries)

(* [all]: shipped + corpus; the worst exit code wins.  The two codes are
   bound in order: [max (f ()) (g ())] would run [g] first. *)
let all ~images ?rule () =
  let a = shipped ~images ?rule () in
  let b = corpus ?rule () in
  max a b

let rules () =
  List.iter (fun (id, doc) -> Printf.printf "%-26s %s\n" id doc) catalogue;
  0

(* --- plan-soundness gate (Planverify, DESIGN.md §14) -------------------- *)

(* A counterexample is pinned to the compartment whose code region holds
   the block; switcher/trap-stub blocks report as "system". *)
let plan_compartment (t : Loader.t) (p : Planverify.plan) =
  let pc = p.Planverify.p_block.Machine.b_start in
  let holds ((_, b) : string * Loader.built) =
    let o = b.Loader.image.Asm.origin in
    pc >= o && pc < o + Asm.bytes_size b.Loader.image
  in
  Option.fold ~none:"system" ~some:fst
    (List.find_opt holds t.Loader.compartments)

(* [plans ~images ?name ?rule ()] boots each shipped image, runs it
   under the jit tier ({!Planverify.collect} forces it hot so every
   reachable block compiles), collects every emitted plan and verifies
   it.  Same report shape and exit-code contract as [shipped]; [rule]
   filters the report the same way. *)
let plans ~images ?name ?rule () =
  let verified = ref 0 in
  let audit t =
    let ps = Planverify.collect t.Loader.machine in
    verified := !verified + List.length ps;
    List.filter_map
      (fun p ->
        match Planverify.verify_plan p with
        | Planverify.Sound -> None
        | Planverify.Unsound cx ->
            Some
              (Planverify.finding_of ~compartment:(plan_compartment t p) p cx))
      ps
  in
  report_gate "plans" ~images ?image:name ?rule
    ~clean:(fun n ->
      Printf.sprintf "%d images, %d plans proved sound" n !verified)
    ~dirty:(Printf.sprintf "%d unsound plans on shipped images")
    audit

(* [plan_mutants ()]: every seeded optimizer bug must be refuted with
   exactly its expected plan-* rule — the corpus exactness gate for the
   verifier itself. *)
let plan_mutants () =
  let check (e : Planmutants.entry) =
    let cheri, insns, chks, guards, defer = e.Planmutants.pm_build () in
    match Planverify.verify ~cheri ?defer insns chks guards with
    | Planverify.Unsound cx when cx.Planverify.cx_rule = e.Planmutants.pm_rule ->
        Ok (Printf.sprintf "%-26s -> %s" e.Planmutants.pm_name cx.cx_rule)
    | Planverify.Unsound cx ->
        Error
          (Printf.sprintf "%-26s expected %s, refuted as %s (%s)"
             e.Planmutants.pm_name e.Planmutants.pm_rule cx.cx_rule
             cx.cx_detail)
    | Planverify.Sound ->
        Error
          (Printf.sprintf "%-26s expected %s, proved Sound (false negative)"
             e.Planmutants.pm_name e.Planmutants.pm_rule)
  in
  gate "plan-mutants" (fun _ ->
      exact_gate "plan-mutants" ~summary:"mutants refuted exactly" check
        Planmutants.entries)

(* [plans_all]: shipped plans + mutants; the worst exit code wins, bound
   in order as in [all]. *)
let plans_all ~images ?name ?rule () =
  let a = plans ~images ?name ?rule () in
  let b = plan_mutants () in
  max a b

(* --- incremental re-audit (Summary cache, DESIGN.md §15) ---------------- *)

module Encode = Cheriot_isa.Encode
module Insn = Cheriot_isa.Insn
module Sram = Cheriot_mem.Sram

(* [patch_first_opimm t] simulates a one-compartment recompile: scanning
   compartments in link order, the first code word that decodes to a
   small [Op_imm Add] gets its immediate bumped by one.  Deterministic,
   so patching two fresh builds of the same image yields byte-identical
   SRAM.  Returns the patched compartment's name. *)
let patch_first_opimm (t : Loader.t) =
  let patch ((name, b) : string * Loader.built) =
    let limit = b.Loader.image.Asm.origin + Asm.bytes_size b.Loader.image in
    let rec go a =
      if a >= limit then None
      else
        match Encode.decode (Sram.read32 t.Loader.sram a) with
        | Some (Insn.Op_imm (Insn.Add, rd, rs1, imm))
          when rd <> 0 && imm >= 0 && imm < 2000 ->
            Sram.write32 t.Loader.sram a
              (Encode.encode (Insn.Op_imm (Insn.Add, rd, rs1, imm + 1)));
            Some name
        | _ -> go (a + 4)
    in
    go b.Loader.image.Asm.origin
  in
  List.find_map patch t.Loader.compartments

(* [incremental ~images ?name ()] exercises the summary cache end to
   end, per image: prime the cache on a cold audit, apply the
   one-compartment patch to a fresh build, re-audit warm (reusing every
   summary whose content hash is unchanged) and from scratch, and
   demand (a) the two sorted reports are byte-identical and (b) the
   cache was reused for exactly the untouched compartments.  Exit 0
   only when both hold for every image. *)
let incremental ~images ?name () =
  let audit (n, build) =
    let cache = Summary.create_cache () in
    ignore (Audit.run_stats ~cache (build ()));
    let patched = build () in
    let pname = patch_first_opimm patched in
    let warm, st = Audit.run_stats ~cache patched in
    let cold = build () in
    ignore (patch_first_opimm cold);
    let json fs = Rules.report_to_json [ (n, Rules.sort_findings fs) ] in
    let identical = String.equal (json warm) (json (Audit.run cold)) in
    let reused =
      st.Audit.cache_hits = st.Audit.compartments - if pname = None then 0 else 1
    in
    Printf.eprintf
      "incremental: %-12s %d compartments, patched %s: %d reused / %d \
       re-analyzed, reports %s\n%!"
      n st.Audit.compartments (Option.value pname ~default:"none")
      st.Audit.cache_hits st.Audit.cache_misses
      (if identical then "identical" else "DIVERGED");
    ( Printf.sprintf
        "{\"image\":\"%s\",\"compartments\":%d,\"patched\":%s,\
         \"cache_hits\":%d,\"cache_misses\":%d,\"identical\":%b}"
        (Rules.json_escape n) st.Audit.compartments
        (match pname with
        | Some c -> Printf.sprintf "\"%s\"" (Rules.json_escape c)
        | None -> "null")
        st.Audit.cache_hits st.Audit.cache_misses identical,
      identical && reused )
  in
  gate "incremental" ~images ?image:name (fun imgs ->
      let results = List.map audit imgs in
      let ok = List.for_all snd results in
      Printf.printf "{\"mode\":\"incremental\",\"images\":[%s],\"ok\":%b}\n"
        (String.concat "," (List.map fst results)) ok;
      if ok then 0 else 1)
