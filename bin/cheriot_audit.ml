(* Static firmware auditor driver (the CLI face of {!Cheriot_analysis.Driver}).

   Subcommands:

     shipped [NAME]   audit every image in Firmware.shipped (or just
                      NAME); print the JSON findings report
     corpus           audit the deliberately-bad corpus; each image must
                      yield findings for exactly its expected rule
     all              both of the above (the `make audit` CI gate)
     plans [NAME]     run each shipped image under the jit tier,
                      statically verify every compiled check plan sound,
                      then refute the seeded optimizer mutants (the
                      `make verify-plans` CI gate); same JSON report
                      shape
     incremental [NAME]  prime the summary cache, patch one compartment
                      and re-audit warm: exits 0 only when the warm
                      report is byte-identical to a from-scratch audit
                      and every untouched compartment's summary was
                      reused (the `make audit-incremental` CI gate)
     rules            list the rule catalogue (image + plan rules)

   All image-auditing subcommands accept `--rule ID` to restrict the
   report (shipped, plans) or the corpus selection to one rule.

   Exit codes: 0 clean; 1 findings / corpus failure; 2 analysis error,
   unknown image or unknown rule.

   JSON schema (see README):
     { "images": [ { "image": <name>,
                     "findings": [ { "rule": <id>, "compartment": <name>,
                                     "pc": <int, optional>,
                                     "detail": <string> } ] } ],
       "total_findings": <int> }                                        *)

open Cmdliner
module Driver = Cheriot_analysis.Driver
module Firmware = Cheriot_workloads.Firmware

let rule_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rule" ] ~docv:"ID" ~doc:"Restrict to findings for rule $(docv).")

let name_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"IMAGE" ~doc:"Audit only this shipped image.")

let () =
  let info =
    Cmd.info "cheriot_audit" ~version:"1.0"
      ~doc:"static auditor for linked CHERIoT firmware images"
  in
  let shipped =
    Cmd.v
      (Cmd.info "shipped" ~doc:"audit the shipped firmware images")
      Term.(
        const (fun name rule ->
            Driver.shipped ~images:Firmware.shipped ?name ?rule ())
        $ name_arg $ rule_arg)
  in
  let corpus =
    Cmd.v
      (Cmd.info "corpus" ~doc:"audit the deliberately-bad corpus")
      Term.(const (fun rule -> Driver.corpus ?rule ()) $ rule_arg)
  in
  let all =
    Cmd.v
      (Cmd.info "all" ~doc:"shipped + corpus (the CI gate)")
      Term.(
        const (fun rule -> Driver.all ~images:Firmware.shipped ?rule ())
        $ rule_arg)
  in
  let plans =
    Cmd.v
      (Cmd.info "plans"
         ~doc:"verify every compiled check plan sound; refute the mutants")
      Term.(
        const (fun name rule ->
            Driver.plans_all ~images:Firmware.shipped ?name ?rule ())
        $ name_arg $ rule_arg)
  in
  let incremental =
    Cmd.v
      (Cmd.info "incremental"
         ~doc:
           "re-audit patched images through the summary cache; fail unless \
            warm reports match cold byte-for-byte")
      Term.(
        const (fun name -> Driver.incremental ~images:Firmware.shipped ?name ())
        $ name_arg)
  in
  let rules =
    Cmd.v
      (Cmd.info "rules" ~doc:"list the rule catalogue")
      Term.(const Driver.rules $ const ())
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ shipped; corpus; all; plans; incremental; rules ]))
