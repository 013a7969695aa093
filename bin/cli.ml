(* The exit contract both command-line tools share:

     0  success, or --help / --version
     1  the command ran and its verdict is a failure
     2  everything else: a usage error (unknown command or option value,
        missing argument), a rejected value, an analysis error, or an
        uncaught exception

   [run cmd] evaluates [cmd], whose term returns the exit code, and exits
   with it.  Cmdliner prints the message of a parse or term error, and
   the backtrace of an uncaught exception. *)

let run cmd =
  exit
    (match Cmdliner.Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term | `Exn) -> 2)
