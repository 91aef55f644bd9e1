let src = Logs.Src.create "xkernel" ~doc:"x-kernel protocol tracing"

module Log = (val Logs.src_log src : Logs.LOG)

let reporter_installed = ref false

let set_level level =
  if not !reporter_installed then begin
    Logs.set_reporter (Logs.format_reporter ());
    reporter_installed := true
  end;
  Logs.Src.set_level src level

let stamp sim = Sim.now sim *. 1e3

(* Checked before building the [Log.debug] closure or formatting
   anything: trace points sit on per-packet paths. *)
let debug_on () =
  match Logs.Src.level src with Some Logs.Debug -> true | _ -> false

let packet sim ~host ~proto ~dir msg =
  if debug_on () then begin
    let arrow = match dir with `Send -> "->" | `Recv -> "<-" in
    Log.debug (fun m ->
        m "[%8.3fms] %s %s %s %a" (stamp sim) host proto arrow Msg.pp msg)
  end

let debugf sim ~host fmt =
  if debug_on () then
    Format.kasprintf
      (fun s -> Log.debug (fun m -> m "[%8.3fms] %s %s" (stamp sim) host s))
      fmt
  else Format.ikfprintf ignore Format.err_formatter fmt
