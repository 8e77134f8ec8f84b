open Orianna_isa
open Orianna_hw

(* The measured side of the profile-guided optimization loop: [Opt]
   owns the passes and the accept-if-better fixpoint, this module
   closes the loop with the cycle-level scheduler — compile ->
   [Schedule.run] -> operand-stall attribution -> feed both the cycle
   count and the per-producer stall weights back into the optimizer. *)

let probe ?accel ?(policy = Schedule.Ooo_full) () : Opt.probe =
  let accel = match accel with Some a -> a | None -> Accel.base () in
  fun p ->
    let r = Schedule.run ~accel ~policy p in
    (r.Schedule.cycles, Trace.operand_stalls p r)

let optimize_traced ?accel ?(policy = Schedule.Ooo_full) ~level p =
  (* The static levels are the compiler's: level 0 is [Opt]'s identity. *)
  if Opt.clamp_level level <= Opt.last_static_level then Opt.optimize_traced ~level:0 p
  else
    let accel = match accel with Some a -> a | None -> Accel.base () in
    Opt.optimize_traced ~level ~cost_model:(Accel.cost_model accel)
      ~probe:(probe ~accel ~policy ()) p

let optimize ?accel ?policy ~level p =
  let p', _, _ = optimize_traced ?accel ?policy ~level p in
  p'
