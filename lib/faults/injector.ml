module Env = Bfdn_sim.Env

(* The hook's predicates sit on the round loop's per-robot path, so they
   are specialized at compile-from-plan time: a mask-free plan answers
   [fh_down] with two array loads instead of re-matching the mask
   variant every call, and a plan whose crashes are all permanent lets
   [Env.apply] skip the restart sweep entirely. *)
let hook plan =
  if Fault_plan.quiet plan then Env.fault_noop
  else
    let crash = plan.Fault_plan.crash_at in
    let restart = plan.Fault_plan.restart_at in
    let fh_down =
      match plan.Fault_plan.mask with
      | Fault_plan.No_mask ->
          fun ~round ~robot ->
            round >= crash.(robot) && round < restart.(robot)
      | _ -> fun ~round ~robot -> Fault_plan.down plan ~round ~robot
    in
    {
      Env.fh_enabled = true;
      fh_down;
      fh_restart = (fun ~round ~robot -> restart.(robot) = round + 1);
      fh_may_restart = Array.exists (fun r -> r < max_int) restart;
    }

let hook_opt = function None -> Env.fault_noop | Some plan -> hook plan
