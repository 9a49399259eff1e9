(* Cross-module flow: the secret reaches a branch two modules away
   (fx_bad_interproc -> fx_interproc_mid -> fx_interproc_helper).  The
   finding must land at the call site here, carrying the full chain.

   Seen one module at a time, [Fx_interproc_mid.relay] is just an opaque
   call; only the summaries of mid and helper reveal the flow, and with
   the helper left out of the surface the call is [unanalyzed-module]. *)

let launder (x [@secret]) =
  Fx_interproc_mid.relay x (* EXPECT: secret-branch *)
  [@@oblivious]

(* The same call on public data stays clean: the summary's sink is on
   the parameter, not ambient. *)
let public_path () = Fx_interproc_mid.relay 7 [@@oblivious]

(* A sink-free helper chain stays clean even with a secret argument. *)
let pure_path (x [@secret]) = Fx_interproc_mid.relay_pure x [@@oblivious]
