(* Monotonic nanosecond clock, in seconds: spans around sub-microsecond
   hook calls need better than [Unix.gettimeofday]'s microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
