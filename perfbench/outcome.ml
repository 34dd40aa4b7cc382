(* What one workload run reports: the correctness verdict, operation
   counts, and metric values by name. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string, float) Hashtbl.t;
}
