(* WFQ is the Prog_wfq rank program.  This alias remains only because the
   benchmark's mesh workload (bench/suite/workloads.ml) still names [Wfq];
   the next change to the benchmark can drop it. *)
include Prog_wfq
