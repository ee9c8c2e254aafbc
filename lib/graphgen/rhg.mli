(** Random-hyperbolic-like graphs (simplified model; see DESIGN.md
    substitutions).

    Preserves the three Fig. 10-relevant RHG properties: a power-law
    degree distribution with hubs (Pareto out-stubs, exponent [gamma]),
    moderate locality (log-uniform target distances over an angular id
    layout), and low diameter. *)

(** Collective; deterministic in [seed].  [gamma] defaults to 2.8 and
    [avg_degree] to 8. *)
val generate :
  Kamping.Communicator.t ->
  n_per_rank:int ->
  ?gamma:float ->
  ?avg_degree:float ->
  seed:int ->
  unit ->
  Distgraph.t
