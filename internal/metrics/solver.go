package metrics

// SolverStat indexes the exact-optimum solver's feasibility-probe
// counters: how many max-flow probes ran, how many were answered from
// the monotone memo without touching a network, how many reused a warm
// (Reset + rescaled) network, and how many built a network from scratch.
type SolverStat int

const (
	SolverProbe SolverStat = iota
	SolverMemoHit
	SolverWarmReuse
	SolverColdBuild
)

// solverRows declares the solver counters, indexed by SolverStat.
var solverRows = [...]Counter{
	SolverProbe:     {Key: "probes", Name: "ringsched_solver_probes_total", Help: "Feasibility max-flow probes since this server started."},
	SolverMemoHit:   {Key: "memoHits", Name: "ringsched_solver_memo_hits_total", Help: "Probes answered by the monotone feasibility memo."},
	SolverWarmReuse: {Key: "warmReuses", Name: "ringsched_solver_warm_reuses_total", Help: "Probes served by resetting a warm flow network."},
	SolverColdBuild: {Key: "coldBuilds", Name: "ringsched_solver_cold_builds_total", Help: "Feasibility networks built from scratch."},
}

// Solver is the process-wide solver counter block fed by internal/opt.
// It is atomic, so the parallel suite runner in internal/experiment can
// solve many cases concurrently while one block stays consistent;
// cmd/ringexp republishes deltas via expvar and ringserve renders them
// on /metrics.
var Solver = NewCounters[SolverStat](solverRows[:])
