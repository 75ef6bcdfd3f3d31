package server

// The wire types of the smtflexd HTTP/JSON API. Field names are stable:
// clients and the CI smoke test depend on them.

// SweepRequest asks for a full design-space sweep: one design evaluated at
// every thread count 1..24 for a workload kind. Identical in-flight sweeps
// are coalesced across requests, and completed sweeps are served from the
// engine cache.
type SweepRequest struct {
	// Design is one of the paper's design names (e.g. "4B", "2B4m", "20s").
	Design string `json:"design"`
	// SMT enables simultaneous multithreading; absent means true.
	SMT *bool `json:"smt,omitempty"`
	// Kind is "homogeneous" (default) or "heterogeneous".
	Kind string `json:"kind,omitempty"`
	// BandwidthGBps overrides off-chip memory bandwidth; 0 keeps the
	// design's default (8 GB/s), and a negative value is refused.
	BandwidthGBps float64 `json:"bandwidth_gbps,omitempty"`
}

// SweepResponse carries the per-thread-count averages and per-mix detail.
// Index i of each array is thread count i+1.
type SweepResponse struct {
	Design   string      `json:"design"`
	Kind     string      `json:"kind"`
	STP      []float64   `json:"stp"`
	ANTT     []float64   `json:"antt"`
	Watts    []float64   `json:"watts"`
	MixNames []string    `json:"mix_names"`
	ByMix    [][]float64 `json:"by_mix"`
	// Solver summarizes the contention solver's convergence diagnostics over
	// every evaluation in the sweep: the worst-case iteration count and final
	// residual, and whether every solve terminated by convergence.
	Solver SolverDiag `json:"solver"`
	// MachStats carries the CPI-stack attachment when the request asked for
	// it with ?machstats=1; absent otherwise.
	MachStats *SweepMachStats `json:"mach_stats,omitempty"`
}

// SolverDiag is the wire form of the solver's convergence diagnostics.
type SolverDiag struct {
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	Converged  bool    `json:"converged"`
}

// StackComponent is one component of a CPI stack on the wire.
type StackComponent struct {
	Component string  `json:"component"`
	CPI       float64 `json:"cpi"`
}

// ThreadStack is one thread's placement and CPI-stack detail on the wire.
type ThreadStack struct {
	Program   string           `json:"program"`
	Core      int              `json:"core"`
	IPC       float64          `json:"ipc"`
	UopsPerNs float64          `json:"uops_per_ns"`
	Total     float64          `json:"total_cpi"`
	Stack     []StackComponent `json:"stack"`
}

// SweepMachStats is the optional machine-stats attachment of a sweep
// response (?machstats=1): the mean per-thread CPI stack at each thread
// count, index i being thread count i+1.
type SweepMachStats struct {
	MeanStacks [][]StackComponent `json:"mean_stacks"`
}

// PlaceMachStats is the optional machine-stats attachment of a placement
// response (?machstats=1): the per-thread CPI stacks, indexed like the
// request's programs.
type PlaceMachStats struct {
	Threads []ThreadStack `json:"threads"`
}

// PlaceRequest asks for a single scheduling query: place the given programs
// (one per thread) on a design and report the placement and its metrics —
// the online query shape of SYNPA-style schedulers.
type PlaceRequest struct {
	Design   string   `json:"design"`
	SMT      *bool    `json:"smt,omitempty"`
	Programs []string `json:"programs"`
}

// PlaceResponse reports the thread-to-core assignment and system metrics.
type PlaceResponse struct {
	Design string `json:"design"`
	// CoreOf[i] is the core index thread i was assigned to.
	CoreOf         []int      `json:"core_of"`
	STP            float64    `json:"stp"`
	ANTT           float64    `json:"antt"`
	Watts          float64    `json:"watts"`
	WattsUngated   float64    `json:"watts_ungated"`
	BusUtilization float64    `json:"bus_utilization"`
	Solver         SolverDiag `json:"solver"`
	// MachStats carries the per-thread CPI stacks when the request asked for
	// them with ?machstats=1; absent otherwise.
	MachStats *PlaceMachStats `json:"mach_stats,omitempty"`
}

// JobsimRequest runs the dynamic job-stream scenario on each named design.
type JobsimRequest struct {
	// Designs lists design names; empty means the jobsim CLI's default set.
	Designs []string `json:"designs,omitempty"`
	SMT     *bool    `json:"smt,omitempty"`
	// Jobs is the number of jobs (default 40).
	Jobs int `json:"jobs,omitempty"`
	// InterarrivalNs is the mean inter-arrival time (default 1.5e6).
	InterarrivalNs float64 `json:"interarrival_ns,omitempty"`
	// WorkUops is the mean job length (default 2e7).
	WorkUops float64 `json:"work_uops,omitempty"`
	// Seed drives the Poisson workload (default 2014).
	Seed uint64 `json:"seed,omitempty"`
}

// JobsimRun is one design's outcome.
type JobsimRun struct {
	Design           string  `json:"design"`
	MakespanNs       float64 `json:"makespan_ns"`
	MeanTurnaroundNs float64 `json:"mean_turnaround_ns"`
	MeanActive       float64 `json:"mean_active"`
	EnergyJoules     float64 `json:"energy_joules"`
}

// JobsimResponse lists runs in request order.
type JobsimResponse struct {
	Runs []JobsimRun `json:"runs"`
}

// TableResponse is a figure or table in machine-readable form, mirroring
// study.Table.
type TableResponse struct {
	Title string      `json:"title"`
	Rows  []string    `json:"rows"`
	Cols  []string    `json:"cols"`
	Cells [][]float64 `json:"cells"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthzResponse is the body of GET /healthz. Role is "solo",
// "coordinator" or "worker"; Status is "ok" normally and "draining" (with a
// 503) while the daemon finishes in-flight work before exit. A coordinator
// also reports its live view of the fleet so one scrape answers which
// workers are reachable.
type HealthzResponse struct {
	Status  string         `json:"status"`
	Role    string         `json:"role"`
	Workers []WorkerHealth `json:"workers,omitempty"`
}

// WorkerHealth is one worker's liveness row in a coordinator's /healthz.
// Breaker is the worker's circuit-breaker position: "closed", "open" or
// "half-open".
type WorkerHealth struct {
	URL     string `json:"url"`
	Alive   bool   `json:"alive"`
	Breaker string `json:"breaker,omitempty"`
	LastErr string `json:"last_err,omitempty"`
}
