package main

import (
	"fmt"
	"strings"

	"loadmax/internal/job"
	"loadmax/internal/workload"
)

// Workload is one traffic mix driven through the real stack. Every
// workload runs the threshold policy (Algorithm 1) at ε = 0.1, hash-by-id
// routing at every tier, and two client connections from one process.
type Workload struct {
	Name string `json:"name"`
	// Why is the reason the workload exists: the layer it loads and the
	// layers it leaves idle, so a change predicted to move one layer has a
	// workload where it should show and one where it should not.
	Why string `json:"why"`

	Family   string `json:"family"`   // workload generator
	Shards   int    `json:"shards"`   // shards per service
	Machines int    `json:"machines"` // machines per shard
	// Groups > 0 puts a gateway in front of that many backend groups,
	// each a primary and a warm standby.
	Groups  int  `json:"groups"`
	Durable bool `json:"durable"` // per-shard WAL on local disk

	FrameJobs int     `json:"frame_jobs"`      // jobs per SUBMIT (1) or SUBMIT-BATCH frame
	Rate      float64 `json:"rate_jobs_per_s"` // open-loop offered rate
	Conns     int     `json:"conns"`           // client connections
	// ClosedFrames is the number of frames in flight in the closed-loop
	// (saturation) phase.
	ClosedFrames int `json:"closed_frames_in_flight"`
	// ClosedRoundJobs is the job count of one closed-loop round, sized
	// to about half a second at the measured capacity. Each round runs
	// on a fresh stack, which bounds the memory the decision logs take.
	ClosedRoundJobs int `json:"closed_round_jobs"`

	Eps    float64 `json:"eps"`
	Load   float64 `json:"load_per_machine"` // generator's offered load per machine
	Policy string  `json:"policy"`
}

// workloads is the benchmark's fixed workload table.
var workloads = []Workload{
	{
		Name:   "durable-single",
		Why:    "loadmaxd shape with a WAL: 4 shards x 64 machines, one job per SUBMIT frame at 4k jobs/s; the fsync per commit group dominates and decide is ~1% of the work",
		Family: "poisson", Shards: 4, Machines: 64, Durable: true,
		FrameJobs: 1, Rate: 4_000, Conns: 2, ClosedFrames: 256, ClosedRoundJobs: 16384,
	},
	{
		Name:   "batch-large-m",
		Why:    "4 shards x 1024 machines fed 256-job SUBMIT-BATCH frames at 128k jobs/s: policy decide and the serve batch path dominate; wire costs are amortized and there is no WAL",
		Family: "bimodal", Shards: 4, Machines: 1024,
		FrameJobs: 256, Rate: 128_000, Conns: 2, ClosedFrames: 8, ClosedRoundJobs: 1 << 19,
	},
	{
		Name:   "gateway-mirror",
		Why:    "2 primary+standby groups behind the gateway, two netserve hops, one job per frame at 2.5k jobs/s: the one-batch-in-flight group sequencer and the mirror do the work",
		Family: "poisson", Shards: 2, Machines: 64, Groups: 2,
		FrameJobs: 1, Rate: 2_500, Conns: 2, ClosedFrames: 64, ClosedRoundJobs: 1 << 15,
	},
}

func init() {
	for i := range workloads {
		w := &workloads[i]
		w.Eps, w.Load, w.Policy = 0.1, 1.5, "threshold"
	}
}

func workloadByName(name string) (Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// totalMachines is the machine count the generator's load target refers
// to: every shard of every verdict-path service.
func (w Workload) totalMachines() int {
	return max(w.Groups, 1) * w.Shards * w.Machines
}

// jobs generates n jobs, release-ordered with IDs 0..n-1, rounded down to
// whole frames. The system under test receives only these jobs.
func (w Workload) jobs(n int, seed int64) (job.Instance, error) {
	fam, ok := workload.ByName(w.Family)
	if !ok {
		return nil, fmt.Errorf("unknown generator family %q", w.Family)
	}
	n -= n % w.FrameJobs
	if n < w.FrameJobs {
		n = w.FrameJobs
	}
	return fam.Gen(workload.Spec{N: n, Eps: w.Eps, M: w.totalMachines(), Load: w.Load, Seed: seed}), nil
}

// roundJobs generates the jobs of open-loop round r.
func (w Workload) roundJobs(seed int64, r int) (job.Instance, error) {
	return w.jobs(int(w.Rate*openRoundTime.Seconds()), subSeed(seed, r))
}
