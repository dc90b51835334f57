// Command arena races every registered admission policy over the same
// streams and reports accepted-mass-vs-OPT competitive curves. It
// measures decision quality, not speed: every number in its report is
// an exact model output, so the report is reproducible bit for bit
// (apart from the meta stamp) on any host. Two stream classes are
// covered:
//
//   - E-series adversarial: the Section 3 lower-bound adversary
//     (internal/adversary) plays each policy at every ε on the grid.
//     OPT here is the adversary's certified optimal schedule, so the
//     reported ratio is a genuine realized competitive ratio. A policy
//     that rejects the set-up job is recorded as unbounded (JSON has no
//     +Inf, so the point carries "unbounded": true and ratio 0).
//
//   - Workload-generator streams: every workload family is run through
//     every policy; OPT is the offline upper bound
//     (internal/offline.UpperBound), so the reported ratio is an upper
//     bound on the true competitive ratio at that point.
//
// Every workload point is also run in lockstep through two fresh
// instances of the same policy, proving the policy decides
// deterministically — the property VerifyReplay and WAL recovery lean
// on. A divergence, or an adversary protocol violation, fails the run.
//
// The schema is documented in EXPERIMENTS.md §E21.
//
// Usage:
//
//	go run ./cmd/arena                  # full arena → BENCH_arena.json
//	go run ./cmd/arena -quick -out -    # CI smoke: small n, two-point ε grid
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"loadmax/internal/adversary"
	"loadmax/internal/offline"
	"loadmax/internal/online"
	"loadmax/internal/policy"
	"loadmax/internal/workload"
)

// The arena's configuration. BENCH_arena.json is the run with these
// values; -quick shrinks n, the ε grid and the machine count.
var (
	policySpecs = []string{"threshold", "greedy",
		"delta-commit:delta=0.25", "delta-commit:delta=0.5", "delta-commit:delta=0.75"}
	epsGrid      = []float64{0.1, 0.25, 0.5, 1} // slack of the adversary games
	quickEpsGrid = []float64{0.25, 1}
)

const (
	machines      = 4
	quickMachines = 3
	jobs          = 2000 // per workload stream; the offline bound, not Submit, is the cost
	quickJobs     = 600
	load          = 1.5
	seed          = 42
	streamEps     = 0.1 // slack of the workload streams
)

// advPoint is one adversary game: one policy at one ε.
type advPoint struct {
	Policy       string  `json:"policy"`
	Eps          float64 `json:"eps"`
	M            int     `json:"m"`
	TheoreticalC float64 `json:"theoretical_c"` // c(ε,m), the Theorem 1 target
	Jobs         int     `json:"jobs"`
	ALGLoad      float64 `json:"alg_load"`
	OPTLoad      float64 `json:"opt_load"`
	Ratio        float64 `json:"ratio"` // OPT/ALG; 0 when unbounded
	Unbounded    bool    `json:"unbounded"`
	U            int     `json:"u"` // final phase-2 subphase
	H            int     `json:"h"` // final phase-3 subphase (0 = never ran)
}

// workPoint is one workload-generator stream: one policy × family.
type workPoint struct {
	Policy             string  `json:"policy"`
	Family             string  `json:"family"`
	Jobs               int     `json:"jobs"`
	Accepted           int     `json:"accepted"`
	AcceptedMass       float64 `json:"accepted_mass"`
	OfflineUpperBound  float64 `json:"offline_upper_bound"`
	CompetitiveRatio   float64 `json:"competitive_ratio"` // upper bound / accepted mass
	DeterminismChecked bool    `json:"determinism_checked"`
}

type workloadParams struct {
	Family string  `json:"family"`
	N      int     `json:"n"`
	Eps    float64 `json:"eps"`
	Load   float64 `json:"load"`
	Seed   int64   `json:"seed"`
}

// report is the full BENCH_arena.json document.
type report struct {
	Benchmark     string         `json:"benchmark"`
	SchemaVersion int            `json:"schema_version"`
	Meta          runMeta        `json:"meta"`
	Machines      int            `json:"machines"`
	Policies      []string       `json:"policies"`
	Workload      workloadParams `json:"workload"`
	Adversary     []advPoint     `json:"adversary"`
	Workloads     []workPoint    `json:"workloads"`
}

func main() {
	out := flag.String("out", "BENCH_arena.json", "output file for the JSON report ('-' = stdout)")
	quick := flag.Bool("quick", false, "small arena for CI smoke")
	flag.Parse()
	m, n, grid := machines, jobs, epsGrid
	if *quick {
		m, n, grid = quickMachines, quickJobs, quickEpsGrid
	}
	rep, err := run(m, n, grid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "-" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "arena:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// run plays every policy against the adversary at each ε of grid and
// through every workload family, printing a table as it goes.
func run(m, n int, grid []float64) (report, error) {
	builders := make([]policy.Builder, len(policySpecs))
	specs := make([]string, len(policySpecs))
	for i, spec := range policySpecs {
		b, err := policy.Parse(spec)
		if err != nil {
			return report{}, err
		}
		builders[i], specs[i] = b, b.Spec // canonical spelling in the report
	}
	rep := report{
		Benchmark:     "arena",
		SchemaVersion: 1,
		Meta:          collectMeta(),
		Machines:      m,
		Policies:      specs,
		Workload:      workloadParams{Family: "all", N: n, Eps: streamEps, Load: load, Seed: seed},
	}

	// --- E-series adversarial games.
	fmt.Printf("%-26s %-6s %8s %10s %10s %8s %10s\n",
		"policy", "eps", "jobs", "ALG", "OPT", "ratio", "c(eps,m)")
	for i, b := range builders {
		for _, eps := range grid {
			s, err := b.New(m, eps)
			if err != nil {
				return rep, fmt.Errorf("%s at eps=%g: %w", specs[i], eps, err)
			}
			out, err := adversary.Run(s, eps, adversary.Config{})
			if err != nil {
				return rep, fmt.Errorf("adversary vs %s at eps=%g: %w", specs[i], eps, err)
			}
			pt := advPoint{
				Policy: specs[i], Eps: eps, M: m,
				TheoreticalC: out.Params.C, Jobs: len(out.Instance),
				ALGLoad: out.ALGLoad, OPTLoad: out.OPTLoad,
				Unbounded: out.Unbounded, U: out.U, H: out.H,
			}
			ratioStr := "unbounded"
			if !out.Unbounded && !math.IsInf(out.Ratio, 0) {
				pt.Ratio = out.Ratio
				ratioStr = fmt.Sprintf("%.4f", out.Ratio)
			}
			rep.Adversary = append(rep.Adversary, pt)
			fmt.Printf("%-26s %-6g %8d %10.4f %10.4f %8s %10.4f\n",
				pt.Policy, pt.Eps, pt.Jobs, pt.ALGLoad, pt.OPTLoad, ratioStr, pt.TheoreticalC)
		}
	}

	// --- Workload-generator streams.
	fmt.Printf("\n%-26s %-16s %8s %10s %14s %10s %8s\n",
		"policy", "family", "jobs", "accepted", "accepted mass", "OPT ub", "ratio")
	for _, fam := range workload.Families {
		inst := fam.Gen(workload.Spec{N: n, Eps: streamEps, M: m, Load: load, Seed: seed})
		opt := offline.UpperBound(inst, m)
		for i, b := range builders {
			var s [3]policy.AdmissionPolicy // the measured run and the lockstep pair
			for k := range s {
				var err error
				if s[k], err = b.New(m, streamEps); err != nil {
					return rep, err
				}
			}
			pt := workPoint{Policy: specs[i], Family: fam.Name, Jobs: len(inst), OfflineUpperBound: opt}
			for _, j := range inst {
				if d := s[0].Submit(j); d.Accepted {
					pt.Accepted++
					pt.AcceptedMass += j.Proc
				}
			}
			if pt.AcceptedMass > 0 {
				pt.CompetitiveRatio = opt / pt.AcceptedMass
			}
			if div := online.Lockstep(s[1], s[2], inst); div != nil {
				return rep, fmt.Errorf("%s is nondeterministic on %s: %v", specs[i], fam.Name, div)
			}
			pt.DeterminismChecked = true
			rep.Workloads = append(rep.Workloads, pt)
			fmt.Printf("%-26s %-16s %8d %10d %14.3f %10.3f %8.4f\n",
				pt.Policy, pt.Family, pt.Jobs, pt.Accepted, pt.AcceptedMass,
				pt.OfflineUpperBound, pt.CompetitiveRatio)
		}
	}
	return rep, nil
}
