package loadmax

// One benchmark per reproduced paper artifact (tables/figures — see
// DESIGN.md §4), each driving the corresponding experiment end to end in
// Quick mode, plus microbenchmarks of the hot paths. Regenerate the full
// artifacts with: go run ./cmd/experiments
import (
	"fmt"
	"testing"

	"loadmax/internal/core"
	"loadmax/internal/experiments"
	"loadmax/internal/job"
	"loadmax/internal/online"
	"loadmax/internal/ratio"
	"loadmax/internal/sim"
	"loadmax/internal/workload"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	d, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(experiments.Options{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1_Fig1Curves regenerates the Figure-1 curve data (c(ε,m) for
// m = 1..4 with phase-transition circles).
func BenchmarkE1_Fig1Curves(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_ClosedForms validates Equation (1) and the last-three-phase
// exact terms against the numeric recursion.
func BenchmarkE2_ClosedForms(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_DecisionTree regenerates the Figure-2/3 decision tree and
// schedules for m = 3.
func BenchmarkE3_DecisionTree(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_LowerBound plays the Theorem-1 adversary across the (ε,m)
// grid against Threshold and greedy.
func BenchmarkE4_LowerBound(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_UpperBound validates the Theorem-2 guarantee on random
// workloads against exact/bounded OPT.
func BenchmarkE5_UpperBound(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_LnLimit sweeps m for the Proposition-1 limit ln(1/ε).
func BenchmarkE6_LnLimit(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_Randomized measures the Corollary-1 classify-and-select
// algorithm against the deterministic-killer instance.
func BenchmarkE7_Randomized(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_Baselines compares Threshold with the §1.2 related-work
// baselines under the adaptive adversary and random workloads.
func BenchmarkE8_Baselines(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_Ablations runs the allocation-policy / phase-override /
// footnote-2 ablations.
func BenchmarkE9_Ablations(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10_Commitment measures the price-of-commitment spectrum
// (immediate / delayed / on-admission / preemptive / migration).
func BenchmarkE10_Commitment(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11_Weighted runs the general-weights impossibility sweep.
func BenchmarkE11_Weighted(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12_Penalties sweeps the revocation fine of the
// commitment-with-penalties model.
func BenchmarkE12_Penalties(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13_WorstCaseHunt random-searches for Theorem-2
// counterexamples against exact OPT.
func BenchmarkE13_WorstCaseHunt(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14_Performance measures decision latency and simulation
// throughput across machine counts.
func BenchmarkE14_Performance(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15_UnitJobs validates the no-slack equal-length regime
// (Baruah trap, Ding et al. parallel limit).
func BenchmarkE15_UnitJobs(b *testing.B) { benchExperiment(b, "E15") }

// --- Microbenchmarks -------------------------------------------------------

// BenchmarkSubmit measures the per-job admission decision of both core
// engines — the seed's naive engine and the default incremental one —
// across machine counts, on a 20k-job poisson stream at ε = 0.1 and
// load 1.5. Both engines decide bit-identically: m ≤ 512 is held by
// internal/core's equivalence tests, and the m = 4096 stream, too slow
// for the test suite, is replayed through both in lockstep once, before
// its first timed run.
func BenchmarkSubmit(b *testing.B) {
	for _, m := range []int{2, 8, 64, 512, 4096} {
		inst := workload.Poisson(workload.Spec{N: 20000, Eps: 0.1, M: m, Load: 1.5, Seed: 42})
		checked := m < 4096
		for _, engine := range []string{"naive", "incremental"} {
			b.Run(fmt.Sprintf("m=%d/%s", m, engine), func(b *testing.B) {
				if !checked {
					checked = true
					lockstepEngines(b, m, inst)
				}
				var opts []core.Option
				if engine == "naive" {
					opts = append(opts, core.WithNaiveCore())
				}
				th, err := core.New(m, 0.1, opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.Submit(inst[i%len(inst)])
					if (i+1)%len(inst) == 0 {
						b.StopTimer()
						th.Reset()
						b.StartTimer()
					}
				}
			})
		}
	}
}

// lockstepEngines fails b unless the naive and incremental engines make
// identical decisions on inst.
func lockstepEngines(b *testing.B, m int, inst job.Instance) {
	b.Helper()
	naive, err := core.New(m, 0.1, core.WithNaiveCore())
	if err != nil {
		b.Fatal(err)
	}
	inc, err := core.New(m, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	if div := online.Lockstep(naive, inc, inst); div != nil {
		b.Fatalf("engines diverged at m=%d: %v", m, div)
	}
}

// BenchmarkSimulate10k replays a 10k-job Poisson instance end to end with
// verification.
func BenchmarkSimulate10k(b *testing.B) {
	inst := workload.Poisson(workload.Spec{N: 10000, Eps: 0.1, M: 8, Seed: 42})
	th, err := core.New(8, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(th, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatioSolve measures one c(ε,m) recursion solve at m = 64.
func BenchmarkRatioSolve(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ratio.Compute(0.01, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversaryGame plays one full lower-bound game (m = 8).
func BenchmarkAdversaryGame(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		th, err := NewScheduler(8, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Adversary(th, 0.05, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGen measures generating a 10k-job Pareto instance.
func BenchmarkWorkloadGen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		workload.Pareto(workload.Spec{N: 10000, Eps: 0.1, M: 8, Seed: int64(i)})
	}
}
