package core

import (
	"math"

	"loadmax/internal/job"
	"loadmax/internal/ratio"
)

// naiveCore is the seed implementation of the engine: it recomputes the
// loads and re-sorts the machine order on every clock advance, and scans
// all m−k+1 threshold terms per dlim call. It is retained — bit for bit —
// as the executable specification that the incremental engine is proved
// against by the differential harness, and as the baseline of
// BenchmarkSubmit.
type naiveCore struct {
	m int
	p ratio.Params

	t        float64
	horizons []float64 // per physical machine: completion time of committed work

	// scratch buffers reused across submissions to keep the hot path
	// allocation-free.
	order []int // machine indices sorted by decreasing load
	loads []float64
}

func newNaiveCore(m int, p ratio.Params) *naiveCore {
	return &naiveCore{
		m:        m,
		p:        p,
		horizons: make([]float64, m),
		order:    make([]int, m),
		loads:    make([]float64, m),
	}
}

func (e *naiveCore) reset() {
	e.t = 0
	for i := range e.horizons {
		e.horizons[i] = 0
	}
}

func (e *naiveCore) now() float64 { return e.t }

// advance sets the clock and refreshes the order: loads at the new time,
// machine indices sorted by decreasing load (ties by machine index, so
// the order — and with it the algorithm — is fully deterministic).
// Insertion sort keeps the hot path allocation-free and is adaptive:
// between consecutive submissions the order barely changes, so the
// common case is near-linear.
func (e *naiveCore) advance(now float64) {
	e.t = now
	for i := 0; i < e.m; i++ {
		e.loads[i] = math.Max(0, e.horizons[i]-e.t)
		e.order[i] = i
	}
	less := func(a, b int) bool {
		la, lb := e.loads[a], e.loads[b]
		if la != lb {
			return la > lb
		}
		return a < b
	}
	for i := 1; i < e.m; i++ {
		for j := i; j > 0 && less(e.order[j], e.order[j-1]); j-- {
			e.order[j], e.order[j-1] = e.order[j-1], e.order[j]
		}
	}
}

// dlim evaluates Eq. (10) over the current order: the maximum of
// t + l(m_h)·f_h for h ∈ {k,…,m}, where m_h is the machine with the h-th
// largest load.
func (e *naiveCore) dlim() float64 {
	d := e.t
	for h := e.p.K; h <= e.m; h++ {
		if v := e.t + e.loads[e.order[h-1]]*e.p.Fq(h); v > d {
			d = v
		}
	}
	return d
}

// pick returns the physical machine index chosen by the allocation
// policy among candidates (machines that can complete j by its deadline),
// or −1 if no candidate exists.
func (e *naiveCore) pick(j job.Job, policy AllocPolicy) int {
	best := -1
	for h := 0; h < e.m; h++ {
		i := e.order[h] // decreasing load
		if !job.LessEq(e.t+e.loads[i]+j.Proc, j.Deadline) {
			continue
		}
		switch policy {
		case BestFit:
			// Machines are scanned in decreasing load order; the first
			// candidate is the most-loaded one.
			return i
		case LeastLoaded:
			best = i // keep scanning; the last candidate is least loaded
		case FirstFit:
			if best < 0 || i < best {
				best = i
			}
		}
	}
	return best
}

// load returns the decision-time load of machine i: the scratch value
// computed by the last advance. commit deliberately leaves it untouched
// so the tracer can reconstruct the decision after the commitment.
func (e *naiveCore) load(i int) float64 { return e.loads[i] }

func (e *naiveCore) machineAt(h int) int { return e.order[h-1] }

func (e *naiveCore) commit(i int, horizon float64) { e.horizons[i] = horizon }

func (e *naiveCore) horizonOf(i int) float64 { return e.horizons[i] }
