package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"loadmax/internal/gateway"
	"loadmax/internal/job"
	"loadmax/internal/policy"
)

// pass is one measured run of a workload.
type pass struct {
	attempted, failed int
	e2e               []metric
	// tail is verdict_p99_us. It is not gated: on a shared VM its spread
	// across runs exceeds the widest allowed bound (BASELINE.md), so it
	// is reported with the per-layer metrics.
	tail   metric
	layers []metric // traced passes only
	spans  []span   // traced passes only
}

const (
	// Shares of a pass's time taken by the two load phases.
	openShare   = 0.6
	closedShare = 0.3
	// openRoundTime is the length of one open-loop round. Each round runs
	// on a fresh stack with jobs of its own, which bounds the memory the
	// decision logs take.
	openRoundTime = 2 * time.Second
	// Each open-loop round times its restore minRestores times, and again
	// while those restores have taken less than restoreBudget, up to
	// maxRestores times, and keeps the fastest.
	minRestores, maxRestores = 3, 15
	restoreBudget            = 200 * time.Millisecond
	// warmSetups is how many stacks a pass builds and closes unused
	// before the load phases, only to time set-up.
	warmSetups = 20
	// closedStream numbers the closed-loop job stream among the streams
	// drawn from one seed; open-loop round r draws stream r.
	closedStream = 1 << 20
)

// subSeed derives the seed of job stream k from the workload seed.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// openPhase aggregates the open-loop rounds of a pass.
type openPhase struct {
	p50, p99, cpu, restore, rss []float64 // one entry per round
	lat, late                   []int64   // every frame of every round, ns

	offered, accepted          float64
	attempted, decided, failed int
	usage                      usage
	peak                       samples
	firstErr                   string
}

func runPass(w Workload, seed int64, seconds float64, traced bool, dir string, out io.Writer) (*pass, error) {
	builder, err := policy.Parse(w.Policy)
	if err != nil {
		return nil, err
	}
	label := "untraced"
	if traced {
		label = "traced"
	}
	fresh := func() *traceSet {
		if traced {
			return newTraceSet()
		}
		return nil
	}
	var setups []float64
	build := func(ts *traceSet) (*stack, error) {
		st, d, err := newStack(w, builder, filepath.Join(dir, fmt.Sprintf("stack-%d", len(setups))), ts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		return st, nil
	}

	for i := 0; i < warmSetups; i++ {
		st, err := build(fresh())
		if err != nil {
			return nil, err
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("set-up: close: %w", err)
		}
		os.RemoveAll(st.dir)
	}

	rounds := max(1, int(openShare*seconds/openRoundTime.Seconds()))
	fmt.Fprintf(out, "pass %s: open loop %d rounds of %v at %.0f jobs/s, closed loop for %.1fs\n",
		label, rounds, openRoundTime, w.Rate, closedShare*seconds)
	ts := fresh() // shared by the open rounds, so counters add up over them
	op := &openPhase{}
	epoch := time.Now()
	if ts != nil {
		epoch = ts.tr.epoch
	}
	for r := 0; r < rounds; r++ {
		jobs, err := w.roundJobs(seed, r)
		if err != nil {
			return nil, err
		}
		st, err := build(ts)
		if err != nil {
			return nil, err
		}
		if err := op.round(st, jobs, seed, r, epoch, filepath.Join(dir, fmt.Sprintf("wal-%d", r))); err != nil {
			return nil, fmt.Errorf("open loop round %d: %w", r, err)
		}
	}

	// Closed loop: rounds of the same jobs on fresh stacks until the
	// phase's time is used, at least one. Its jobs are made only now, so
	// they are not in the open loop's resident memory.
	closedJobs, err := w.jobs(w.ClosedRoundJobs, subSeed(seed, closedStream))
	if err != nil {
		return nil, err
	}
	p := &pass{attempted: op.attempted, failed: op.failed}
	var rates []float64
	firstErr := op.firstErr
	closedEnd := time.Now().Add(time.Duration(closedShare * seconds * float64(time.Second)))
	for r := 0; r == 0 || time.Now().Before(closedEnd); r++ {
		st, err := build(fresh())
		if err != nil {
			return nil, err
		}
		ph := closedLoop(driver{st.client, st.tracer()}, w, closedJobs)
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("closed loop: close: %w", err)
		}
		if err := st.verify(closedJobs, ph); err != nil {
			return nil, checkError{fmt.Errorf("closed loop round %d: %w", r, err)}
		}
		os.RemoveAll(st.dir)
		rates = append(rates, float64(ph.Decided)/ph.elapsed.Seconds())
		p.attempted += ph.Attempted
		p.failed += ph.Failed
		if firstErr == "" {
			firstErr = ph.FirstErr
		}
	}

	lat, late := sortedCopy(op.lat), sortedCopy(op.late)
	p.e2e = []metric{
		// The median round's p50, so a neighbour's burst on the host that
		// slows one or two rounds does not move it.
		{"verdict_p50_us", median(op.p50) / 1e3, "us"},
		{"sat_jobs_per_s", median(rates), "jobs/s"},
		{"cpu_us_per_job", median(op.cpu), "us"},
		{"accepted_load_frac", op.accepted / op.offered, "frac"},
		{"restore_s", median(op.restore), "s"},
		{"rss_peak_mb", median(op.rss) / (1 << 20), "MiB"},
		{"setup_s", median(setups), "s"},
	}
	p.tail = metric{"verdict_p99_us", quantile(lat, 0.99) / 1e3, "us"}
	printMetrics(out, label, append(p.e2e, p.tail))
	fmt.Fprintf(out, "%s: latency over %d frames of %d jobs from %d rounds, timed from their due time: p50 of the median round, p99 of all frames (not gated); generator lateness p50 %.1f us, p99 %.1f us\n",
		label, len(lat), w.FrameJobs, rounds, quantile(late, 0.5)/1e3, quantile(late, 0.99)/1e3)
	fmt.Fprintf(out, "%s: closed loop: %d rounds of %d jobs, %d frames in flight, median round; set-up median of %d stacks\n",
		label, len(rates), len(closedJobs), w.ClosedFrames, len(setups))
	fmt.Fprintf(out, "%s: failed_frac %.6g (%d of %d jobs failed or shed)\n",
		label, float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)
	fmt.Fprintf(out, "%s: per round: p50 us %s; p99 us %s; restore us %s; closed-loop jobs/s %s\n",
		label, rounded(op.p50, 1e3), rounded(op.p99, 1e3), rounded(op.restore, 1e-6), rounded(rates, 1))
	if firstErr != "" {
		fmt.Fprintf(out, "%s: first failure: %s\n", label, firstErr)
	}
	if traced {
		p.spans = ts.tr.spans
		p.layers = layerMetrics(ts, w, op)
		printMetrics(out, "layer", p.layers)
	}
	return p, nil
}

// round runs open-loop round r on st, checks it, times the restore of its
// state from a WAL (written under walRoot on an in-memory stack), and
// folds it in. jobs are the round's jobs, which the generator process
// derives from the same seed.
func (op *openPhase) round(st *stack, jobs job.Instance, seed int64, r int, epoch time.Time, walRoot string) error {
	var poll *gateway.Gateway // mirror lag is a per-layer metric
	if st.traceSet != nil {
		poll = st.gw
	}
	ph, err := runGenerator(st, seed, r, epoch, poll)
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if st.traceSet != nil {
		st.tr.harvest()
		for k := range ph.Lat {
			st.tr.add(span{id: int64(jobs[k*st.w.FrameJobs].ID), start: ph.Sent[k], dur: ph.RTT[k], jobs: int32(st.w.FrameJobs), layer: layerClient})
		}
	}
	if err := st.verify(jobs, ph); err != nil {
		return checkError{err}
	}
	dirs, err := st.walDirs(walRoot)
	if err != nil {
		return checkError{fmt.Errorf("writing the WAL: %w", err)}
	}
	// The fastest restore is kept, so a preemption during one short
	// restore does not count.
	restore := time.Duration(math.MaxInt64)
	var spent time.Duration
	for i := 0; i < maxRestores && (i < minRestores || spent < restoreBudget); i++ {
		d, err := st.restore(dirs)
		if err != nil {
			return checkError{fmt.Errorf("restore: %w", err)}
		}
		restore = min(restore, d)
		spent += d
	}
	os.RemoveAll(st.dir)
	os.RemoveAll(walRoot)

	lat := sortedCopy(ph.Lat)
	op.p50 = append(op.p50, quantile(lat, 0.5))
	op.p99 = append(op.p99, quantile(lat, 0.99))
	op.cpu = append(op.cpu, ph.usage.CPU.Seconds()*1e6/float64(max(ph.Decided, 1)))
	op.restore = append(op.restore, restore.Seconds())
	op.lat = append(op.lat, ph.Lat...)
	op.late = append(op.late, ph.Late...)
	op.offered += ph.OfferedMass
	op.accepted += ph.AcceptedMass
	op.attempted += ph.Attempted
	op.decided += ph.Decided
	op.failed += ph.Failed
	op.usage = op.usage.add(ph.usage)
	op.rss = append(op.rss, float64(ph.peak.rssBytes))
	op.peak = op.peak.max(ph.peak)
	if op.firstErr == "" {
		op.firstErr = ph.FirstErr
	}
	return nil
}

// layerMetrics computes the per-layer metrics of a traced open-loop
// phase from its spans and the program's own obs counters.
func layerMetrics(ts *traceSet, w Workload, op *openPhase) []metric {
	var durs [numLayers][]int64
	var jobs, total [numLayers]int64
	for _, s := range ts.tr.spans {
		durs[s.layer] = append(durs[s.layer], s.dur)
		jobs[s.layer] += int64(s.jobs)
		total[s.layer] += s.dur
	}
	for l := range durs {
		slices.Sort(durs[l])
	}
	count := func(l layer) float64 { return float64(len(durs[l])) }
	mean := func(l layer) float64 { return float64(total[l]) / math.Max(count(l), 1) }
	q := func(l layer, p float64) float64 { return quantile(durs[l], p) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	gw := w.Groups > 0
	front := layerServe
	if gw {
		front = layerGateway
	}
	onGateway := func(v float64) float64 {
		if !gw {
			return 0
		}
		return v
	}

	frames := float64(ts.srvReg.Counter("netserve_rx_frames_total").Value())
	carried := float64(jobs[layerGateway] + jobs[layerServe] + jobs[layerMirror])
	fsync := ts.svcReg.Histogram("serve_wal_fsync_seconds", nil)
	fsyncs := float64(fsync.Count())
	fsyncMeanNs := ratio(fsync.Sum()*1e9, fsyncs)
	records := float64(ts.svcReg.Counter("serve_wal_records_total").Value())
	decides := count(layerPolicy)
	drains := float64(ts.svcReg.Histogram("serve_batch_size", nil).Count())
	// A serve call's own time: the call minus the decisions it made and,
	// on a durable service, the fsync it waited for (one mean fsync per
	// call, as each call waits for exactly one commit group).
	serveSelf := ratio(float64(total[layerServe])-float64(total[layerPolicy])-count(layerServe)*fsyncMeanNs, float64(jobs[layerServe]))
	shed := ts.gwReg.CounterVec("gateway_shed_total", "cause")
	gwShed := shed.With("intake").Value() + shed.With("mirror").Value()
	replayed := float64(ts.restoreReg.Counter("serve_recovery_records_replayed").Value())
	decided := float64(max(op.decided, 1))
	late := sortedCopy(op.late)

	return []metric{
		{"netserve.frames", frames, "count"},
		{"netserve.jobs_per_frame", ratio(carried, frames), "jobs"},
		{"netserve.rtt_p50_us", q(layerClient, 0.5) / 1e3, "us"},
		{"netserve.rtt_p99_us", q(layerClient, 0.99) / 1e3, "us"},
		{"netserve.self_us_per_frame", (mean(layerClient) - mean(front)) / 1e3, "us"},
		{"netserve.shed", float64(ts.srvReg.Counter("netserve_shed_total").Value()), "count"},

		{"gateway.call_p50_us", q(layerGateway, 0.5) / 1e3, "us"},
		{"gateway.call_p99_us", q(layerGateway, 0.99) / 1e3, "us"},
		{"gateway.hop_us_per_job", onGateway(mean(layerGateway)-mean(layerServe)) / 1e3, "us"},
		{"gateway.upstream_jobs_per_batch", onGateway(ratio(float64(jobs[layerServe]), count(layerServe))), "jobs"},
		{"gateway.mirror_jobs_per_batch", ratio(float64(jobs[layerMirror]), count(layerMirror)), "jobs"},
		{"gateway.mirror_lag_max", float64(op.peak.mirrorLag), "jobs"},
		{"gateway.shed", float64(gwShed), "count"},

		{"serve.calls", count(layerServe), "count"},
		{"serve.call_p50_us", q(layerServe, 0.5) / 1e3, "us"},
		{"serve.call_p99_us", q(layerServe, 0.99) / 1e3, "us"},
		{"serve.self_us_per_job", serveSelf / 1e3, "us"},
		{"serve.jobs_per_drain", ratio(decides, drains), "jobs"},
		{"serve.backpressure", float64(ts.svcReg.Counter("serve_backpressure_total").Value()), "count"},

		{"wal.fsyncs", fsyncs, "count"},
		{"wal.records_per_fsync", ratio(records, fsyncs), "records"},
		{"wal.fsync_mean_us", fsyncMeanNs / 1e3, "us"},
		{"wal.bytes_per_record", ratio(float64(ts.svcReg.Counter("serve_wal_bytes_total").Value()), records), "B"},
		{"wal.restore_records_per_s", ratio(replayed, ts.tr.restoreTime.Seconds()), "records/s"},

		{"policy.decides", decides, "count"},
		{"policy.decide_p50_ns", q(layerPolicy, 0.5), "ns"},
		{"policy.decide_p99_ns", q(layerPolicy, 0.99), "ns"},
		{"policy.busy_s", float64(total[layerPolicy]) / 1e9, "s"},
		{"policy.accept_frac", ratio(float64(ts.tr.accepted), decides), "frac"},

		{"runtime.allocs_per_job", float64(op.usage.Mallocs) / decided, "allocs"},
		{"runtime.bytes_per_job", float64(op.usage.Bytes) / decided, "B"},
		{"runtime.gc_cpu_frac", ratio(op.usage.GCCPU, op.usage.CPU.Seconds()), "frac"},
		{"runtime.goroutines_max", float64(op.peak.goroutines), "count"},

		{"loadgen.sent", float64(op.attempted), "jobs"},
		{"loadgen.late_p50_us", quantile(late, 0.5) / 1e3, "us"},
		{"loadgen.late_p99_us", quantile(late, 0.99) / 1e3, "us"},
	}
}

// rounded formats v/div as whole numbers, for the per-round report line.
func rounded(v []float64, div float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.0f", x/div)
	}
	return strings.Join(parts, " ")
}
