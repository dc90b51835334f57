package main

import (
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loadmax/internal/gateway"
	"loadmax/internal/job"
	"loadmax/internal/netserve"
	"loadmax/internal/online"
)

// phase is what one load phase observed.
type phase struct {
	Attempted int // jobs handed to the client
	Decided   int // jobs that got a verdict
	Failed    int // jobs shed or failed; never retried
	FirstErr  string

	// Per frame, open loop only, ns: verdict time minus due time, send
	// time minus due time, the client call's round trip, and the send
	// time since the epoch the parent process handed over.
	Lat, Late, RTT, Sent []int64

	Decs []online.Decision // client verdicts, by job ID
	OK   []bool            // OK[id]: job id got a verdict

	OfferedMass, AcceptedMass float64

	// Resources the stack's process used and its peaks during the phase;
	// the generator process's are not the stack's and are not counted.
	usage   usage
	peak    samples
	elapsed time.Duration // closed loop only
}

func newPhase(n int) *phase {
	return &phase{Decs: make([]online.Decision, n), OK: make([]bool, n)}
}

// driver sends frames through one client.
type driver struct {
	client *netserve.Client
	tr     *tracer // nil: no client spans
}

// send submits one frame and records its verdicts. It returns how many
// of the frame's jobs failed. Concurrent sends write disjoint job IDs.
func (d driver) send(ph *phase, errMu *sync.Mutex, frame []job.Job) int {
	id := int64(frame[0].ID)
	fail := func(err error, n int) int {
		errMu.Lock()
		if ph.FirstErr == "" {
			ph.FirstErr = err.Error()
		}
		errMu.Unlock()
		return n
	}
	if len(frame) == 1 {
		var dec online.Decision
		var err error
		d.tr.timed(layerClient, id, 1, func() { dec, err = d.client.Submit(frame[0]) })
		if err != nil {
			return fail(err, 1)
		}
		ph.Decs[frame[0].ID], ph.OK[frame[0].ID] = dec, true
		return 0
	}
	var res []netserve.BatchResult
	var err error
	d.tr.timed(layerClient, id, len(frame), func() { res, err = d.client.SubmitBatch(frame) })
	if err != nil {
		return fail(err, len(frame))
	}
	failed := 0
	for i, r := range res {
		if r.Err != nil {
			failed += fail(r.Err, 1)
			continue
		}
		ph.Decs[frame[i].ID], ph.OK[frame[i].ID] = r.Dec, true
	}
	return failed
}

// openLoop offers jobs in release order at the workload's fixed rate:
// frame k is due k·FrameJobs/Rate seconds after the start, whatever
// happened to earlier frames. The pacer sleeps until the next frame is
// due and then sends every frame that is due, each from a goroutine of
// its own; the lateness of each is recorded. It sleeps in nanosleep(2)
// on an OS thread of its own: time.Sleep wakes a wait shorter than a
// millisecond on the runtime's millisecond timer, about 0.6-0.8 ms late
// on the 250-400 µs periods of the one-job workloads, while nanosleep
// wakes about 70 µs late. Latency runs from the due time, so a stall
// also counts against the frames it held back. A failed or shed frame is
// not retried. epoch is the reference for the recorded send times.
func openLoop(d driver, w Workload, jobs job.Instance, epoch time.Time) *phase {
	F := w.FrameJobs
	nFrames := len(jobs) / F
	ph := newPhase(len(jobs))
	ph.Lat, ph.Late = make([]int64, nFrames), make([]int64, nFrames)
	ph.RTT, ph.Sent = make([]int64, nFrames), make([]int64, nFrames)
	period := float64(F) / w.Rate * 1e9
	due := func(k int) time.Duration { return time.Duration(float64(k) * period) }

	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		failed atomic.Int64
	)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	for k := 0; k < nFrames; {
		for ; k < nFrames; k++ {
			el := time.Since(t0)
			if due(k) > el {
				break
			}
			ph.Late[k] = int64(el - due(k))
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sent := time.Now()
				failed.Add(int64(d.send(ph, &errMu, jobs[k*F:(k+1)*F])))
				ph.RTT[k] = int64(time.Since(sent))
				ph.Sent[k] = int64(sent.Sub(epoch))
				ph.Lat[k] = int64(time.Since(t0) - due(k))
			}(k)
		}
		if k < nFrames {
			nanosleep(due(k) - time.Since(t0))
		}
	}
	wg.Wait()
	ph.finish(jobs, nFrames*F, int(failed.Load()))
	return ph
}

// nanosleep blocks the calling OS thread for d, resuming after a signal.
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop keeps ClosedFrames frames in flight until every job is sent:
// each worker sends the next frame in release order as soon as its
// previous one is answered. It measures capacity, the decided jobs per
// second.
func closedLoop(d driver, w Workload, jobs job.Instance) *phase {
	F := w.FrameJobs
	nFrames := len(jobs) / F
	ph := newPhase(len(jobs))
	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		failed atomic.Int64
		next   atomic.Int64
	)
	smp := startSampler(nil)
	before := readUsage()
	t0 := time.Now()
	for i := 0; i < w.ClosedFrames; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= nFrames {
					return
				}
				failed.Add(int64(d.send(ph, &errMu, jobs[k*F:(k+1)*F])))
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(t0)
	ph.usage = readUsage().sub(before)
	ph.peak = smp.stop()
	ph.finish(jobs, nFrames*F, int(failed.Load()))
	return ph
}

// finish tallies counts and masses once every send has returned.
func (ph *phase) finish(jobs job.Instance, attempted, failed int) {
	ph.Attempted, ph.Failed = attempted, failed
	for id := 0; id < attempted; id++ {
		ph.OfferedMass += jobs[id].Proc
		if ph.OK[id] {
			ph.Decided++
			if ph.Decs[id].Accepted {
				ph.AcceptedMass += jobs[id].Proc
			}
		}
	}
}

// The open loop runs in a generator process of its own, this binary
// started with "generate" as its first argument. Sharing the stack's
// process, the generator would wait for a free Go scheduler slot behind
// the stack's goroutines each time a frame fell due, and that wait, not
// the stack, would set the tail latency; the OS scheduler wakes a process
// of its own on time. Both processes find the jobs from the same seed.

// generate is the generator process: it dials addr, offers open-loop
// round r's jobs, and writes the phase to stdout as gob.
func generate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench generate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "client-facing server")
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	round := fs.Int("round", 0, "open-loop round")
	epoch := fs.Int64("epoch", 0, "Unix ns the send times are measured from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench generate:", err)
		return 2
	}
	jobs, err := w.roundJobs(*seed, *round)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench generate:", err)
		return 1
	}
	client, err := netserve.Dial(*addr, netserve.WithConns(w.Conns))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench generate:", err)
		return 1
	}
	ph := openLoop(driver{client: client}, w, jobs, time.Unix(0, *epoch))
	if err := client.Close(); err != nil {
		fmt.Fprintln(stderr, "perfbench generate: close:", err)
		return 1
	}
	if err := gob.NewEncoder(stdout).Encode(ph); err != nil {
		fmt.Fprintln(stderr, "perfbench generate:", err)
		return 1
	}
	return 0
}

// runGenerator runs open-loop round r against st's client-facing server
// in a generator process and returns the phase, with this process's
// resource use over the generator's lifetime.
func runGenerator(st *stack, seed int64, r int, epoch time.Time, poll *gateway.Gateway) (*phase, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "generate", "-addr", st.front.Addr().String(), "-workload", st.w.Name,
		"-seed", strconv.FormatInt(seed, 10), "-round", strconv.Itoa(r), "-epoch", strconv.FormatInt(epoch.UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	smp := startSampler(poll)
	before := readUsage()
	if err := cmd.Start(); err != nil {
		smp.stop()
		return nil, err
	}
	ph := &phase{}
	decErr := gob.NewDecoder(out).Decode(ph)
	if decErr != nil {
		io.Copy(io.Discard, out)
	}
	waitErr := cmd.Wait()
	ph.usage = readUsage().sub(before)
	ph.peak = smp.stop()
	if err := errors.Join(decErr, waitErr); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	return ph, nil
}
