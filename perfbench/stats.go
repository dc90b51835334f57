package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"loadmax/internal/gateway"
)

// usage is a reading of process-wide resource counters.
type usage struct {
	CPU     time.Duration // user + system CPU time
	GCCPU   float64       // runtime's estimate of GC CPU seconds
	Mallocs uint64
	Bytes   uint64
}

var gcMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcMetric)
	var gc float64
	if gcMetric[0].Value.Kind() == metrics.KindFloat64 {
		gc = gcMetric[0].Value.Float64()
	}
	return usage{
		CPU:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		GCCPU:   gc,
		Mallocs: ms.Mallocs,
		Bytes:   ms.TotalAlloc,
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.CPU - v.CPU, u.GCCPU - v.GCCPU, u.Mallocs - v.Mallocs, u.Bytes - v.Bytes}
}

func (u usage) add(v usage) usage {
	return usage{u.CPU + v.CPU, u.GCCPU + v.GCCPU, u.Mallocs + v.Mallocs, u.Bytes + v.Bytes}
}

// samples are the peaks a sampler saw.
type samples struct {
	rssBytes   int64
	goroutines int
	mirrorLag  int64 // largest per-group mirror lag, in jobs
}

func (s samples) max(t samples) samples {
	return samples{max(s.rssBytes, t.rssBytes), max(s.goroutines, t.goroutines), max(s.mirrorLag, t.mirrorLag)}
}

// sampler polls process peaks every 10 ms until stopped, and the mirror
// lag of gw's groups when gw is non-nil.
type sampler struct {
	quit chan struct{}
	wg   sync.WaitGroup
	peak samples
}

func startSampler(gw *gateway.Gateway) *sampler {
	s := &sampler{quit: make(chan struct{})}
	s.take(gw)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.take(gw)
			}
		}
	}()
	return s
}

func (s *sampler) take(gw *gateway.Gateway) {
	s.peak.rssBytes = max(s.peak.rssBytes, rssBytes())
	s.peak.goroutines = max(s.peak.goroutines, runtime.NumGoroutine())
	if gw != nil {
		for _, g := range gw.Status().Groups {
			s.peak.mirrorLag = max(s.peak.mirrorLag, g.MirrorLagJobs)
		}
	}
}

// stop ends the sampler, takes a last reading and returns the peaks.
func (s *sampler) stop() samples {
	close(s.quit)
	s.wg.Wait()
	s.take(nil)
	return s.peak
}

// rssBytes reads the resident set size from /proc/self/statm (0 where
// procfs is missing).
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meta stamps a result with where it was measured.
type meta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests every .go file and go.mod under the working
	// directory, so a result stays attributable where there is no git.
	SourceSHA256 string `json:"source_sha256"`
	// DurableFS is the filesystem type of the durable directory: fsync
	// cost decides durable-single, and ext4 and tmpfs differ by orders of
	// magnitude.
	DurableFS string `json:"durable_fs"`
}

func collectMeta(durableDir string) meta {
	return meta{
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest("."),
		DurableFS:    fsType(durableDir),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return "unknown"
}

// gitCommit is HEAD (with "-dirty" for local changes), or "none" outside
// a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	rev := strings.TrimSpace(string(out))
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		rev += "-dirty"
	}
	return rev
}

func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var sf syscall.Statfs_t
	if err := syscall.Statfs(dir, &sf); err != nil {
		return "unknown"
	}
	switch uint64(sf.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(sf.Type), 16)
	}
}
