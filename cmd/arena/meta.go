package main

// Run metadata stamped into the arena report, so a report can be traced
// to the host and commit that produced it.

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// runMeta identifies the environment a benchmark report came from.
type runMeta struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel is the host CPU's self-reported model name (from
	// /proc/cpuinfo on Linux; empty where unavailable).
	CPUModel string `json:"cpu_model,omitempty"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	// Commit is the repository HEAD at run time ("unknown" outside a
	// checkout), with a "-dirty" suffix when the worktree had local
	// modifications.
	Commit string `json:"commit"`
}

// collectMeta gathers the stamp.
func collectMeta() runMeta {
	return runMeta{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commitHash(),
	}
}

// cpuModel reads the first "model name" entry from /proc/cpuinfo.
// Best-effort: returns "" on non-Linux hosts or unreadable procfs
// rather than failing the run.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// commitHash resolves the source revision: VCS stamping from the build
// info when present (go build of a tagged main package), else git
// directly (the `go run` path), else "unknown".
func commitHash() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "-dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return "unknown"
	}
	if err := exec.Command("git", "diff", "--quiet", "HEAD").Run(); err != nil {
		rev += "-dirty"
	}
	return rev
}
