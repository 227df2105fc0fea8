package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// runContext tags a result with what produced it: the code, the
// workload and the machine.
type runContext struct {
	GitSHA     string `json:"git_sha"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Ops        int    `json:"ops"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func newRunContext(wl *workload, cfg config, ops int) *runContext {
	return &runContext{
		GitSHA:     gitSHA(),
		Workload:   wl.Name,
		Seed:       cfg.seed,
		Ops:        ops,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// gitSHA is the commit under test as run.sh found it, "+dirty" marking
// local changes; "unknown" outside a git checkout.
func gitSHA() string {
	if sha := os.Getenv("COSCHEDBENCH_GIT_SHA"); sha != "" {
		return sha
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
