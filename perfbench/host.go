package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo names the machine and the run every result came from, so two
// results from different hosts are never mistaken for comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"run_seconds"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
}

func describeHost(p params) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       p.seed,
		Seconds:    int(p.window / time.Second),
		Workload:   p.workload,
		Traced:     p.traced,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo; hosts
// without one report "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the Go toolchain stamped into the binary, with
// a "+dirty" suffix for a modified tree; "unknown" when the benchmark was
// built outside a repository (for example from an exported source tree).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// stealSeconds reads the CPU time the hypervisor gave to other guests
// (the "steal" column of /proc/stat, in USER_HZ = 100 ticks a second),
// summed over CPUs, and the number of CPUs it sums over; -1 and 0 where it
// cannot be read. On a shared VM it is the first thing to check when two
// runs of the same code disagree.
func stealSeconds() (float64, int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1, 0
	}
	lines := strings.Split(string(b), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return -1, 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1, 0
	}
	cpus := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			cpus++
		}
	}
	return ticks / 100, cpus
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
