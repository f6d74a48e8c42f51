package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
)

// hostRecord describes the machine the run measured on, as one JSON
// object: CPU counts as Go and the cgroup see them, the toolchain and
// the CPU model.
func hostRecord() string {
	rec := map[string]any{
		"nproc":            runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"go":               runtime.Version(),
		"os_arch":          runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":        cpuModel(),
		"cgroup_cpu_limit": cgroupCPULimit(),
	}
	b, _ := json.Marshal(rec) // a map of strings and numbers always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cgroupCPULimit reports the cgroup CPU quota in CPUs ("max" when
// unlimited), from cgroup v2's cpu.max or v1's CFS quota.
func cgroupCPULimit() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		f := strings.Fields(string(b))
		if len(f) == 2 && f[0] != "max" {
			return cpus(f[0], f[1])
		}
		return "max"
	}
	q, err1 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, err2 := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if err1 != nil || err2 != nil {
		return "unknown"
	}
	if strings.TrimSpace(string(q)) == "-1" {
		return "max"
	}
	return cpus(strings.TrimSpace(string(q)), strings.TrimSpace(string(p)))
}

func cpus(quota, period string) string {
	q, err1 := strconv.ParseFloat(quota, 64)
	p, err2 := strconv.ParseFloat(period, 64)
	if err1 != nil || err2 != nil || p == 0 {
		return "unknown"
	}
	return strconv.FormatFloat(q/p, 'g', 4, 64)
}

// maxRSSMB is the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSnapshot holds the Go runtime counters the traced run reads
// before and after its window.
type runtimeSnapshot struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes, gcCycles     float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSnapshot {
	s := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case rtmetrics.KindFloat64:
			return s[i].Value.Float64()
		case rtmetrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnapshot{gcCPU: v(0), totalCPU: v(1), idleCPU: v(2), allocBytes: v(3), gcCycles: v(4)}
}

func (a runtimeSnapshot) sub(b runtimeSnapshot) runtimeSnapshot {
	return runtimeSnapshot{
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		idleCPU:    a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}
