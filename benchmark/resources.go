package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// usage is a snapshot of the cumulative resource counters of the process
// doing a workload's work: this process for the in-process workloads,
// the lsra-served child for serve-hotcold.
type usage struct {
	cpuNs     int64   // user + system CPU
	heapBytes uint64  // bytes allocated on the Go heap
	gcCycles  uint64  // completed GC cycles
	gcCPUNs   float64 // CPU spent in the garbage collector
}

func (u usage) sub(o usage) usage {
	return usage{u.cpuNs - o.cpuNs, u.heapBytes - o.heapBytes, u.gcCycles - o.gcCycles, u.gcCPUNs - o.gcCPUNs}
}

func (u usage) plus(o usage) usage {
	return usage{u.cpuNs + o.cpuNs, u.heapBytes + o.heapBytes, u.gcCycles + o.gcCycles, u.gcCPUNs + o.gcCPUNs}
}

// selfUsage samples this process: CPU from getrusage, heap and GC from
// runtime/metrics.
func selfUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpuNs:     ru.Utime.Nano() + ru.Stime.Nano(),
		heapBytes: s[0].Value.Uint64(),
		gcCycles:  s[1].Value.Uint64(),
		gcCPUNs:   s[2].Value.Float64() * 1e9,
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUNs reads a process's user + system CPU from /proc/<pid>/stat.
func procCPUNs(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return (ut + st) * (1e9 / clockTicks), nil
}

// resetPeakRSS clears the kernel's resident-set high-water mark for pid,
// so peakRSSMiB afterwards covers only what follows (set-up excluded).
// Kernels without clear_refs keep the mark from process start.
func resetPeakRSS(pid int) {
	_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
