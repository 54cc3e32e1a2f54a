package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cost is a snapshot of the process's CPU and allocation counters.
type cost struct {
	ru syscall.Rusage
	ms runtime.MemStats
}

func (c *cost) read() {
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &c.ru) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&c.ms)
}

// sub stores the CPU and allocation deltas since before into o.
func (c *cost) sub(before cost, o *phaseOut) {
	o.CPUS = cpuSeconds(&c.ru) - cpuSeconds(&before.ru)
	o.Mallocs = c.ms.Mallocs - before.ms.Mallocs
	o.Bytes = c.ms.TotalAlloc - before.ms.TotalAlloc
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB. The
// kernel's rusage maxrss would not do: a child's counts its parent's
// resident set at the moment it was exec'd.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuModel reads the CPU model name, or "unknown".
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

// gitSHA resolves HEAD from a .git directory under root without running
// git; checkouts without one report "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(root + "/.git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if sha, err := os.ReadFile(root + "/.git/" + name); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(root + "/.git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

func writeFloats(path string, v []float64) error {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return os.WriteFile(path, b, 0o644)
}

func readFloats(path string) ([]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v, nil
}

func writeUints(path string, v []uint64) error {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return os.WriteFile(path, b, 0o644)
}

func readUints(path string) ([]uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := make([]uint64, len(b)/8)
	for i := range v {
		v[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return v, nil
}
