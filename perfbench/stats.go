package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// median returns the middle value of v (mean of the two middle values
// for even lengths); v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPct caps the tail percentile. Above it the percentile would rise
// with the op count, so a faster host would report a longer tail, and
// the ten-odd ops beyond it spread more from run to run.
const tailPct = 90

// tail returns, by nearest rank, the highest whole percentile of v up to
// tailPct that has at least ten values beyond it, with that percentile.
// With fewer than eleven values no such percentile exists and tail
// returns the maximum as percentile 100.
func tail(v []float64) (value float64, pct int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	pct = min(100*(n-10)/n, tailPct)
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], pct
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSample reads the cumulative heap allocation without stopping the
// world, so it can bracket every op.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// totalAlloc is the bytes allocated on the heap so far.
func totalAlloc() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// host fingerprints the machine a result was measured on.
func host() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goamd64":    "",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h["goamd64"] = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				if _, seen := h["cpu_model"]; !seen {
					h["cpu_model"] = strings.TrimSpace(v)
				}
			case "flags":
				if _, seen := h["cpu_flags"]; !seen {
					h["cpu_flags"] = strings.TrimSpace(v)
				}
			}
		}
	}
	return h
}
