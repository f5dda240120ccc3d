// The host record: what machine, what runtime, and whether the machine
// itself moved while a workload ran.
package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// hostRecord is printed with every result so a number can never be read
// without its conditions.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func readHost() hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// refTable is 512 KiB: larger than L1 and most per-core L2 slices, so
// the kernel feels cache and memory contention from neighbours as well
// as stolen cycles.
var refTable [65536]uint64

// refSink keeps the kernel's result live.
var refSink uint64

// refKernel runs a fixed amount of integer arithmetic and dependent
// table lookups and returns its rate in million steps per second. It
// touches none of the code under test: when it moves between the start
// and the end of a workload, the machine moved, not the program.
func refKernel() float64 {
	const steps = 12_000_000
	for i := range refTable {
		refTable[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 65535
		refTable[j] += x
		x += refTable[(j+4099)&65535]
	}
	el := time.Since(start)
	refSink += x
	return steps / el.Seconds() / 1e6
}

// disturbedBeyond is how far the reference kernel may move across one
// workload before the run is flagged (and still printed).
const disturbedBeyond = 0.15

func disturbed(before, after float64) bool {
	if before <= 0 || after <= 0 {
		return true
	}
	r := after / before
	return r > 1+disturbedBeyond || r < 1-disturbedBeyond
}

// cpuSample reads the runtime's CPU accounting: seconds spent in the
// collector and in total. Differences of two samples give the GC's
// share of CPU over an interval.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	// "total" counts idle Ps too; the share that matters is of CPU the
	// process actually used.
	return cpuSample{gc: val(0), total: val(1) - val(2)}
}

func gcShare(a, b cpuSample) float64 {
	if d := b.total - a.total; d > 0 {
		return (b.gc - a.gc) / d
	}
	return 0
}
