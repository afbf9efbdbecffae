package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The host this benchmark runs on changes speed by tens of percent over
// minutes, with no steal time to show for it (other tenants sharing caches
// and memory bandwidth). A run therefore also times a calibration probe:
// fixed CPU and memory work that runs none of the program's code, in a
// child process, so that neither a change to the program nor its heap can
// move it and its memory never counts toward the workload's peak RSS. The
// probe runs right after every round, and the round's times are reported
// scaled to the probe's time on the reference host; the raw values are
// kept in result.json.

// probeRefSeconds is the probe's CPU time on the reference host (2 vCPUs,
// Go 1.24); it only fixes the unit of the scaled times.
const probeRefSeconds = 0.055

// probeWork sorts a fixed shuffled slice and hashes a fixed buffer, twice,
// and returns the CPU seconds that took. It is what perfbench --probe runs.
func probeWork() float64 {
	src, work, buf := make([]int, 1<<18), make([]int, 1<<18), make([]byte, 4<<20)
	x := uint64(1)
	for i := range src {
		x = x*6364136223846793005 + 1442695040888963407
		src[i] = int(x >> 33)
	}
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	c0 := cpuNow()
	for rep := 0; rep < 2; rep++ {
		copy(work, src)
		sort.Ints(work)
		sum := sha256.Sum256(buf)
		work[0] ^= int(sum[0]) // keeps the hash live
	}
	return (cpuNow() - c0).Seconds()
}

// probe collects a run's probe times. Nothing else of the benchmark runs
// while a probe does.
type probe struct {
	secs []float64
	err  error // the first failed probe
}

// run times one probe in a child process.
func (p *probe) run() {
	self, err := os.Executable()
	if err == nil {
		var out []byte
		if out, err = exec.Command(self, "--probe").Output(); err == nil {
			var v float64
			if v, err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err == nil {
				p.secs = append(p.secs, v)
				return
			}
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("calibration probe: %w", err)
	}
}

// probesPerSample is how many probes one sample takes the median of.
const probesPerSample = 3

// sample runs probesPerSample probes and returns the factor that converts
// the seconds just before them into reference-host seconds: the reference
// probe time over the median of the sample.
func (p *probe) sample() float64 {
	for i := 0; i < probesPerSample; i++ {
		p.run()
	}
	if len(p.secs) < probesPerSample {
		return 1 // a probe failed; run reports it
	}
	return probeRefSeconds / median(p.secs[len(p.secs)-probesPerSample:])
}

// scale is the factor for the run as a whole (its set-up times): the
// reference probe time over the median of every probe of the run.
func (p *probe) scale() float64 {
	if len(p.secs) == 0 {
		return 1
	}
	return probeRefSeconds / median(p.secs)
}
