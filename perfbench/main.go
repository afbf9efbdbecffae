// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the tuner's public entry points, checks the outputs,
// and prints every metric by name and unit; the last line of standard
// output is a JSON summary.
//
//	perfbench --workload suite-inproc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no tracing.
// With --trace 1 it runs the same work twice, untraced and then with every
// layer wrapped, reports the per-layer metrics of the traced half and the
// tracing overhead, and writes the spans out as JSON lines. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// heldOutSeed is never used while tuning the program or this benchmark;
// a claimed gain is confirmed on it last.
const heldOutSeed = 20150525

// unit is one timed piece of user-visible work: a hotspot.Tune call or a
// farm job from submit to done.
type unit struct {
	Name        string  `json:"name"`
	Wall        float64 `json:"wall_s"`
	Trials      int     `json:"trials"`
	Improvement float64 `json:"improvement_pct"`
	Digest      string  `json:"digest,omitempty"`
	Failed      bool    `json:"failed,omitempty"`
	// Scale converts Wall into reference-host seconds: its round's scale.
	Scale float64 `json:"scale"`
}

// measured is what a workload hands back to the report.
type measured struct {
	setups []float64 // seconds, one per bring-up
	units  []unit    // the untraced timed units
	rounds []round   // the same units, grouped into the stretches they ran in
	// improvement is the mean improvement over the distinct units of the
	// run, exact for a fixed seed where sessions are deterministic.
	improvement float64
	// lost counts finished jobs whose verdict a restart would lose; they
	// count as failed units but not as a failed output check.
	lost int
	// problems are failed output checks.
	problems []string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// rec holds the traced run's spans.
	rec *recorder
}

func (m *measured) fail(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// round is one stretch of a timed loop (a suite round, a fleet round, a
// farm lifetime) with the wall and process CPU time it took. Rates are
// medians over rounds, so a burst of contention on the host costs one
// round, not the run.
type round struct {
	units, trials int
	wall, cpu     float64 // seconds
	scale         float64 // into reference-host seconds, from the probes after the round
}

func total(rs []round) round {
	var t round
	for _, r := range rs {
		t.units += r.units
		t.trials += r.trials
		t.wall += r.wall
		t.cpu += r.cpu
	}
	return t
}

// medianOver is the median of f over the rounds.
func medianOver(rs []round, f func(round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// params is one invocation's inputs.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for farm state and trace output
	probe    *probe // run between rounds; calibrates the host's speed
}

type workloadFunc func(p params) (*measured, error)

var workloads = map[string]workloadFunc{
	"suite-inproc": runSuite,
	"fleet-batch":  runFleet,
	"farm-durable": runFarm,
}

func main() { os.Exit(run()) }

func run() int {
	var p params
	var traceFlag int
	probeOnly := flag.Bool("probe", false, "run one calibration probe, print its CPU seconds and exit")
	flag.StringVar(&p.workload, "workload", "", "workload to run: suite-inproc, fleet-batch or farm-durable")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed; the inputs are a pure function of it")
	flag.IntVar(&p.seconds, "seconds", 20, "run length on the reference 2-core host, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	if *probeOnly {
		fmt.Println(probeWork())
		return 0
	}
	p.trace = traceFlag == 1
	fn, ok := workloads[p.workload]
	if !ok || p.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload suite-inproc|fleet-batch|farm-durable --seed N --seconds S --trace 0|1")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	p.work = filepath.Join(root, ".bench_build", "perfbench-work",
		fmt.Sprintf("%s-seed%d-trace%d-%d", p.workload, p.seed, traceFlag, os.Getpid()))
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(filepath.Join(p.work, "state"))

	mach := machineFacts(root)
	p.probe = &probe{}
	p.probe.run()
	before := readCPUTimes()
	m, err := fn(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	mach.StealShare = stealShare(before, readCPUTimes())
	if p.probe.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", p.probe.err)
		return 1
	}
	return report(p, mach, m)
}

// unitTally is the unit accounting behind the end-to-end metrics.
type unitTally struct {
	attempted, failed, trials int
	failedFrac, level         float64
}

// endToEnd computes every end-to-end metric of an untraced run. With
// scaled, every time is in reference-host seconds (see probe): a unit's and
// a round's by the round's scale, the set-up's by setupScale.
func endToEnd(m *measured, scaled bool, setupScale float64) (map[string]metric, unitTally) {
	k := func(scale float64) float64 {
		if !scaled {
			return 1
		}
		return scale
	}
	walls := make([]float64, 0, len(m.units))
	t := unitTally{attempted: len(m.units), failed: m.lost}
	for _, u := range m.units {
		walls = append(walls, u.Wall*k(u.Scale))
		t.trials += u.Trials
		if u.Failed {
			t.failed++
		}
	}
	t.level = tailLevel(len(walls))
	t.failedFrac = float64(t.failed) / float64(max(t.attempted, 1))
	return map[string]metric{
		"setup_s":          {median(m.setups) * k(setupScale), "s"},
		"tune_p50_s":       {median(walls), "s"},
		"tune_tail_s":      {percentile(walls, t.level), "s"},
		"sessions_per_s":   {medianOver(m.rounds, func(r round) float64 { return float64(r.units) / (r.wall * k(r.scale)) }), "1/s"},
		"trials_per_s":     {medianOver(m.rounds, func(r round) float64 { return float64(r.trials) / (r.wall * k(r.scale)) }), "1/s"},
		"cpu_us_per_trial": {medianOver(m.rounds, func(r round) float64 { return r.cpu * k(r.scale) / float64(r.trials) * 1e6 }), "us"},
		"improvement_pct":  {m.improvement, "%"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}, t
}

// report prints every metric, writes the full result file, and prints the
// JSON summary as the last line.
func report(p params, mach machine, m *measured) int {
	scale := p.probe.scale()
	e2e, s := endToEnd(m, true, scale)
	raw, _ := endToEnd(m, false, 1)
	fmt.Printf("workload %s  seed %d  trace %v  units %d  trials %d\n", p.workload, p.seed, p.trace, s.attempted, s.trials)
	fmt.Printf("machine nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s steal_share=%.4f\n",
		mach.NProc, mach.GOMAXPROCS, mach.CPUModel, mach.GoVersion, mach.Commit, mach.StealShare)
	fmt.Printf("host scale %.4f over the run (reference probe %.4fs / median of %d probes); raw values in result.json\n",
		scale, probeRefSeconds, len(p.probe.secs))
	printMetrics("e2e", e2e)
	fmt.Printf("e2e %-28s %14.6g %s\n", "failed_frac", s.failedFrac, "ratio")
	fmt.Printf("e2e tune_tail_s is %s of %d samples (setups %d)\n", levelName(s.level), s.attempted, len(m.setups))
	if m.layers != nil {
		printMetrics("layer", m.layers)
	}
	for _, pr := range m.problems {
		fmt.Printf("CHECK FAILED: %s\n", pr)
	}

	full := map[string]any{
		"workload": p.workload, "seed": p.seed, "trace": p.trace, "seconds": p.seconds,
		"held_out_seed": heldOutSeed, "machine": mach,
		"end_to_end": e2e, "end_to_end_raw": raw, "host_scale": scale, "probe_s": p.probe.secs,
		"failed_frac": s.failedFrac, "lost_verdicts": m.lost,
		"tail_level": levelName(s.level), "samples": s.attempted, "setups": m.setups,
		"per_layer": m.layers, "problems": m.problems, "units": m.units, "rounds": roundsJSON(m.rounds),
	}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		path := filepath.Join(p.work, "result.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write result:", err)
		} else {
			fmt.Printf("result written to %s\n", path)
		}
	}
	if m.rec != nil {
		path := filepath.Join(p.work, "spans.jsonl")
		if err := m.rec.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}

	metrics := e2e
	if p.trace {
		metrics = m.layers
	}
	summary := map[string]any{
		"correct": len(m.problems) == 0, "attempted": s.attempted, "failed": s.failed, "metrics": metrics,
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if len(m.problems) > 0 {
		return 1
	}
	return 0
}

func roundsJSON(rs []round) []map[string]float64 {
	out := make([]map[string]float64, len(rs))
	for i, r := range rs {
		out[i] = map[string]float64{"units": float64(r.units), "trials": float64(r.trials), "wall_s": r.wall, "cpu_s": r.cpu, "scale": r.scale}
	}
	return out
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// rounds converts the requested seconds into a count of work pieces (suite
// rounds, fleet sessions, farm lifetimes), given the measured length of one
// on the reference host. The work is fixed by the seed and the
// seconds, never by the clock, so the sample count, the tail percentile and
// the outputs are the same on every run with those inputs.
func rounds(seconds int, roundSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/roundSeconds)))
}

// derive maps the workload seed and an index to a session seed
// (splitmix64), so that nearby workload seeds give unrelated sessions.
func derive(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// timeIt runs f and returns its wall seconds.
func timeIt(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}
