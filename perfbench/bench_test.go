package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{5: 50, 19: 50, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9}
	for n, want := range cases {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = %v, want %v", n, got, want)
		}
	}
	for n := 20; n <= 20000; n++ {
		p := tailLevel(n)
		if beyond := n - rankOf(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-rankOf(q, n) >= 10 {
				t.Fatalf("n=%d: p%v also leaves ten beyond, but p%v was chosen", n, q, p)
			}
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := []interval{{0, 100}}
	children := []interval{
		{10, 30}, {20, 40}, // overlapping: 30 covered once
		{60, 70},
		{90, 120},  // sticks out of the parent: only 10 counts
		{150, 160}, // outside the parent
	}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %d, want 50", got)
	}
	// Two overlapping parents count their union once.
	if got := selfTime([]interval{{0, 50}, {40, 100}}, []interval{{45, 55}}); got != 90 {
		t.Errorf("selfTime over overlapping parents = %d, want 90", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// The wrapped session must be the same search as hotspot.Tune's: byte-equal
// outcomes on one seed, in-process and over a two-node fleet.
func TestWrappedSessionMatchesUnwrapped(t *testing.T) {
	f, err := startFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	s := spec{"fop", 42}
	for _, c := range []struct {
		name    string
		workers int
		nodes   []string
		want    []spanKind
	}{
		{"inproc", suiteWorkers, nil, []spanKind{kSession, kSetup, kPropose, kObserve, kMeasure}},
		{"fleet", fleetWorkers, f.addrs(), []spanKind{kSession, kMeasure, kRoundtrip}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := tune(s, c.workers, c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, err := tracedTune(rec, s, c.workers, c.nodes)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Digest != plain.Digest || traced.Trials != plain.Trials {
				t.Fatalf("traced session %s/%d trials, want %s/%d", traced.Digest, traced.Trials, plain.Digest, plain.Trials)
			}
			names := map[spanKind]bool{}
			for _, sp := range rec.snapshot() {
				names[sp.Kind] = true
			}
			for _, n := range c.want {
				if !names[n] {
					t.Errorf("no %s span recorded", n)
				}
			}
		})
	}
}

// implements lists which of the engine's optional interfaces v offers.
func implements(v any) []string {
	var out []string
	if _, ok := v.(runner.BatchMeasurer); ok {
		out = append(out, "BatchMeasurer")
	}
	if _, ok := v.(runner.StateSnapshotter); ok {
		out = append(out, "StateSnapshotter")
	}
	if _, ok := v.(runner.PhaseSetter); ok {
		out = append(out, "PhaseSetter")
	}
	if _, ok := v.(core.BatchSearcher); ok {
		out = append(out, "BatchSearcher")
	}
	if _, ok := v.(dispatch.BatchEvaluator); ok {
		out = append(out, "BatchEvaluator")
	}
	if _, ok := v.(dispatch.Pinger); ok {
		out = append(out, "Pinger")
	}
	return out
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	prof, _ := workload.ByName("fop")
	sc := sessionScope{rec: newRecorder()}
	remote := dispatch.NewRemote("127.0.0.1:1")
	pool, err := dispatch.NewPool(prof, remote)
	if err != nil {
		t.Fatal(err)
	}
	ip := runner.NewInProcess(jvmsim.New(), prof)
	for _, inner := range []innerRunner{ip, pool} {
		w := wrapRunner(inner, sc)
		if got, want := strings.Join(implements(w), ","), strings.Join(implements(inner), ","); got != want {
			t.Errorf("%T: wrapper offers %s, inner %s", inner, got, want)
		}
		// The checkpoint fingerprint renders a hook when the runner has
		// one and the concrete type otherwise; the wrapper must render
		// what the bare runner would.
		want := "*runner.InProcess"
		if fp, ok := inner.(interface{ DeterminismFingerprint() string }); ok {
			want = fp.DeterminismFingerprint()
		}
		if got := w.(interface{ DeterminismFingerprint() string }).DeterminismFingerprint(); got != want {
			t.Errorf("%T: fingerprint %q, want %q", inner, got, want)
		}
	}
	for _, name := range core.SearcherNames() {
		inner, err := core.NewSearcher(name)
		if err != nil {
			t.Fatal(err)
		}
		w := wrapSearcher(inner, sc)
		if got, want := strings.Join(implements(w), ","), strings.Join(implements(inner), ","); got != want {
			t.Errorf("searcher %s: wrapper offers %s, inner %s", name, got, want)
		}
	}
	w := &tracedEvaluator{inner: remote, sc: sc}
	if got, want := strings.Join(implements(w), ","), strings.Join(implements(remote), ","); got != want {
		t.Errorf("evaluator: wrapper offers %s, inner %s", got, want)
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark reports.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	reported := func(ms map[string]metric) []string {
		var out []string
		for n, m := range ms {
			out = append(out, n+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	e2e, _ := endToEnd(&measured{units: []unit{{Wall: 1, Trials: 1}}, rounds: []round{{1, 1, 1, 1, 1}}}, true, 1)
	if got, want := strings.Join(reported(e2e), ","), strings.Join(declared(bench.EndToEnd), ","); got != want {
		t.Errorf("end-to-end metrics reported %s, declared %s", got, want)
	}
	if got, want := strings.Join(reported(layerValues(nil)), ","), strings.Join(declared(bench.PerLayer), ","); got != want {
		t.Errorf("per-layer metrics reported %s, declared %s", got, want)
	}
}

func TestParseMetrics(t *testing.T) {
	in := "# HELP x\n# TYPE x counter\njournal_appends_total 42\nhttpapi_requests_total{class=\"submit\"} 7\n"
	got := parseMetrics(strings.NewReader(in))
	if got["journal_appends_total"] != 42 || got[`httpapi_requests_total{class="submit"}`] != 7 {
		t.Errorf("parseMetrics = %v", got)
	}
}
