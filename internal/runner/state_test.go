package runner

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"unicode/utf8"

	"repro/internal/flags"
)

// stateModel mirrors a State in plain maps, so MarshalState — json.Marshal
// of the canonical triple — can serve as the oracle for SnapshotState.
type stateModel struct {
	st      *State
	elapsed VirtualClock
	reps    map[string]int
	cache   map[string]Measurement
}

func newStateModel() *stateModel {
	return &stateModel{st: &State{}, reps: map[string]int{}, cache: map[string]Measurement{}}
}

func (m *stateModel) reserve(key string, n int) {
	m.st.Reserve(key, n)
	m.reps[key] += n
}

func (m *stateModel) settle(key string, meas Measurement, cache bool) {
	m.st.Settle(key, meas, cache)
	m.elapsed.Charge(meas.CostSeconds)
	if cache && !meas.Transient {
		m.cache[key] = meas
	}
}

// check asserts SnapshotState is byte-identical to the oracle.
func (m *stateModel) check(t *testing.T, when string) []byte {
	t.Helper()
	got, err := m.st.SnapshotState()
	if err != nil {
		t.Fatalf("%s: SnapshotState: %v", when, err)
	}
	want, err := MarshalState(m.elapsed.Seconds(), m.reps, m.cache)
	if err != nil {
		t.Fatalf("%s: MarshalState: %v", when, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: snapshot differs from json.Marshal\n got: %s\nwant: %s", when, got, want)
	}
	return got
}

// awkwardKeys need escaping (HTML-significant characters, U+2028) or sort
// before and after their neighbours byte-wise.
var awkwardKeys = []string{
	"-Xmx1g", "a<b>&c", "line\u2028sep", "para\u2029sep", "ph2|-Xmx1g", "-XX:+UseG1GC", "", "\u00e9t\u00e9", "quote\"back\\slash",
}

func stateMeasurement(key string, cost float64, failed bool) Measurement {
	m := Measurement{Key: key, CostSeconds: cost, Attempts: 1}
	if failed {
		m.Failed, m.Failure, m.FailureMessage = true, "crash", "crashed: <heap> & \u2028 exhausted"
		return m
	}
	m.Walls = []float64{cost - 0.5, cost - 0.25}
	m.Pauses = []float64{0.01, 0.02}
	m.Mean, m.MeanPause = cost-0.375, 0.015
	return m
}

func TestStateSnapshotMatchesMarshal(t *testing.T) {
	m := newStateModel()
	m.check(t, "empty")

	for i, k := range awkwardKeys {
		m.reserve(k, 2)
		m.settle(k, stateMeasurement(k, float64(10+i), i%3 == 0), true)
		if i == 3 {
			m.check(t, "partway")
		}
	}
	m.check(t, "filled")

	// An overwritten entry must not replay its stale memoized encoding.
	m.reserve(awkwardKeys[1], 3)
	m.settle(awkwardKeys[1], stateMeasurement(awkwardKeys[1], 99.5, false), true)
	m.check(t, "overwritten")

	// Reps without a verdict: transient failures and uncached runs.
	m.reserve("flaky", 1)
	m.settle("flaky", Measurement{Key: "flaky", Failed: true, Transient: true, CostSeconds: 0.5}, true)
	m.reserve("uncached", 1)
	m.settle("uncached", stateMeasurement("uncached", 7, false), false)
	m.check(t, "reps only")

	// A restored state snapshots to what it was restored from, then keeps
	// tracking new entries and overwrites.
	snap := m.check(t, "before restore")
	r := newStateModel()
	r.elapsed = m.elapsed
	maps.Copy(r.reps, m.reps)
	maps.Copy(r.cache, m.cache)
	if err := r.st.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	r.check(t, "restored")
	r.reserve(awkwardKeys[0], 1)
	r.settle(awkwardKeys[0], stateMeasurement(awkwardKeys[0], 3.25, false), true)
	r.reserve("after restore", 2)
	r.settle("after restore", stateMeasurement("after restore", 4, true), true)
	r.check(t, "restored then mutated")

	// Restoring over a populated state replaces it wholesale.
	if err := m.st.RestoreState([]byte(`{"elapsed":1.5}`)); err != nil {
		t.Fatal(err)
	}
	got, err := m.st.SnapshotState()
	if want := `{"elapsed":1.5,"reps":{},"cache":{}}`; err != nil || string(got) != want {
		t.Fatalf("restore over populated state = %s (%v), want %s", got, err, want)
	}
}

// TestStateSnapshotClockEncoding covers the clock's whole range: from
// zero and one microsecond up to near the largest microsecond count.
func TestStateSnapshotClockEncoding(t *testing.T) {
	for _, sec := range []float64{0, 1e-6, 0.1 + 0.2, 123456.789, 1 << 40, 9e12} {
		var st State
		st.clock.Set(sec)
		got, err := st.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalState(st.clock.Seconds(), map[string]int{}, map[string]Measurement{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("clock %g: snapshot %s, json.Marshal %s", sec, got, want)
		}
	}
}

func TestStateSnapshotFailsOnNaN(t *testing.T) {
	var st State
	st.Reserve("k", 1)
	st.Settle("k", Measurement{Key: "k", Mean: nan()}, true)
	if _, err := st.SnapshotState(); err == nil {
		t.Fatal("a NaN measurement must fail the snapshot, as json.Marshal does")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// TestSnapshotAllocsFlatInCacheSize guards the growth rate: snapshotting a
// runner with no new trials since its last snapshot must cost the same
// number of allocations at 100 cache entries as at 1,000.
func TestSnapshotAllocsFlatInCacheSize(t *testing.T) {
	allocs := func(n int) float64 {
		r, reg := newRunner(t, "fop")
		for i := 0; i < n; i++ {
			cfg := flags.NewConfig(reg)
			cfg.SetInt("MaxHeapSize", int64(256+i)<<20)
			r.Measure(cfg, 2)
		}
		if _, err := r.SnapshotState(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := r.SnapshotState(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(1000)
	if small != large {
		t.Fatalf("snapshot allocations grow with the cache: %v at 100 entries, %v at 1000", small, large)
	}
}

// FuzzStateSnapshot drives a State through fuzzed reserve/settle/snapshot/
// restore sequences over fuzzed keys and failure messages, comparing every
// snapshot with json.Marshal of a plain-map model.
func FuzzStateSnapshot(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, "-Xmx1g", "a<b>&c", "boom")
	f.Add([]byte{9, 17, 33, 3, 65, 2, 130, 7, 255}, "line\u2028sep", "", "<script>&amp;")
	f.Fuzz(func(t *testing.T, ops []byte, k1, k2, msg string) {
		// Invalid UTF-8 is encoded lossily (as U+FFFD), so a restored state
		// legitimately differs from the model; the sessions' keys are ASCII.
		if !utf8.ValidString(k1) || !utf8.ValidString(k2) || !utf8.ValidString(msg) {
			t.Skip()
		}
		keys := []string{k1, k2, k1 + k2, "ph1|" + k1}
		m := newStateModel()
		for i, op := range ops {
			k := keys[int(op>>4)%len(keys)]
			cost := float64(op) / 8
			switch op % 5 {
			case 0:
				m.reserve(k, 1+int(op%3))
			case 1:
				meas := stateMeasurement(k, cost, op&8 != 0)
				meas.FailureMessage += msg
				m.settle(k, meas, op&16 == 0)
			case 2:
				m.settle(k, Measurement{Key: k, Failed: true, Transient: true, CostSeconds: cost}, true)
			case 3:
				m.check(t, fmt.Sprintf("op %d", i))
			case 4:
				fresh := &State{}
				if err := fresh.RestoreState(m.check(t, "before restore")); err != nil {
					t.Fatal(err)
				}
				m.st = fresh
			}
		}
		m.check(t, "end")
	})
}
