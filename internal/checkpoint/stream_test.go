package checkpoint

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
	"unicode/utf8"

	"repro/internal/runner"
)

// marshalOracle is the reference encoding of a snapshot: header plus one
// record framing json.Marshal of the snapshot with Trials filled in.
func marshalOracle(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := writeRecord(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamed encodes s the way a session does: its Trials go through a
// TrialLog and the snapshot carries the log instead.
func streamed(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var log TrialLog
	for _, rec := range s.Trials {
		log.Append(rec)
	}
	c := *s
	c.Trials = nil
	c.SetTrialLog(&log)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func awkwardMeasurement(key string) runner.Measurement {
	return runner.Measurement{
		Key: key, Failed: true, Failure: "crash",
		FailureMessage: "heap <exhausted> & gone\u2028next\u2029line",
		CostSeconds:    1e-7, Attempts: 2, Flakes: 1,
	}
}

func awkwardState(t *testing.T) []byte {
	t.Helper()
	state, err := runner.MarshalState(12.5,
		map[string]int{"-Xmx1g": 3, "a<b>&c\u2028": 1},
		map[string]runner.Measurement{"a<b>&c\u2028": awkwardMeasurement("a<b>&c\u2028")})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func TestStreamedSnapshotMatchesMarshal(t *testing.T) {
	epochs := []EpochRecord{{Epoch: 1, Phase: 1, Trial: 1, Priors: []PriorRecord{{Key: "<k>", Args: []string{"-Xmx1g"}, Norm: 0.9}}}}
	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"sample", func(*Snapshot) {}},
		{"nil trial log", func(s *Snapshot) { s.Trials = nil }},
		{"epochs present", func(s *Snapshot) { s.Epochs = epochs }},
		{"epochs empty", func(s *Snapshot) { s.Epochs = []EpochRecord{} }},
		{"empty runner state", func(s *Snapshot) { s.RunnerState = nil }},
		{"empty runner state with epochs", func(s *Snapshot) { s.RunnerState, s.Epochs = nil, epochs }},
		{"awkward strings", func(s *Snapshot) {
			k := "-XX:OnError=<a>&b\u2028c"
			s.BestKey = k
			s.Meta.Workload = "h2 & <fop>"
			s.Trials = append(s.Trials, TrialRecord{Seq: 7, Key: k, M: awkwardMeasurement(k)})
			s.RunnerState = awkwardState(t)
		}},
		{"many trials", func(s *Snapshot) {
			for i := 0; i < 300; i++ {
				s.Trials = append(s.Trials, TrialRecord{Seq: i + 2, Key: "-Xmx" + string(rune('a'+i%26)),
					M: runner.Measurement{Walls: []float64{float64(i) / 3}, Mean: float64(i) / 3, CostSeconds: 1e21 + float64(i)}})
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sampleSnapshot()
			c.mutate(s)
			want := marshalOracle(t, s)
			if got := streamed(t, s); !bytes.Equal(got, want) {
				t.Fatalf("streamed snapshot differs from json.Marshal\n got: %q\nwant: %q", got, want)
			}
			// The plain path is the oracle itself.
			var plain bytes.Buffer
			if err := s.Encode(&plain); err != nil || !bytes.Equal(plain.Bytes(), want) {
				t.Fatalf("plain Encode = %v, differs from json.Marshal: %v", plain.Bytes(), err)
			}
		})
	}
}

// TestEmptyTrialLogEncodesNull pins the empty-log encoding: a session's
// log starts as nil, so a snapshot before the first delivery records a
// null trial log, exactly as json.Marshal of nil Trials does; an explicitly
// empty Trials slice (a plain snapshot) still encodes as [].
func TestEmptyTrialLogEncodesNull(t *testing.T) {
	s := sampleSnapshot()
	s.Trials = nil
	if got := streamed(t, s); !bytes.Contains(got, []byte(`"trials":null`)) {
		t.Fatalf("empty trial log encoded as %q, want a null trials field", got)
	}
	s.Trials = []TrialRecord{}
	var plain bytes.Buffer
	if err := s.Encode(&plain); err != nil || !bytes.Contains(plain.Bytes(), []byte(`"trials":[]`)) {
		t.Fatalf("plain snapshot with empty Trials = %q (%v), want []", plain.Bytes(), err)
	}
}

func TestSetTrialLogFreezesExtent(t *testing.T) {
	s := sampleSnapshot()
	var log TrialLog
	for _, rec := range s.Trials {
		log.Append(rec)
	}
	c := *s
	c.Trials = nil
	c.SetTrialLog(&log)
	// Later appends are not part of the snapshot already taken.
	log.Append(TrialRecord{Seq: 99, Key: "late"})
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if want := marshalOracle(t, s); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("snapshot picked up a later append:\n got: %q\nwant: %q", buf.Bytes(), want)
	}

	// A streamed snapshot survives Save and Load like any other.
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trials) != len(s.Trials) || got.Trials[1].M.Flakes != 1 {
		t.Fatalf("loaded trial log = %+v", got.Trials)
	}
}

func TestTrialLogPoisonedByUnencodableRecord(t *testing.T) {
	var log TrialLog
	log.Append(TrialRecord{Seq: 0, Key: "ok"})
	log.Append(TrialRecord{Seq: 1, Key: "nan", M: runner.Measurement{Mean: math.NaN()}})
	log.Append(TrialRecord{Seq: 2, Key: "after"})
	s := sampleSnapshot()
	s.SetTrialLog(&log)
	if err := s.Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("a log holding an unencodable record must fail to encode, as json.Marshal does")
	}
}

// FuzzStreamedSnapshot compares the streamed encoding with json.Marshal
// over fuzzed keys, failure messages, log lengths, epochs, and runner
// state built by the runner's canonical encoder.
func FuzzStreamedSnapshot(f *testing.F) {
	f.Add("-Xmx1g", "boom", uint8(3), true, 1.5)
	f.Add("a<b>&c\u2028", "<heap>&\u2029", uint8(0), false, 1e-9)
	f.Add("", "", uint8(1), true, 0.0)
	f.Fuzz(func(t *testing.T, key, msg string, n uint8, epochs bool, cost float64) {
		if math.IsNaN(cost) || math.IsInf(cost, 0) || !utf8.ValidString(key) {
			t.Skip()
		}
		s := sampleSnapshot()
		s.BestKey = key
		s.Trials = nil
		m := runner.Measurement{Key: key, Walls: []float64{cost}, Mean: cost, CostSeconds: cost, FailureMessage: msg}
		for i := 0; i < int(n); i++ {
			s.Trials = append(s.Trials, TrialRecord{Seq: i, Key: key, M: m})
		}
		if epochs {
			s.Epochs = []EpochRecord{{Epoch: 1, Phase: int(n), Trial: int(n), Priors: []PriorRecord{{Key: key, Norm: cost}}}}
		}
		s.RunnerState = nil
		if n%2 == 1 {
			state, err := runner.MarshalState(cost, map[string]int{key: int(n)}, map[string]runner.Measurement{key: m})
			if err != nil {
				t.Fatal(err)
			}
			s.RunnerState = state
		}
		if got, want := streamed(t, s), marshalOracle(t, s); !bytes.Equal(got, want) {
			t.Fatalf("streamed snapshot differs from json.Marshal\n got: %q\nwant: %q", got, want)
		}
	})
}
