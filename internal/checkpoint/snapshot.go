package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/runner"
)

// Meta fingerprints the session that wrote a snapshot. Resume refuses a
// checkpoint whose fingerprint disagrees with the session being started:
// replay only reconstructs searcher and RNG state when every determinism
// input matches, and silently continuing with a different seed or searcher
// would produce a report that looks authoritative but corresponds to no
// real run.
type Meta struct {
	Workload      string  `json:"workload"`
	Searcher      string  `json:"searcher"`
	Objective     string  `json:"objective"`
	Runner        string  `json:"runner"` // concrete runner type, e.g. "*runner.InProcess"
	Seed          int64   `json:"seed"`
	BudgetSeconds float64 `json:"budget_seconds"`
	Reps          int     `json:"reps"`
	Workers       int     `json:"workers"`
	MaxTrials     int     `json:"max_trials"`
	// Robustness fingerprints the session's straggler-hedging and
	// failure-quarantine options — they steer which trials run, so a
	// checkpoint cannot resume under different settings. Empty when both
	// are off, which keeps snapshots from older builds loadable.
	Robustness string `json:"robustness,omitempty"`
	// Transfer fingerprints the warm-start priors injected into the
	// session's searcher — they steer the very first proposals, so a
	// checkpoint taken warm cannot resume cold or under different priors.
	// Empty for cold sessions, which keeps snapshots from older builds
	// loadable and transfer-off snapshots byte-identical.
	Transfer string `json:"transfer,omitempty"`
	// Drift fingerprints the session's workload-drift options: the phase
	// schedule the workload follows and the detector the session re-tunes
	// under. Both steer which trials run and when the searcher is rebuilt,
	// so a drifting checkpoint cannot resume stationary (or under a
	// different script or sensitivity). Empty when drift is off, which
	// keeps stationary snapshots byte-identical to older builds.
	Drift string `json:"drift,omitempty"`
}

// Check reports the first fingerprint mismatch between the checkpoint's
// metadata and the resuming session's, or nil if they agree.
func (m Meta) Check(want Meta) error {
	type field struct {
		name      string
		got, want any
	}
	for _, f := range []field{
		{"workload", m.Workload, want.Workload},
		{"searcher", m.Searcher, want.Searcher},
		{"objective", m.Objective, want.Objective},
		{"runner", m.Runner, want.Runner},
		{"seed", m.Seed, want.Seed},
		{"budget_seconds", m.BudgetSeconds, want.BudgetSeconds},
		{"reps", m.Reps, want.Reps},
		{"workers", m.Workers, want.Workers},
		{"max_trials", m.MaxTrials, want.MaxTrials},
		{"robustness", m.Robustness, want.Robustness},
		{"transfer", m.Transfer, want.Transfer},
		{"drift", m.Drift, want.Drift},
	} {
		if f.got != f.want {
			return fmt.Errorf("checkpoint: %s mismatch: checkpoint has %v, session wants %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TrialRecord is one delivered measurement: the dispatch sequence number the
// engine assigned the trial, the flag-set key it evaluated, and the
// measurement the searcher observed. Seq and Key double as divergence
// checks on replay — if the resumed engine proposes a different config for a
// recorded seq, the determinism inputs changed and resume aborts rather
// than splicing mismatched histories.
type TrialRecord struct {
	Seq int                `json:"seq"`
	Key string             `json:"key"`
	M   runner.Measurement `json:"m"`
}

// PriorRecord serializes one warm-start prior a re-tuning epoch was opened
// with: the configuration (by canonical key and full-fidelity args) and its
// baseline-relative quality signal. Recorded verbatim so a resumed session
// rebuilds the epoch's searcher from exactly the priors the original run
// used — the transfer store the priors came from may have changed since.
type PriorRecord struct {
	Key  string   `json:"key"`
	Args []string `json:"args,omitempty"`
	Norm float64  `json:"norm"`
}

// EpochRecord is one re-tuning epoch a drifting session opened: at which
// trial, into which workload phase, and with which warm-start priors. The
// detector itself needs no state here — it is a pure fold over the trial
// log, so replay reconstructs it — but the priors are an external input
// (transfer-store lookups) and must be replayed verbatim.
type EpochRecord struct {
	Epoch  int           `json:"epoch"`
	Phase  int           `json:"phase"`
	Trial  int           `json:"trial"` // trials delivered when the epoch opened
	Priors []PriorRecord `json:"priors,omitempty"`
}

// Snapshot is a complete session checkpoint: everything needed to continue
// a killed run and converge to the byte-identical outcome of an
// uninterrupted one. Trials is the ordered log of delivered measurements;
// RunnerState is the runner's own opaque serialization (evaluated-config
// cache, noise-rep indices, chaos counters, elapsed virtual clock) produced
// by runner.StateSnapshotter. Epochs lists the re-tuning epochs a drifting
// session has opened (empty for stationary sessions, keeping their
// snapshots loadable by older builds — and older snapshots loadable here).
//
// A session does not fill Trials: it attaches its pre-encoded TrialLog
// with SetTrialLog, and Encode streams those encodings instead. The bytes
// written are the same either way — json.Marshal of the snapshot with
// Trials filled in.
type Snapshot struct {
	Meta        Meta               `json:"meta"`
	Trial       int                `json:"trial"`   // trials completed when the snapshot was taken
	Elapsed     float64            `json:"elapsed"` // virtual seconds consumed
	BestKey     string             `json:"best_key"`
	BestScore   float64            `json:"best_score"`
	Baseline    runner.Measurement `json:"baseline"`
	Trials      []TrialRecord      `json:"trials"`
	Epochs      []EpochRecord      `json:"epochs,omitempty"`
	RunnerState json.RawMessage    `json:"runner_state,omitempty"`

	// log, when set, is the encoded trial log Encode writes in place of
	// Trials.
	log *TrialLog
}

// TrialLog is a session's delivered-trial log in encoded form. Each record
// is marshaled once, when the session appends it, so a checkpoint's
// encoding work is proportional to the trials delivered since the last
// one rather than to the whole session. Stored encodings are never
// modified, which lets a snapshot taken with SetTrialLog be encoded on
// another goroutine while the session keeps appending. Append and
// SetTrialLog must not run concurrently. The zero value is an empty log.
type TrialLog struct {
	recs [][]byte
	err  error // first encoding failure; every later snapshot reports it
}

// Append encodes rec and adds it to the log. A record that cannot be
// encoded (a NaN measurement) poisons the log: every snapshot taken from
// it from then on fails to encode, as json.Marshal of the whole snapshot
// would.
func (l *TrialLog) Append(rec TrialRecord) {
	if l.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		l.err = err
		return
	}
	l.recs = append(l.recs, b)
}

// SetTrialLog makes l's records, as of this call, the snapshot's trial
// log; Encode ignores Trials from then on. Records l appends later are not
// part of this snapshot.
func (s *Snapshot) SetTrialLog(l *TrialLog) {
	n := len(l.recs)
	s.log = &TrialLog{recs: l.recs[:n:n], err: l.err}
}

// Encode writes the snapshot to w: header, then one framed JSON record.
func (s *Snapshot) Encode(w io.Writer) error {
	parts, err := s.payload()
	if err != nil {
		return fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	if err := writeHeader(w); err != nil {
		return err
	}
	return writeRecordParts(w, parts)
}

// Fixed JSON fragments of the streamed snapshot encoding.
var (
	jsonNull       = []byte("null")
	jsonOpen       = []byte("[")
	jsonComma      = []byte(",")
	jsonClose      = []byte("]")
	jsonEnd        = []byte("}")
	trialsNullTail = []byte(`"trials":null}`)
)

// payload returns the snapshot record's JSON as the ordered parts it is
// written from. Without a trial log it is json.Marshal of the snapshot in
// one part. With one, no part is the whole payload: the small head and
// tail are marshaled per write, the trial records and runner state are
// written from their stored encodings, and nothing is re-compacted.
func (s *Snapshot) payload() (func(part func([]byte)), error) {
	if s.log == nil {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		return func(part func([]byte)) { part(b) }, nil
	}
	if s.log.err != nil {
		return nil, s.log.err
	}
	// Marshaling the head fields alone ends the object with a null trial
	// log; cut there and splice in the stored records.
	head, err := json.Marshal(&Snapshot{
		Meta: s.Meta, Trial: s.Trial, Elapsed: s.Elapsed,
		BestKey: s.BestKey, BestScore: s.BestScore, Baseline: s.Baseline,
	})
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(head, trialsNullTail) {
		return nil, fmt.Errorf("unexpected snapshot head %q", head)
	}
	head = head[:len(head)-len(`null}`)]
	var tail []byte
	if len(s.Epochs) > 0 {
		epochs, err := json.Marshal(s.Epochs)
		if err != nil {
			return nil, err
		}
		tail = append([]byte(`,"epochs":`), epochs...)
	}
	if len(s.RunnerState) > 0 {
		// SnapshotState already wrote the bytes json.Marshal would (see
		// runner.StateSnapshotter), so they go out verbatim.
		tail = append(tail, `,"runner_state":`...)
	}
	recs, state := s.log.recs, s.RunnerState
	return func(part func([]byte)) {
		part(head)
		if recs == nil {
			part(jsonNull)
		} else {
			part(jsonOpen)
			for i, r := range recs {
				if i > 0 {
					part(jsonComma)
				}
				part(r)
			}
			part(jsonClose)
		}
		part(tail)
		part(state)
		part(jsonEnd)
	}, nil
}

// Decode reads a snapshot written by Encode, failing closed on anything
// malformed: bad magic, future version, torn or CRC-corrupt record,
// non-JSON payload, or trailing garbage after the snapshot record.
func Decode(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	if _, err := readHeader(br); err != nil {
		return nil, err
	}
	payload, err := readRecord(br)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing snapshot record", ErrCorrupt)
		}
		return nil, err
	}
	var s Snapshot
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: snapshot payload: %v", ErrCorrupt, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after snapshot record", ErrCorrupt)
	}
	return &s, nil
}

// Save atomically replaces the snapshot at path: the bytes go to a temp
// file in the same directory, are fsynced, and only then renamed over the
// destination. A crash at any point leaves either the previous complete
// snapshot or the new one — never a torn file.
func (s *Snapshot) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	if err := s.Encode(bw); err != nil {
		return cleanup(err)
	}
	if err := bw.Flush(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: save: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: save: sync: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Load reads and validates the snapshot at path. The caller distinguishes
// "no checkpoint yet" with errors.Is(err, os.ErrNotExist).
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
