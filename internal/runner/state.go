package runner

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// StateSnapshotter is the contract between runners and the checkpoint
// layer: a runner that can serialize its mutable measurement state —
// elapsed virtual clock, per-key noise-rep indices, and the evaluated-
// config cache — can take part in crash-safe sessions. Restoring a
// snapshot must leave the runner bit-identical to the one that took it, so
// a resumed session's fresh measurements (cache hits, rep indices, budget
// accounting) replay exactly as the uninterrupted run's would have.
//
// Wrapping runners (the chaos layer) snapshot their own counters plus
// their inner runner's state, so one SnapshotState call at the outermost
// layer captures the whole stack.
type StateSnapshotter interface {
	// SnapshotState serializes the runner's mutable state. The bytes must
	// be exactly what json.Marshal writes for the state — compact, with
	// HTML-significant characters escaped — because the checkpoint layer
	// embeds them in its snapshot record verbatim.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the runner's mutable state with a snapshot
	// taken by the same runner type. It fails closed on malformed bytes.
	RestoreState(data []byte) error
}

// runnerState is the shared serialization of the runners' mutable state.
// Static configuration (simulator, profile, timeouts, retry policy) is
// rebuilt from the session options on resume and is deliberately absent:
// checkpoint.Meta guards against resuming under different options.
type runnerState struct {
	Elapsed float64                `json:"elapsed"`
	Reps    map[string]int         `json:"reps"`
	Cache   map[string]Measurement `json:"cache"`
}

// MarshalState serializes the canonical runner state triple with
// json.Marshal. It is the reference encoding State.SnapshotState
// reproduces byte for byte.
func MarshalState(elapsed float64, reps map[string]int, cache map[string]Measurement) ([]byte, error) {
	return json.Marshal(runnerState{Elapsed: elapsed, Reps: reps, Cache: cache})
}

// UnmarshalState is the inverse of MarshalState; it fails closed on
// malformed bytes and never returns nil maps.
func UnmarshalState(data []byte) (elapsed float64, reps map[string]int, cache map[string]Measurement, err error) {
	var st runnerState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, nil, nil, fmt.Errorf("runner: restore state: %w", err)
	}
	if st.Reps == nil {
		st.Reps = make(map[string]int)
	}
	if st.Cache == nil {
		st.Cache = make(map[string]Measurement)
	}
	return st.Elapsed, st.Reps, st.Cache, nil
}

// State is the mutable measurement state every runner keeps: the virtual
// clock, the next noise-rep index per key, and the evaluated-config cache.
// Runners embed it, which makes them StateSnapshotters and gives them
// Elapsed. It is safe for concurrent use; the zero value is ready.
//
// Snapshots are incremental in their encoding work. Each cached
// measurement is encoded once and the encoding is reused until the entry
// is overwritten or the state is restored; keys are merged into sorted
// order as they arrive, so a snapshot only sorts the keys added since the
// previous one. The output is byte-identical to MarshalState.
type State struct {
	mu      sync.Mutex
	clock   VirtualClock
	entries map[string]*stateEntry
	sorted  []*stateEntry // every key as of the last snapshot, in key order
	fresh   []*stateEntry // keys added since the last snapshot
}

// stateEntry is one key's rep counter and cached verdict.
type stateEntry struct {
	key    string
	hasRep bool
	rep    int
	cached bool
	m      Measurement
	qkey   []byte // JSON-quoted key, encoded at the first snapshot
	enc    []byte // JSON of m; nil until encoded, reset when m changes
}

// entry returns key's entry, creating it if absent. Caller holds s.mu.
func (s *State) entry(key string) *stateEntry {
	if e, ok := s.entries[key]; ok {
		return e
	}
	if s.entries == nil {
		s.entries = make(map[string]*stateEntry)
	}
	e := &stateEntry{key: key}
	s.entries[key] = e
	s.fresh = append(s.fresh, e)
	return e
}

// Elapsed returns total virtual seconds consumed.
func (s *State) Elapsed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock.Seconds()
}

// Cached returns key's cached verdict when it answers a reps-repetition
// request — a failure always does, a success only if it has enough walls —
// marked as a zero-cost cache replay.
func (s *State) Cached(key string, reps int) (Measurement, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || !e.cached || (!e.m.Failed && len(e.m.Walls) < reps) {
		return Measurement{}, false
	}
	m := e.m
	m.FromCache = true
	m.CostSeconds = 0
	return m, true
}

// Reserve allocates reps fresh noise-rep indices for key and returns the
// first. Each attempt reserves anew, so a retried run is a genuinely new
// measurement, not a replay.
func (s *State) Reserve(key string, reps int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entry(key)
	base := e.rep
	e.rep, e.hasRep = base+reps, true
	return base
}

// Settle charges m's cost to the clock and, when cache is set, memoizes m
// under key. A transient failure is no verdict — caching it would condemn
// a configuration that merely hit a flaky launch — so it is never cached.
func (s *State) Settle(key string, m Measurement, cache bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.Charge(m.CostSeconds)
	if cache && !m.Transient {
		e := s.entry(key)
		e.m, e.cached, e.enc = m, true, nil
	}
}

// SnapshotState implements StateSnapshotter.
func (s *State) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeFresh()
	// The clock counts microseconds in an int64, so its seconds are 0 or
	// within [1e-6, 1e13), where json.Marshal writes a float64 in
	// strconv's shortest 'f' form. Formatting it here keeps the snapshot
	// to one allocation.
	var fbuf [32]byte
	elapsed := strconv.AppendFloat(fbuf[:0], s.clock.Seconds(), 'f', -1, 64)
	const (
		head = `{"elapsed":`
		mid  = `},"cache":{`
	)
	// Size the buffer exactly (a comma per entry over-counts by at most
	// two) so the snapshot is one allocation however many keys it holds.
	size := len(head) + len(elapsed) + len(`,"reps":{`) + len(mid) + len(`}}`)
	var err error
	for _, e := range s.sorted {
		if e.qkey == nil {
			e.qkey, _ = json.Marshal(e.key) // a string always encodes
		}
		if e.hasRep {
			size += len(e.qkey) + 2 + intLen(e.rep)
		}
		if e.cached {
			if e.enc == nil {
				if e.enc, err = json.Marshal(e.m); err != nil {
					return nil, fmt.Errorf("runner: snapshot state: %w", err)
				}
			}
			size += len(e.qkey) + 2 + len(e.enc)
		}
	}

	b := make([]byte, 0, size)
	b = append(b, head...)
	b = append(b, elapsed...)
	b = append(b, `,"reps":{`...)
	first := true
	for _, e := range s.sorted {
		if !e.hasRep {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, e.qkey...)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(e.rep), 10)
	}
	b = append(b, mid...)
	first = true
	for _, e := range s.sorted {
		if !e.cached {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, e.qkey...)
		b = append(b, ':')
		b = append(b, e.enc...)
	}
	return append(b, `}}`...), nil
}

// intLen is the length of n's decimal encoding.
func intLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for n <= -10 || n >= 10 {
		n /= 10
		l++
	}
	return l
}

// mergeFresh folds the keys added since the last snapshot into the sorted
// key list. Caller holds s.mu.
func (s *State) mergeFresh() {
	if len(s.fresh) == 0 {
		return
	}
	byKey := func(a, b *stateEntry) int { return strings.Compare(a.key, b.key) }
	slices.SortFunc(s.fresh, byKey)
	// Merge from the back so the sorted list grows in place.
	i, j := len(s.sorted)-1, len(s.fresh)-1
	s.sorted = slices.Grow(s.sorted, len(s.fresh))[:len(s.sorted)+len(s.fresh)]
	for k := len(s.sorted) - 1; j >= 0; k-- {
		if i >= 0 && s.sorted[i].key > s.fresh[j].key {
			s.sorted[k] = s.sorted[i]
			i--
		} else {
			s.sorted[k] = s.fresh[j]
			j--
		}
	}
	clear(s.fresh)
	s.fresh = s.fresh[:0]
}

// RestoreState implements StateSnapshotter. Every memoized encoding is
// dropped with the state it encoded.
func (s *State) RestoreState(data []byte) error {
	elapsed, reps, cache, err := UnmarshalState(data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock.Set(elapsed)
	s.entries, s.sorted, s.fresh = nil, nil, nil
	for k, n := range reps {
		e := s.entry(k)
		e.rep, e.hasRep = n, true
	}
	for k, m := range cache {
		e := s.entry(k)
		e.m, e.cached = m, true
	}
	return nil
}
