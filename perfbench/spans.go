package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// spanKind names the layer boundary a span was taken at.
type spanKind uint8

const (
	kSession spanKind = iota
	kSetup
	kPropose
	kObserve
	kMeasure
	kRoundtrip
	kEvaldHandle
	kEvaldOther
	kHTTPTune
	kHTTPMetrics
	kHTTPOther
	kNearest
)

var kindNames = [...]string{
	kSession:     "core.session",
	kSetup:       "core.setup",
	kPropose:     "core.propose",
	kObserve:     "core.observe",
	kMeasure:     "runner.measure",
	kRoundtrip:   "dispatch.roundtrip",
	kEvaldHandle: "evald.handle",
	kEvaldOther:  "evald.other",
	kHTTPTune:    "httpapi.tune",
	kHTTPMetrics: "httpapi.metrics",
	kHTTPOther:   "httpapi.other",
	kNearest:     "transfer.nearest",
}

func (k spanKind) String() string { return kindNames[k] }

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is 0 for a root span.
// Session indexes the recorder's session names (0 for node-scope work such
// as an evald request). The struct holds no pointers, so the garbage
// collector never scans the span buffer.
type span struct {
	ID, Parent int64
	Start, End int64
	Kind       spanKind
	Session    int32
	// N is the work the span carried: configurations proposed or measured,
	// trials shipped by a round trip. Fails counts the work that failed:
	// measurements with no usable result, or a round trip the pool has to
	// place again. Hits counts measurements replayed from the runner's
	// cache.
	N, Fails, Hits int32
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps every span in memory until the run ends; nothing is
// written while the workload is being measured.
type recorder struct {
	t0       time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
	sessions []string // index 0 is node scope
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), sessions: []string{""}} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// session registers a session name and returns its index.
func (r *recorder) session(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions = append(r.sessions, name)
	return int32(len(r.sessions) - 1)
}

// open allocates a span and stamps its start; the caller fills in the
// rest and hands it to close.
func (r *recorder) open(k spanKind, session int32, parent int64) span {
	return span{ID: r.next.Add(1), Parent: parent, Kind: k, Session: session, Start: r.now()}
}

func (r *recorder) close(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	type line struct {
		ID      int64  `json:"id"`
		Parent  int64  `json:"parent,omitempty"`
		Name    string `json:"name"`
		Session string `json:"session,omitempty"`
		Start   int64  `json:"start_ns"`
		End     int64  `json:"end_ns"`
		N       int32  `json:"n,omitempty"`
		Fails   int32  `json:"fails,omitempty"`
		Hits    int32  `json:"hits,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	sessions := r.sessions
	r.mu.Unlock()
	for _, s := range r.snapshot() {
		l := line{s.ID, s.Parent, s.Kind.String(), sessions[s.Session], s.Start, s.End, s.N, s.Fails, s.Hits}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionScope is the trace context of one tuning session: the recorder,
// the session's id and its root span, which every layer wrapper of the
// session records its calls under.
type sessionScope struct {
	rec   *recorder
	id    int32
	root  int64
	start int64 // the root span's start stamp
}

func (sc sessionScope) open(k spanKind) span { return sc.rec.open(k, sc.id, sc.root) }

// tracedSearcher times Propose and Observe of a core.Searcher. The session
// start (the root span's start) to the first propose is the session's
// set-up: registry and tree build plus the baseline measurement.
type tracedSearcher struct {
	inner core.Searcher
	sc    sessionScope
	first sync.Once
}

func (t *tracedSearcher) noteFirst() {
	t.first.Do(func() {
		s := t.sc.open(kSetup)
		s.Start = t.sc.start
		t.sc.rec.close(s)
	})
}

func (t *tracedSearcher) Name() string { return t.inner.Name() }

func (t *tracedSearcher) Propose(ctx *core.Context) *flags.Config {
	t.noteFirst()
	s := t.sc.open(kPropose)
	cfg := t.inner.Propose(ctx)
	if cfg != nil {
		s.N = 1
	}
	t.sc.rec.close(s)
	return cfg
}

func (t *tracedSearcher) Observe(ctx *core.Context, cfg *flags.Config, m runner.Measurement) {
	s := t.sc.open(kObserve)
	s.N = 1
	t.inner.Observe(ctx, cfg, m)
	t.sc.rec.close(s)
}

// tracedBatchSearcher adds ProposeBatch for searchers that implement
// core.BatchSearcher; the session engine takes a different path for them,
// so the wrapper must offer the method exactly when the inner one does.
type tracedBatchSearcher struct{ *tracedSearcher }

func (t tracedBatchSearcher) ProposeBatch(ctx *core.Context, n int) []*flags.Config {
	t.noteFirst()
	s := t.sc.open(kPropose)
	cfgs := t.inner.(core.BatchSearcher).ProposeBatch(ctx, n)
	s.N = int32(len(cfgs))
	t.sc.rec.close(s)
	return cfgs
}

func wrapSearcher(inner core.Searcher, sc sessionScope) core.Searcher {
	t := &tracedSearcher{inner: inner, sc: sc}
	if _, ok := inner.(core.BatchSearcher); ok {
		return tracedBatchSearcher{t}
	}
	return t
}

// innerRunner is what every runner the benchmark wraps implements: the
// in-process runner and the dispatch pool both snapshot state and follow
// phase shifts. The wrapper forwards both, so the session engine takes the
// same checkpoint and drift paths with or without tracing.
type innerRunner interface {
	runner.Runner
	runner.StateSnapshotter
	runner.PhaseSetter
}

// tracedRunner times the session's Measure calls into its runner.
type tracedRunner struct {
	inner innerRunner
	sc    sessionScope
}

func (t *tracedRunner) Measure(cfg *flags.Config, reps int) runner.Measurement {
	s := t.sc.open(kMeasure)
	m := t.inner.Measure(cfg, reps)
	s.N = 1
	s.Fails, s.Hits = tally(m)
	t.sc.rec.close(s)
	return m
}

func (t *tracedRunner) Workload() *workload.Profile { return t.inner.Workload() }
func (t *tracedRunner) Elapsed() float64            { return t.inner.Elapsed() }
func (t *tracedRunner) SnapshotState() ([]byte, error) {
	return t.inner.SnapshotState()
}
func (t *tracedRunner) RestoreState(data []byte) error { return t.inner.RestoreState(data) }
func (t *tracedRunner) SetPhase(phase int, shift jvmsim.PhaseShift) error {
	return t.inner.SetPhase(phase, shift)
}

// DeterminismFingerprint keeps the checkpoint fingerprint of a traced
// session equal to an untraced one: the engine renders the runner's own
// hook when it has one, and its concrete type otherwise.
func (t *tracedRunner) DeterminismFingerprint() string {
	if fp, ok := t.inner.(interface{ DeterminismFingerprint() string }); ok {
		return fp.DeterminismFingerprint()
	}
	return fmt.Sprintf("%T", t.inner)
}

// tracedBatchRunner adds MeasureBatch for runners that implement
// runner.BatchMeasurer (the dispatch pool). One span covers the batch and
// carries its size and its failed and cached entries.
type tracedBatchRunner struct{ *tracedRunner }

func (t tracedBatchRunner) MeasureBatch(cfgs []*flags.Config, reps int) []runner.Measurement {
	s := t.sc.open(kMeasure)
	ms := t.inner.(runner.BatchMeasurer).MeasureBatch(cfgs, reps)
	s.N = int32(len(cfgs))
	for _, m := range ms {
		f, h := tally(m)
		s.Fails += f
		s.Hits += h
	}
	t.sc.rec.close(s)
	return ms
}

// tally renders one measurement as (failed, cache hit) counts.
func tally(m runner.Measurement) (fails, hits int32) {
	if m.Failed {
		fails = 1
	}
	if m.FromCache {
		hits = 1
	}
	return fails, hits
}

func wrapRunner(inner innerRunner, sc sessionScope) runner.Runner {
	t := &tracedRunner{inner: inner, sc: sc}
	if _, ok := inner.(runner.BatchMeasurer); ok {
		return tracedBatchRunner{t}
	}
	return t
}

// remoteEvaluator is what the dispatch Remote implements: single and
// batched evaluation plus the liveness probe the pool's heartbeats use.
type remoteEvaluator interface {
	dispatch.Evaluator
	dispatch.BatchEvaluator
	dispatch.Pinger
}

// tracedEvaluator times the pool's round trips to one node.
type tracedEvaluator struct {
	inner remoteEvaluator
	sc    sessionScope
}

func (t *tracedEvaluator) Name() string { return t.inner.Name() }

func (t *tracedEvaluator) Evaluate(ctx context.Context, req *dispatch.TrialRequest) (*dispatch.TrialResult, error) {
	s := t.sc.open(kRoundtrip)
	s.N = 1
	res, err := t.inner.Evaluate(ctx, req)
	if err != nil {
		s.Fails = 1
	}
	t.sc.rec.close(s)
	return res, err
}

func (t *tracedEvaluator) EvaluateBatch(ctx context.Context, req *dispatch.BatchRequest) (*dispatch.BatchResult, error) {
	s := t.sc.open(kRoundtrip)
	s.N = int32(len(req.Trials))
	res, err := t.inner.EvaluateBatch(ctx, req)
	if err != nil {
		s.Fails = 1
	}
	t.sc.rec.close(s)
	return res, err
}

func (t *tracedEvaluator) Ping(ctx context.Context) error { return t.inner.Ping(ctx) }

// tracedHandler times every request an HTTP layer serves, under a span
// of the kind the route function gives.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
	route func(*http.Request) spanKind
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := t.rec.open(t.route(r), 0, 0)
	s.N = 1
	t.inner.ServeHTTP(w, r)
	t.rec.close(s)
}
