package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/hotspot"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/evald"
	"repro/internal/flags"
	"repro/internal/jvmsim"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Workload sizes. The round and session lengths are measured on the
// reference host (2 vCPUs, Go 1.24) and only convert --seconds into a fixed
// amount of work.
//
// Each program runs the same number of times, and that number is odd at the
// default --seconds: sorted, the walls form one cluster per program, and
// the median and the tail percentile then fall inside a cluster instead of
// on the edge between two.
const (
	suiteSeeds        = 3   // session seeds per suite round: 29 programs × 3
	suiteRoundSeconds = 2.2 // one suite round, in-process, Workers 2
	suiteWorkers      = 2
	fleetPrograms     = 9    // programs in the fleet subset, each once a round
	fleetSubsetSeed   = 2015 // picks the subset, the same for every run
	fleetRoundSeconds = 4.0  // one fleet round: each program once
	fleetWorkers      = 8
	fleetBatch        = 16
	setupRepeats      = 5 // bring-ups per run; setup_s is their median
	warmupMinutes     = 20
	warmupSeed        = 1 // the warm-up session is the same on every run
)

// spec is one tuning session's inputs.
type spec struct {
	bench string
	seed  int64
}

func (s spec) name() string { return fmt.Sprintf("%s/%d", s.bench, s.seed) }

// options builds the session exactly as a user of hotspot.Tune would.
// Noise is -1 (the default noise model), as cmd/autotune and the farm set
// it: the zero value would measure noiselessly, a different search.
func (s spec) options(workers int, nodes []string) hotspot.Options {
	o := hotspot.Options{Benchmark: s.bench, Seed: s.seed, Workers: workers, Noise: -1}
	if len(nodes) > 0 {
		o.Nodes, o.DispatchBatch = nodes, fleetBatch
	}
	return o
}

// suiteSpecs is the paper's evaluation, n rounds of it: every program under
// the same few session seeds, in the same order each round.
func suiteSpecs(seed int64, n int) []spec {
	var round []spec
	for i := 0; i < suiteSeeds; i++ {
		s := derive(seed, i)
		for _, b := range hotspot.Benchmarks() {
			round = append(round, spec{b, s})
		}
	}
	var out []spec
	for i := 0; i < n; i++ {
		out = append(out, round...)
	}
	return out
}

// fleetSubset is the fixed subset of programs the fleet workload tunes.
// It does not vary with the workload seed, so runs differ in their session
// seeds only, not in their program mix.
func fleetSubset() []string {
	names := hotspot.Benchmarks()
	rand.New(rand.NewSource(fleetSubsetSeed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names[:fleetPrograms]
}

// fleetSpecs is n rounds over the subset, each session with a session
// seed of its own.
func fleetSpecs(seed int64, n int) []spec {
	sub := fleetSubset()
	out := make([]spec, n*len(sub))
	for i := range out {
		out[i] = spec{sub[i%len(sub)], derive(seed, 100+i)}
	}
	return out
}

// outcomeDigest fingerprints everything a session's user sees: the winning
// command line, the trial economy, the scores and the convergence curve.
func outcomeDigest(cmdline []string, trials, failures, cacheHits, attempts int,
	defaultWall, bestWall, improvement, elapsedMin float64, trace []core.TracePoint) string {
	b, _ := json.Marshal(struct {
		C                []string
		T, F, H, A       int
		D, B, I, Elapsed float64
		Trace            []core.TracePoint
	}{cmdline, trials, failures, cacheHits, attempts, defaultWall, bestWall, improvement, elapsedMin, trace})
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

func resultDigest(r *hotspot.Result) string {
	return outcomeDigest(r.CommandLine, r.Trials, r.Failures, r.CacheHits, r.Attempts,
		r.DefaultWall, r.BestWall, r.ImprovementPct, r.ElapsedMinutes, r.Trace)
}

// tune runs one untraced session through the public entry point.
func tune(s spec, workers int, nodes []string) (unit, error) {
	var res *hotspot.Result
	wall, err := timeIt(func() (err error) {
		res, err = hotspot.Tune(s.options(workers, nodes))
		return err
	})
	if err != nil {
		return unit{}, fmt.Errorf("%s: %w", s.name(), err)
	}
	return unit{Name: s.name(), Wall: wall, Trials: res.Trials, Improvement: res.ImprovementPct, Digest: resultDigest(res)}, nil
}

// tracedTune runs one session with every layer wrapped. It assembles the
// session from the constructors hotspot.TuneContext uses for a session with
// no transfer, chaos, drift or checkpoint: core.NewSearcher, and either
// runner.NewInProcess or a dispatch.Pool over dispatch.NewRemote with the
// pool's batch size and 6× default-wall timeout.
func tracedTune(rec *recorder, s spec, workers int, nodes []string) (unit, error) {
	opts := s.options(workers, nodes)
	prof, ok := workload.ByName(s.bench)
	if !ok {
		return unit{}, fmt.Errorf("unknown benchmark %q", s.bench)
	}
	root := rec.open(kSession, rec.session(s.name()), 0)
	sc := sessionScope{rec: rec, id: root.Session, root: root.ID, start: root.Start}
	searcher, err := core.NewSearcher("hierarchical")
	if err != nil {
		return unit{}, err
	}
	var run innerRunner
	if len(nodes) > 0 {
		evs := make([]dispatch.Evaluator, len(nodes))
		for i, addr := range nodes {
			evs[i] = &tracedEvaluator{inner: dispatch.NewRemote(addr), sc: sc}
		}
		pool, err := dispatch.NewPool(prof, evs...)
		if err != nil {
			return unit{}, err
		}
		pool.Batch = opts.DispatchBatch
		pool.TimeoutSeconds = 6 * jvmsim.New().DefaultWall(flags.NewRegistry(), prof, 1)
		pool.Retry = runner.RetryPolicy{MaxAttempts: opts.RetryAttempts}
		pool.StartHeartbeats(time.Second)
		defer pool.Close()
		run = pool
	} else {
		ip := runner.NewInProcess(jvmsim.New(), prof)
		ip.Retry = runner.RetryPolicy{MaxAttempts: opts.RetryAttempts}
		run = ip
	}
	session := &core.Session{
		Runner:        wrapRunner(run, sc),
		Searcher:      wrapSearcher(searcher, sc),
		BudgetSeconds: core.DefaultBudgetSeconds,
		Seed:          opts.Seed,
		Workers:       opts.Workers,
		Ctx:           context.Background(),
	}
	out, err := session.Run()
	rec.close(root)
	if err != nil {
		return unit{}, fmt.Errorf("%s: %w", s.name(), err)
	}
	d := outcomeDigest(out.Best.CommandLine(), out.Trials, out.Failures, out.CacheHits, out.Attempts,
		out.DefaultWall, out.BestWall, out.ImprovementPct, out.Elapsed/60, out.Trace)
	return unit{Name: s.name(), Wall: root.dur(), Trials: out.Trials, Improvement: out.ImprovementPct, Digest: d}, nil
}

// timedLoop runs the sessions in order, taking the process's wall and CPU
// time of every perRound of them and sampling the host probe after each
// round for its scale, and checks that every session improves on the default and
// reproduces ref's digest for it, or, for a session ref does not name, its
// own first run.
func timedLoop(p params, m *measured, specs []spec, perRound int, ref map[string]string,
	do func(spec) (unit, error)) ([]unit, []round, error) {
	var units []unit
	var rounds []round
	seen := map[string]string{}
	cur := round{}
	c0, t0 := cpuNow(), time.Now()
	for _, s := range specs {
		u, err := do(s)
		if err != nil {
			return nil, nil, err
		}
		if u.Improvement < 0 {
			m.fail("%s: improvement %.3f%% below zero", u.Name, u.Improvement)
		}
		want, ok := ref[u.Name]
		if !ok {
			want, ok = seen[u.Name]
		}
		if ok && u.Digest != want {
			m.fail("%s: outcome digest %s, want %s", u.Name, u.Digest, want)
		}
		seen[u.Name] = u.Digest
		units = append(units, u)
		cur.units++
		cur.trials += u.Trials
		if cur.units == perRound {
			cur.wall, cur.cpu = time.Since(t0).Seconds(), (cpuNow() - c0).Seconds()
			cur.scale = p.probe.sample()
			for i := len(units) - perRound; i < len(units); i++ {
				units[i].Scale = cur.scale
			}
			rounds = append(rounds, cur)
			cur, c0, t0 = round{}, cpuNow(), time.Now()
		}
	}
	return units, rounds, nil
}

// meanImprovement averages over distinct sessions, so that it is exact for
// a fixed seed however often a session repeats.
func meanImprovement(units []unit) float64 {
	seen := map[string]bool{}
	sum := 0.0
	for _, u := range units {
		if !seen[u.Name] {
			seen[u.Name] = true
			sum += u.Improvement
		}
	}
	return sum / float64(len(seen))
}

// sessionEnv is where a session workload's sessions run.
type sessionEnv struct {
	workers  int
	perRound int // sessions in a round
	// nodes are the untraced run's evald nodes; nil measures in-process.
	nodes []string
	// tracedNodes starts nodes whose handlers record into rec, for the
	// traced half; nil measures in-process.
	tracedNodes func(rec *recorder) (addrs []string, stop func(), err error)
	// ref maps a session to the digest it must reproduce; sessions not in
	// it must reproduce their own first round.
	ref map[string]string
}

// traceHalf is the part of a workload's sessions a traced run measures:
// it runs them twice, so half of the rounds keep the run about as long.
func traceHalf(p params, specs []spec, perRound int) []spec {
	if p.trace {
		return specs[:perRound*max(1, len(specs)/perRound/2)]
	}
	return specs
}

// measureSessions is the shared body of the two session workloads: the
// sessions untraced, and under --trace then traced too, with identical
// outcomes required.
func measureSessions(p params, m *measured, specs []spec, env sessionEnv) error {
	plain := func(s spec) (unit, error) { return tune(s, env.workers, env.nodes) }
	units, rounds, err := timedLoop(p, m, specs, env.perRound, env.ref, plain)
	if err != nil {
		return err
	}
	m.units, m.rounds = units, rounds
	m.improvement = meanImprovement(units)
	if !p.trace {
		return nil
	}

	digests := map[string]string{}
	for _, u := range units {
		digests[u.Name] = u.Digest
	}
	rec := newRecorder()
	var nodes []string
	if env.tracedNodes != nil {
		addrs, stop, err := env.tracedNodes(rec)
		if err != nil {
			return err
		}
		defer stop()
		nodes = addrs
	}
	_, traced, err := timedLoop(p, m, specs, env.perRound, digests,
		func(s spec) (unit, error) { return tracedTune(rec, s, env.workers, nodes) })
	if err != nil {
		return err
	}
	v := sessionLayers(rec.snapshot(), nodes != nil)
	addOverhead(v, rounds, traced)
	m.rec, m.layers = rec, layerValues(v)
	return nil
}

func runSuite(p params) (*measured, error) {
	m := &measured{}
	perRound := suiteSeeds * len(hotspot.Benchmarks())
	specs := traceHalf(p, suiteSpecs(p.seed, rounds(p.seconds, suiteRoundSeconds)), perRound)
	warm := spec{specs[0].bench, warmupSeed}
	for i := 0; i < setupRepeats; i++ {
		d, err := timeIt(func() error {
			o := warm.options(suiteWorkers, nil)
			o.BudgetMinutes = warmupMinutes
			_, err := hotspot.Tune(o)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		m.setups = append(m.setups, d)
		p.probe.run()
	}
	err := measureSessions(p, m, specs, sessionEnv{workers: suiteWorkers, perRound: perRound})
	return m, err
}

// node is one evald measurement node served on a loopback listener inside
// this process.
type node struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

func startNode(name string, wrap func(http.Handler) http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = evald.New(evald.Config{Node: name})
	if wrap != nil {
		h = wrap(h)
	}
	n := &node{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return n, nil
}

func (n *node) stop() {
	_ = n.srv.Close()
	<-n.done
}

// fleet is the two in-process nodes a fleet run dispatches to. Under
// --trace their handlers are wrapped, so the node's share of every round
// trip is timed on the node.
type fleet struct {
	nodes []*node
	rec   *recorder
}

func startFleet(rec *recorder) (*fleet, error) {
	f := &fleet{rec: rec}
	var wrap func(http.Handler) http.Handler
	if rec != nil {
		wrap = func(h http.Handler) http.Handler {
			return tracedHandler{inner: h, rec: rec, route: evaldRoute}
		}
	}
	for i := 0; i < 2; i++ {
		n, err := startNode(fmt.Sprintf("n%d", i), wrap)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	for _, n := range f.nodes {
		if err := dispatch.NewRemote(n.addr).Ping(context.Background()); err != nil {
			f.stop()
			return nil, fmt.Errorf("node %s: %w", n.addr, err)
		}
	}
	return f, nil
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
}

// evaldRoute names an evald request's span; only the evaluate endpoints
// count as node work, liveness probes are kept apart.
func evaldRoute(r *http.Request) spanKind {
	if strings.HasPrefix(r.URL.Path, "/v1/evaluate") {
		return kEvaldHandle
	}
	return kEvaldOther
}

func runFleet(p params) (*measured, error) {
	m := &measured{}
	specs := traceHalf(p, fleetSpecs(p.seed, rounds(p.seconds, fleetRoundSeconds)), fleetPrograms)

	// The reference each fleet session must reproduce: the same options
	// measured in-process. Untimed, before set-up.
	ref := map[string]string{}
	for _, s := range specs {
		u, err := tune(s, fleetWorkers, nil)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		ref[s.name()] = u.Digest
	}

	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.stop()
		}
		d, err := timeIt(func() (err error) {
			if f, err = startFleet(nil); err != nil {
				return err
			}
			o := spec{specs[0].bench, warmupSeed}.options(fleetWorkers, f.addrs())
			o.BudgetMinutes = warmupMinutes
			_, err = hotspot.Tune(o)
			return err
		})
		if err != nil {
			if f != nil {
				f.stop()
			}
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
		m.setups = append(m.setups, d)
		p.probe.run()
	}
	defer f.stop()
	env := sessionEnv{
		workers:  fleetWorkers,
		perRound: fleetPrograms,
		nodes:    f.addrs(),
		ref:      ref,
		tracedNodes: func(rec *recorder) ([]string, func(), error) {
			tf, err := startFleet(rec)
			if err != nil {
				return nil, nil, err
			}
			return tf.addrs(), tf.stop, nil
		},
	}
	err := measureSessions(p, m, specs, env)
	return m, err
}
