package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/hotspot"
	"repro/internal/httpapi"
	"repro/internal/transfer"
	"repro/internal/workload"
)

const (
	// farmJobs is the jobs one farm lifetime runs: enough to take the farm
	// journal past its 1 MiB compaction threshold (about 33 KB a job), so
	// every lifetime compacts. The job mix is the same for every seed; only
	// the session seeds vary.
	farmJobs          = 40
	farmClients       = 2
	farmWorkers       = 2
	farmRoundSeconds  = 7.0 // one farm lifetime on the reference host
	farmMaxConcurrent = 2
)

// farm is one durable tuned job farm behind a loopback listener.
type farm struct {
	cfg    httpapi.Config
	srv    *httpapi.Server
	hs     *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

func farmConfig(dir string) httpapi.Config {
	return httpapi.Config{
		MaxConcurrent: farmMaxConcurrent,
		StateDir:      filepath.Join(dir, "state"),
		TransferDir:   filepath.Join(dir, "transfer"),
	}
}

// openFarm opens (and recovers) a durable farm in dir, serves it, and
// warms it up with one short job that does not use the transfer store;
// under --trace every request is timed per route.
func openFarm(dir string, rec *recorder) (*farm, error) {
	f := &farm{cfg: farmConfig(dir), done: make(chan struct{})}
	srv, err := httpapi.NewDurableServer(f.cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	var h http.Handler = srv
	if rec != nil {
		h = tracedHandler{inner: srv, rec: rec, route: farmRoute}
	}
	f.srv, f.hs = srv, &http.Server{Handler: h}
	f.base = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: farmClients}}
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	warm := httpapi.TuneRequest{Benchmark: hotspot.Benchmarks()[0], Seed: warmupSeed,
		BudgetMinutes: warmupMinutes, Workers: farmWorkers}
	if _, _, err := f.submit(warm); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return f, nil
}

// close stops serving, then shuts the farm down cleanly: every job it
// acknowledged has finished, so nothing is left to interrupt.
func (f *farm) close() error {
	_ = f.hs.Close()
	<-f.done
	f.client.CloseIdleConnections()
	return f.srv.Shutdown(context.Background())
}

func farmRoute(r *http.Request) spanKind {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tune":
		return kHTTPTune
	case r.URL.Path == "/metrics":
		return kHTTPMetrics
	}
	return kHTTPOther
}

// farmJobsFor is lifetime l's job list: the programs in turn, each job
// with its own session seed, warm-started from and recorded into the
// farm's transfer store.
func farmJobsFor(seed int64, l int) []httpapi.TuneRequest {
	names := hotspot.Benchmarks()
	out := make([]httpapi.TuneRequest, farmJobs)
	for j := range out {
		out[j] = httpapi.TuneRequest{Benchmark: names[j%len(names)], Seed: derive(seed, 1000*(l+1)+j),
			Workers: farmWorkers, Transfer: true}
	}
	return out
}

// submit runs one job synchronously and returns it as a unit plus the
// job's telemetry. A transport error, a non-200 reply or a job that did not
// end done fails the unit.
func (f *farm) submit(req httpapi.TuneRequest) (unit, map[string]float64, error) {
	body, _ := json.Marshal(req)
	name := fmt.Sprintf("%s/%d", req.Benchmark, req.Seed)
	t0 := time.Now()
	resp, err := f.client.Post(f.base+"/v1/tune?sync=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return unit{Name: name, Failed: true}, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wall := time.Since(t0).Seconds()
	u := unit{Name: name, Wall: wall}
	if err != nil || resp.StatusCode != http.StatusOK {
		u.Failed = true
		return u, nil, fmt.Errorf("%s: status %s: %v %s", name, resp.Status, err, bytes.TrimSpace(b))
	}
	var j httpapi.Job
	if err := json.Unmarshal(b, &j); err != nil {
		u.Failed = true
		return u, nil, fmt.Errorf("%s: decode job: %w", name, err)
	}
	if j.State != "done" || j.Result == nil {
		u.Failed = true
		return u, nil, fmt.Errorf("%s: job %d ended %q: %s", name, j.ID, j.State, j.Error)
	}
	u.Trials, u.Improvement = j.Result.Trials, j.Result.ImprovementPct
	return u, j.Telemetry, nil
}

// lifetime is what one farm lifetime produced.
type lifetime struct {
	units []unit
	tels  []map[string]float64
	round round              // the jobs' wall and process CPU time
	farm  map[string]float64 // the farm's /metrics after the last job
	lost  int                // finished jobs a restart would requeue
	// after holds what the traced lifetime measures after shutdown: the
	// journal and transfer store sizes and the nearest-neighbour lookups.
	after  map[string]float64
	setup  float64
	errors []error
}

// runLifetime opens a fresh farm in dir, runs farmJobs jobs from
// farmClients closed-loop clients, scrapes /metrics, shuts the farm down,
// and reopens its state to count verdicts the restart would lose.
func runLifetime(dir string, jobs []httpapi.TuneRequest, rec *recorder) (*lifetime, error) {
	lt := &lifetime{}
	var f *farm
	var err error
	lt.setup, err = timeIt(func() (err error) { f, err = openFarm(dir, rec); return err })
	if err != nil {
		return nil, fmt.Errorf("open farm: %w", err)
	}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	c0, t0 := cpuNow(), time.Now()
	for c := 0; c < farmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				u, tel, err := f.submit(jobs[i])
				mu.Lock()
				lt.units = append(lt.units, u)
				if tel != nil {
					lt.tels = append(lt.tels, tel)
				}
				if err != nil {
					lt.errors = append(lt.errors, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// A lifetime is the farm's round: its second half, past the journal's
	// compaction threshold, runs slower than its first, so only whole
	// lifetimes are alike.
	lt.round = round{wall: time.Since(t0).Seconds(), cpu: (cpuNow() - c0).Seconds()}
	for _, u := range lt.units {
		lt.round.units++
		lt.round.trials += u.Trials
	}
	lt.farm, err = scrape(f.client, f.base+"/metrics")
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		lt.after = map[string]float64{
			"journal.bytes":        fileSize(filepath.Join(f.cfg.StateDir, "farm.journal")),
			"transfer.store_bytes": dirSize(f.cfg.TransferDir),
		}
		if lt.after["transfer.nearest_s"], err = nearest(rec, f.cfg.TransferDir); err != nil {
			return nil, err
		}
	}
	lt.lost, err = lostVerdicts(f.cfg)
	return lt, err
}

// nearest times what a warm-started session does first against the store
// the lifetime produced: open it, and look up the nearest stored workloads
// for every program's fingerprint.
func nearest(rec *recorder, dir string) (float64, error) {
	s := rec.open(kNearest, 0, 0)
	t0 := time.Now()
	st, err := transfer.Open(dir, nil)
	if err != nil {
		return 0, fmt.Errorf("open transfer store: %w", err)
	}
	for _, p := range workload.All() {
		s.N += int32(len(st.Nearest(transfer.FingerprintOf(p), 3)))
	}
	d := time.Since(t0).Seconds()
	rec.close(s)
	return d, st.Close()
}

// lostVerdicts reopens a farm's state the way a restarted tuned would and
// returns how many jobs recovery finds unfinished. Every job had finished
// before the clean shutdown, so each one is a verdict the journal lost.
func lostVerdicts(cfg httpapi.Config) (int, error) {
	srv, err := httpapi.NewDurableServer(cfg)
	if err != nil {
		return 0, fmt.Errorf("reopen farm: %w", err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	// The requeued jobs start running again at once; cancel them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = srv.Shutdown(ctx)
	vals := parseMetrics(rr.Body)
	return int(vals["httpapi_jobs_recovered_total"]), nil
}

func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseMetrics(resp.Body), nil
}

// parseMetrics reads the Prometheus text format's "name value" lines.
func parseMetrics(r io.Reader) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

func dirSize(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, e := range entries {
		if e.Type().IsRegular() {
			total += fileSize(filepath.Join(dir, e.Name()))
		}
	}
	return total
}

// farmLoop runs n lifetimes and folds them into m; it returns the
// lifetimes for the traced half's layer metrics.
func farmLoop(p params, m *measured, n, first int, rec *recorder) ([]*lifetime, error) {
	var lts []*lifetime
	for l := first; l < first+n; l++ {
		dir := filepath.Join(p.work, "state", fmt.Sprintf("farm-%d", l))
		lt, err := runLifetime(dir, farmJobsFor(p.seed, l), rec)
		if err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		lt.round.scale = p.probe.sample()
		for i := range lt.units {
			lt.units[i].Scale = lt.round.scale
		}
		for _, e := range lt.errors {
			m.fail("%v", e)
		}
		for _, u := range lt.units {
			if !u.Failed && u.Improvement < 0 {
				m.fail("%s: improvement %.3f%% below zero", u.Name, u.Improvement)
			}
		}
		if lt.farm["journal_compactions_total"] < 1 {
			m.fail("farm lifetime %d never compacted its journal; the workload is undersized", l)
		}
		m.setups = append(m.setups, lt.setup)
		lts = append(lts, lt)
	}
	return lts, nil
}

func runFarm(p params) (*measured, error) {
	m := &measured{}
	// Extra bring-ups, so setup_s is a median over several.
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(p.work, "state", fmt.Sprintf("setup-%d", i))
		d, err := timeIt(func() error {
			f, err := openFarm(dir, nil)
			if err != nil {
				return err
			}
			return f.close()
		})
		if err != nil {
			return nil, fmt.Errorf("farm set-up: %w", err)
		}
		m.setups = append(m.setups, d)
		p.probe.run()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	n := rounds(p.seconds, farmRoundSeconds)
	if p.trace {
		n = max(1, n/2)
	}
	plain, err := farmLoop(p, m, n, 0, nil)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, lt := range plain {
		m.units = append(m.units, lt.units...)
		m.rounds = append(m.rounds, lt.round)
		m.lost += lt.lost
	}
	for _, u := range m.units {
		sum += u.Improvement
	}
	m.improvement = sum / float64(len(m.units))
	if !p.trace {
		return m, nil
	}

	rec := newRecorder()
	traced, err := farmLoop(p, m, n, n, rec)
	if err != nil {
		return nil, err
	}
	v := farmLayers(rec.snapshot(), traced)
	var trounds []round
	for _, lt := range traced {
		trounds = append(trounds, lt.round)
		for k, b := range lt.after {
			v[k] += b / float64(len(traced))
		}
	}
	addOverhead(v, m.rounds, trounds)
	m.rec, m.layers = rec, layerValues(v)
	return m, nil
}

// farmLayers derives the httpapi, checkpoint, journal, transfer and core
// metrics of the traced lifetimes: request spans from the wrapped handler,
// the rest from the series the program publishes in job replies and on
// /metrics.
func farmLayers(spans []span, lts []*lifetime) map[string]float64 {
	v := map[string]float64{"trace.spans": float64(len(spans))}
	for _, s := range spans {
		switch s.Kind {
		case kHTTPTune:
			v["httpapi.requests.tune"]++
			v["httpapi.request_s.tune"] += s.dur()
		case kHTTPMetrics:
			v["httpapi.requests.metrics"]++
			v["httpapi.request_s.metrics"] += s.dur()
		}
	}
	for _, lt := range lts {
		for _, t := range lt.tels {
			v["checkpoint.writes"] += t["checkpoint_writes_total"]
			v["checkpoint.write_s"] += t["checkpoint_write_seconds_sum"]
			v["transfer.appends"] += t["transfer_store_appends_total"]
			v["core.propose_calls"] += t["searcher_propose_seconds_count"]
			v["core.propose_s"] += t["searcher_propose_seconds_sum"]
		}
		v["journal.appends"] += lt.farm["journal_appends_total"]
		v["journal.compactions"] += lt.farm["journal_compactions_total"]
	}
	return v
}
