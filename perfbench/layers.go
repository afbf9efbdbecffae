package main

// layerSchema is every per-layer metric, reported on every workload. A
// layer that does no work on a workload reports zero there: that zero is
// the prediction that a change to the layer leaves the workload alone.
var layerSchema = []struct{ name, unit string }{
	{"core.setup_s", "s"},
	{"core.propose_calls", "count"},
	{"core.propose_s", "s"},
	{"core.observe_s", "s"},
	{"core.session_self_s", "s"},
	{"runner.measure_calls", "count"},
	{"runner.measure_s", "s"},
	{"runner.cache_hit_ratio", "ratio"},
	{"runner.failed_ratio", "ratio"},
	{"dispatch.pool_s", "s"},
	{"dispatch.requests", "count"},
	{"dispatch.roundtrip_s", "s"},
	{"dispatch.batch_size_mean", "count"},
	{"dispatch.retry_ratio", "ratio"},
	{"dispatch.wave_wait_s", "s"},
	{"dispatch.wire_s", "s"},
	{"evald.requests", "count"},
	{"evald.handle_s", "s"},
	{"httpapi.requests.tune", "count"},
	{"httpapi.request_s.tune", "s"},
	{"httpapi.requests.metrics", "count"},
	{"httpapi.request_s.metrics", "s"},
	{"checkpoint.writes", "count"},
	{"checkpoint.write_s", "s"},
	{"journal.appends", "count"},
	{"journal.compactions", "count"},
	{"journal.bytes", "bytes"},
	{"transfer.appends", "count"},
	{"transfer.store_bytes", "bytes"},
	{"transfer.nearest_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_cpu_pct", "%"},
	{"trace.overhead_wall_pct", "%"},
}

// layerValues fills the schema from values; metrics it does not name are
// zero.
func layerValues(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerSchema))
	for _, s := range layerSchema {
		out[s.name] = metric{values[s.name], s.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func spanInterval(s span) interval { return interval{s.Start, s.End} }

// sessionLayers derives the core, runner, dispatch and evald metrics from
// the spans of traced sessions. Times are summed over the traced half of
// the run; dispatched reports whether the sessions ran on a fleet, where
// the runner the session calls is the dispatch pool.
func sessionLayers(spans []span, dispatched bool) map[string]float64 {
	v := map[string]float64{"trace.spans": float64(len(spans))}
	children := map[int64][]interval{} // session root → its child calls
	measures := map[int64][]interval{} // session root → its runner calls
	trips := map[int64][]interval{}    // session root → its round trips
	var roots []span
	var measured, hits, fails, tripWork, tripFails float64
	for _, s := range spans {
		d := s.dur()
		switch s.Kind {
		case kSession:
			roots = append(roots, s)
			continue
		case kSetup:
			v["core.setup_s"] += d
			continue // spans the baseline measurement; not a call of its own
		case kPropose:
			v["core.propose_calls"]++
			v["core.propose_s"] += d
		case kObserve:
			v["core.observe_s"] += d
		case kMeasure:
			measured += float64(s.N)
			hits += float64(s.Hits)
			fails += float64(s.Fails)
			v["runner.measure_s"] += d
			measures[s.Parent] = append(measures[s.Parent], spanInterval(s))
		case kRoundtrip:
			v["dispatch.requests"]++
			v["dispatch.roundtrip_s"] += d
			tripWork += float64(s.N)
			tripFails += float64(s.Fails)
			trips[s.Parent] = append(trips[s.Parent], spanInterval(s))
		case kEvaldHandle:
			v["evald.requests"]++
			v["evald.handle_s"] += d
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], spanInterval(s))
		}
	}
	v["runner.measure_calls"] = measured
	v["runner.cache_hit_ratio"] = ratio(hits, measured)
	v["runner.failed_ratio"] = ratio(fails, measured)
	for _, r := range roots {
		v["core.session_self_s"] += float64(selfTime([]interval{spanInterval(r)}, children[r.ID])) / 1e9
		if dispatched {
			pool := union(measures[r.ID])
			v["dispatch.pool_s"] += float64(length(pool)) / 1e9
			v["dispatch.wave_wait_s"] += float64(selfTime(pool, trips[r.ID])) / 1e9
		}
	}
	if dispatched {
		v["dispatch.batch_size_mean"] = ratio(tripWork, v["dispatch.requests"])
		v["dispatch.retry_ratio"] = ratio(tripFails, v["dispatch.requests"])
		v["dispatch.wire_s"] = v["dispatch.roundtrip_s"] - v["evald.handle_s"]
	}
	return v
}

// addOverhead records how much slower per unit of work the traced half
// ran than the untraced half of the same work.
func addOverhead(v map[string]float64, plain, traced []round) {
	pct := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return (a/b - 1) * 100
	}
	p, t := total(plain), total(traced)
	v["trace.overhead_cpu_pct"] = pct(ratio(t.cpu, float64(t.trials)), ratio(p.cpu, float64(p.trials)))
	v["trace.overhead_wall_pct"] = pct(ratio(t.wall, float64(t.units)), ratio(p.wall, float64(p.units)))
}
