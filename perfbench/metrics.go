package main

// metricDef is one reported metric. Moves names the end-to-end metric
// and workload a change to this metric should move; Flat names where
// it should leave the end-to-end metrics unchanged. BENCHMARK.json
// carries the name, unit, direction and bound; the reasoning lives
// here and in README.md.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	Flat   string  `json:"flat,omitempty"`
}

// endToEnd are reported with tracing off, for every workload.
var endToEnd = []metricDef{
	{Name: "requests_per_s", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// Workload groups the catalogue's reasoning refers to. The estimate
// workloads are not listed in BENCHMARK.json (see workload.Listed).
const (
	sweepHot     = "sweep-hot"
	sweepCold    = "sweep-cold"
	bothSweep    = "sweep-cold, sweep-hot"
	notSweepCold = "sweep-hot, estimate-cold and estimate-hot (unlisted)"
	everyMiss    = "sweep-cold, estimate-cold (unlisted)"
)

// perLayer are reported by the traced run, for every workload.
var perLayer = []metricDef{
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "requests_per_s, latency_p50_ms on sweep-hot", Flat: sweepCold},
	{Name: "serve.computes", Unit: "1/req", Better: "lower",
		Moves: "requests_per_s on sweep-hot", Flat: sweepCold},
	{Name: "serve.evicted", Unit: "1/req", Better: "lower",
		Moves: "requests_per_s on sweep-hot", Flat: sweepCold},
	{Name: "serve.rejected", Unit: "1/req", Better: "lower",
		Moves: "failure share on " + everyMiss, Flat: sweepHot},
	{Name: "serve.daemon_restarts", Unit: "count", Better: "lower",
		Moves: "failure share on " + everyMiss + " and in hot set-ups", Flat: "none"},
	{Name: "serve.overhead_ms_p50", Unit: "ms", Better: "lower",
		Moves: "requests_per_s, latency_p50_ms on sweep-hot, estimate-hot (unlisted)", Flat: sweepCold},
	{Name: "bench.corpus_ms", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms on estimate-hot (dominant), estimate-cold (partial), both unlisted", Flat: bothSweep},
	{Name: "batch.l0_ns_per_tx", Unit: "ns/tx", Better: "lower",
		Moves: "latency_p50_ms on estimate-cold (unlisted)", Flat: bothSweep},
	{Name: "batch.l1_ns_per_tx", Unit: "ns/tx", Better: "lower",
		Moves: "latency_p50_ms on estimate-cold (unlisted)", Flat: bothSweep},
	{Name: "batch.l0_allocs", Unit: "allocs/call", Better: "lower",
		Moves: "latency_p50_ms on estimate-cold (unlisted)", Flat: bothSweep},
	{Name: "batch.l1_allocs", Unit: "allocs/call", Better: "lower",
		Moves: "latency_p50_ms on estimate-cold (unlisted)", Flat: bothSweep},
	{Name: "tlm2.ns_per_tx", Unit: "ns/tx", Better: "lower",
		Moves: "latency_p50_ms on " + everyMiss, Flat: sweepHot},
	{Name: "tlm2.allocs", Unit: "allocs/call", Better: "lower",
		Moves: "latency_p50_ms on " + everyMiss, Flat: sweepHot},
	{Name: "sim.skipped_cycle_ratio_l1", Unit: "ratio", Better: "higher",
		Moves: "latency_p50_ms on " + everyMiss, Flat: sweepHot},
	{Name: "sim.skipped_cycle_ratio_l2", Unit: "ratio", Better: "higher",
		Moves: "latency_p50_ms on " + everyMiss, Flat: sweepHot},
	{Name: "explore.l1_us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "explore.l2_us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "explore.l1_ns_per_tx", Unit: "ns/tx", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "explore.l2_ns_per_tx", Unit: "ns/tx", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "arb.us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "fault.us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "tear.us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "calib.screen_us_per_config", Unit: "us", Better: "lower",
		Moves: "requests_per_s on sweep-cold", Flat: notSweepCold},
	{Name: "runtime.gc_per_request", Unit: "1/req", Better: "lower",
		Moves: "requests_per_s on every workload, through allocation cuts", Flat: "none"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher",
		Moves: "none", Flat: "none"},
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the contract's metrics object from values keyed by name,
// in the catalogue's units; a catalogue name with no value is an error
// the caller reports.
func emit(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := map[string]metric{}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}
