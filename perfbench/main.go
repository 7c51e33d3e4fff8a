// Command perfbench is the repository's service benchmark. It builds
// nothing itself: run.sh builds cmd/ecserved and this program, then
// runs
//
//	perfbench --daemon <ecserved> --out <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The daemon runs as a supervised child process on 127.0.0.1:0 with
// default options and is driven over HTTP by a closed-loop load
// generator. With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 it alternates between an untraced daemon and a traced
// one (client spans, GODEBUG=gctrace=1), scrapes /metricz, replays the
// workload's seeded stream in-process through the public layer calls
// and reports the per-layer metrics. Every response is verified after
// the timed window. The last line of standard output is the result
// object; the line before it is a summary with the host record.
//
// --workload all runs every workload with and without tracing and
// prints every metric by name with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	Name    string `json:"name"`
	Clients int    `json:"clients"`
	Why     string `json:"why"`
	// Listed workloads are the ones BENCHMARK.json names. The estimate
	// workloads compute thousands of small /v1/estimate misses, and the
	// enqueue race in serve.Server (ROADMAP item 1) kills the daemon
	// about once per few thousand of them, so their failure counts
	// differ from run to run. They stay runnable by name.
	Listed bool `json:"listed"`
	sweep  bool
	hot    bool
	// phaseRequests is the per-client request count of one phase of
	// the traced run's alternation between the untraced and the traced
	// daemon.
	phaseRequests int
	// ownReplay is how many of the traced daemon's requests the
	// in-process replay times (a hot workload replays its working set).
	ownReplay int
}

var workloads = []workload{
	{Name: "sweep-cold", Clients: 1, Listed: true, sweep: true, phaseRequests: 4, ownReplay: 24,
		Why: "1 client, distinct 16-config /v1/sweep requests over layers 1 and 2 (fault x arb, tear x journal, 1 in 4 confirm): explore and the JCVM case study"},
	{Name: "sweep-hot", Clients: 1, Listed: true, sweep: true, hot: true, phaseRequests: 200,
		Why: "1 client over a 72-sweep working set computed in set-up: the hit path (HTTP, decode, canonicalize, key, cache) with the compute layers idle"},
	{Name: "estimate-cold", Clients: 1, phaseRequests: 40, ownReplay: 240,
		Why: "1 client, every /v1/estimate a new content address: the miss path through canonicalize, queue, batch/tlm2 compute and cache commit"},
	{Name: "estimate-hot", Clients: 2, hot: true, phaseRequests: 100,
		Why: "2 clients over a 256-key working set computed in set-up: the estimate hit path, which regenerates the corpus twice per request"},
}

// Probe sizes: the traced run measures the layers a workload does not
// load on a fixed prefix of the sibling workload's stream for the same
// seed, so every per-layer metric is reported on every workload.
const (
	estimateProbe = 60
	sweepProbe    = 8
)

// setups is how many fresh daemons an untraced run sets up; setup_s is
// the median, and the last one serves the window.
const setups = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	daemon   string
	out      string
	root     string
}

// result is the contract's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is printed before the result: what was run, on what, and
// how the figures were derived.
type summary struct {
	Workload   workload       `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Claim      *string        `json:"claim"`
	Host       hostRecord     `json:"host"`
	Samples    int            `json:"latency_samples,omitempty"`
	HighestPct float64        `json:"highest_supported_percentile,omitempty"`
	SetupRuns  []float64      `json:"setup_s_runs,omitempty"`
	HitRatio   float64        `json:"client_hit_ratio"`
	Restarts   int            `json:"daemon_restarts"`
	Crashes    []string       `json:"crashes,omitempty"`
	Failures   []string       `json:"failures,omitempty"`
	Metrics    []metricDef    `json:"metric_defs"`
	TraceFile  string         `json:"trace_file,omitempty"`
	Elapsed    float64        `json:"elapsed_s"`
	Extra      map[string]any `json:"extra,omitempty"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "timed window length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "path of the ecserved binary")
	flag.StringVar(&o.out, "out", "", "directory for daemon logs and span files")
	flag.StringVar(&o.root, "root", ".", "repository checkout the benchmark measures")
	probe := flag.Bool("probe", false, "run as the calibration process")
	flag.Parse()
	if *probe {
		runProbe()
		return
	}
	if o.daemon == "" || o.out == "" || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fail(errors.New("need --daemon, --out, --seconds >= 1 and --trace 0|1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail(err)
	}
	// The daemons die with this process (Pdeathsig); stopping on a
	// signal lets them drain and be reaped first.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()

	if o.workload == "all" {
		if err := runAll(o); err != nil {
			fail(err)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		var valid []string
		for _, w := range workloads {
			valid = append(valid, w.Name)
		}
		fail(fmt.Errorf("unknown workload %q (valid: %s, all)", o.workload, strings.Join(valid, ", ")))
	}
	sum, res, err := runOne(o, w)
	if err != nil {
		fail(err)
	}
	printResult(sum, res)
}

func fail(err error) {
	stopAll()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func printResult(sum summary, res result) {
	s, _ := json.Marshal(map[string]any{"summary": sum})
	r, _ := json.Marshal(res)
	fmt.Println(string(s))
	fmt.Println(string(r))
}

// runAll runs every workload untraced and traced and prints one table
// of every metric by name and unit.
func runAll(o options) error {
	var rows []string
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			o.trace = tr
			sum, res, err := runOne(o, w)
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", w.Name, tr, err)
			}
			printResult(sum, res)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			rows = append(rows, fmt.Sprintf("%s trace=%d correct=%v attempted=%d failed=%d",
				w.Name, tr, res.Correct, res.Attempted, res.Failed))
			for _, n := range names {
				m := res.Metrics[n]
				rows = append(rows, fmt.Sprintf("  %-30s %14.6g %s", n, m.Value, m.Unit))
			}
		}
	}
	fmt.Println(strings.Join(rows, "\n"))
	return nil
}

// fleet is every daemon one run starts; each is stopped and reaped
// before the run reports.
type fleet struct {
	o   options
	mu  sync.Mutex
	all []*daemon
	cal *calibrator
}

// current is the running fleet, stopped on SIGINT/SIGTERM.
var current struct {
	sync.Mutex
	f *fleet
}

func (f *fleet) spawn(name string, gctrace bool) (*daemon, error) {
	d, err := newDaemon(f.o.daemon, name, f.o.out, gctrace)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.all = append(f.all, d)
	f.mu.Unlock()
	return d, nil
}

// calibrate starts the fleet's calibration process; stopAll stops it.
func (f *fleet) calibrate() (*calibrator, error) {
	c, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.cal = c
	f.mu.Unlock()
	return c, nil
}

func (f *fleet) stopAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range f.all {
		d.stop()
	}
	if f.cal != nil {
		f.cal.stop()
	}
}

func stopAll() {
	current.Lock()
	defer current.Unlock()
	if current.f != nil {
		current.f.stopAll()
	}
}

// streams holds a run's generated inputs.
type streams struct {
	warm []*item
	src  source
}

func makeStreams(w workload, seed uint64) streams {
	seen := map[string]bool{}
	switch {
	case w.hot && w.sweep:
		set := take(sweepHotSetSize, newSweepGen(seed, seen).next)
		return streams{warm: set, src: newHotSource(set, seed, w.Clients)}
	case w.hot:
		set := take(hotSetSize, newEstimateGen(seed, seen).next)
		return streams{warm: set, src: newHotSource(set, seed, w.Clients)}
	case w.sweep:
		warm := take(sweepWarmup, newSweepGen(warmSeed, seen).next)
		return streams{warm: warm, src: &coldSource{gen: newSweepGen(seed, seen).next}}
	default:
		warm := take(estimateWarmup, newEstimateGen(warmSeed, seen).next)
		return streams{warm: warm, src: &coldSource{gen: newEstimateGen(seed, seen).next}}
	}
}

// setUp spawns a daemon and sends it the warm-up list; the returned
// duration is the set-up time, spawn to warm.
func setUp(f *fleet, w workload, ld *loader, st streams, name string, gctrace bool) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := f.spawn(name, gctrace)
	if err != nil {
		return nil, 0, err
	}
	// A daemon that died mid warm-up lost its cache: warm the respawned
	// one from the start, so the window always meets a fully warm
	// daemon. The time counts as set-up.
	for attempt := 0; ; attempt++ {
		restarts := d.restarts
		ld.warm(d, st.warm, w.Clients)
		if d.restarts == restarts {
			return d, time.Since(t0), nil
		}
		if attempt == 2 {
			return nil, 0, fmt.Errorf("daemon %s died in %d warm-ups in a row: %v", name, attempt+1, d.crashes)
		}
	}
}

func runOne(o options, w workload) (summary, result, error) {
	start := time.Now()
	sum := summary{Workload: w, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: newHostRecord(o.root)}
	st := makeStreams(w, o.seed)
	ld := newLoader(w.Clients)
	defer ld.close()
	f := &fleet{o: o}
	current.Lock()
	current.f = f
	current.Unlock()
	defer f.stopAll()

	var values map[string]float64
	var defs []metricDef
	var err error
	if o.trace == 0 {
		values, err = untraced(o, f, w, ld, st, &sum)
		defs = endToEnd
	} else {
		values, err = traced(o, f, w, ld, st, &sum)
		defs = perLayer
	}
	if err != nil {
		return sum, result{}, err
	}

	recs := ld.records()
	res := result{Correct: noWrongAnswer(recs), Attempted: len(recs)}
	hits, served := 0, 0
	for _, r := range recs {
		if !r.verified {
			res.Failed++
		}
		if !r.warmup && r.verified {
			served++
			if r.cache == "hit" {
				hits++
			}
		}
	}
	if served > 0 {
		sum.HitRatio = float64(hits) / float64(served)
	}
	for _, d := range f.all {
		sum.Restarts += d.restarts
		sum.Crashes = append(sum.Crashes, d.crashes...)
	}
	var missing []string
	res.Metrics, missing = emit(defs, values)
	if len(missing) > 0 {
		return sum, res, fmt.Errorf("no value for %s", strings.Join(missing, ", "))
	}
	sum.Metrics = defs
	sum.Host.Load1After = load1()
	sum.Elapsed = time.Since(start).Seconds()
	return sum, res, nil
}

// noWrongAnswer reports whether every unverified record failed at the
// transport or with a non-200 status — failures the contract counts —
// rather than with a wrong answer, which makes the run incorrect.
func noWrongAnswer(recs []*record) bool {
	for _, r := range recs {
		if !r.verified && r.status == http.StatusOK {
			return false
		}
	}
	return true
}

// maxFailureLines caps the failure messages a summary lists; the
// result's failed count has them all.
const maxFailureLines = 20

func (sum *summary) noteFailures(msgs ...string) {
	for _, m := range msgs {
		if len(sum.Failures) < maxFailureLines {
			sum.Failures = append(sum.Failures, m)
		}
	}
}

func verifyRun(sum *summary, warm, window []*record, hot bool) {
	sum.noteFailures(verify(warm, nil)...)
	var ref map[*item][]byte
	if hot {
		ref = map[*item][]byte{}
		for _, r := range warm {
			if r.verified {
				ref[r.it] = r.body
			}
		}
	}
	sum.noteFailures(verify(window, ref)...)
	for _, r := range append(warm, window...) {
		if r.status != http.StatusOK {
			msg := fmt.Sprintf("%s status=%d", r.it.path, r.status)
			if r.err != nil {
				msg += ": " + r.err.Error()
			}
			sum.noteFailures(msg)
		}
	}
}

func splitWindow(recs []*record) (warm, window []*record) {
	for _, r := range recs {
		if r.warmup {
			warm = append(warm, r)
		} else {
			window = append(window, r)
		}
	}
	return warm, window
}

// untraced measures the end-to-end metrics: setups fresh daemons each
// set up in turn (the median is setup_s), then the last one serves the
// timed window.
func untraced(o options, f *fleet, w workload, ld *loader, st streams, sum *summary) (map[string]float64, error) {
	cal, err := f.calibrate()
	if err != nil {
		return nil, err
	}
	var d *daemon
	setupStart := time.Now()
	for k := 0; k < setups; k++ {
		if d != nil {
			d.stop()
		}
		var dt time.Duration
		var err error
		d, dt, err = setUp(f, w, ld, st, fmt.Sprintf("setup%d", k), false)
		if err != nil {
			return nil, err
		}
		sum.SetupRuns = append(sum.SetupRuns, dt.Seconds())
	}
	windowStart := time.Now()
	deadline := windowStart.Add(time.Duration(o.seconds) * time.Second)
	stopRSS := watchRSS(d)
	ld.phase(d, st.src, w.Clients, 0, deadline, false)
	windowEnd := time.Now()
	rss, err := stopRSS()
	if err != nil {
		return nil, err
	}
	f.stopAll()

	probeSetup, nSetup := cal.median(setupStart, windowStart)
	probeWindow, nWindow := cal.median(windowStart, windowEnd)
	if nSetup == 0 || nWindow == 0 {
		return nil, fmt.Errorf("calibration: %d probes during set-up and %d during the window, need at least one each", nSetup, nWindow)
	}
	warm, window := splitWindow(ld.records())
	verifyRun(sum, warm, window, w.hot)
	var lat []float64
	for _, r := range window {
		if r.verified {
			lat = append(lat, r.rtt.Seconds()*1e3)
		}
	}
	sum.Samples = len(lat)
	sum.HighestPct = highestSupported(len(lat))
	if !supported(len(lat), 0.9) {
		return nil, fmt.Errorf("%d verified samples cannot support p90 (need %d beyond it)", len(lat), minTail)
	}
	raw := map[string]float64{
		"requests_per_s": float64(len(lat)) / windowEnd.Sub(windowStart).Seconds(),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p90_ms": quantile(lat, 0.9),
		"setup_s":        median(sum.SetupRuns),
		"rss_peak_mb":    rss,
	}
	// Timings scale by probeRef/probe, the rate by its inverse.
	slowSetup := float64(probeRef) / float64(probeSetup)
	slowWindow := float64(probeRef) / float64(probeWindow)
	sum.Extra = map[string]any{"raw": raw, "probe_ref_ms": ms(probeRef),
		"probe_setup_ms": ms(probeSetup), "probe_setup_n": nSetup,
		"probe_window_ms": ms(probeWindow), "probe_window_n": nWindow}
	return map[string]float64{
		"requests_per_s": raw["requests_per_s"] / slowWindow,
		"latency_p50_ms": raw["latency_p50_ms"] * slowWindow,
		"latency_p90_ms": raw["latency_p90_ms"] * slowWindow,
		"setup_s":        raw["setup_s"] * slowSetup,
		"rss_peak_mb":    rss,
	}, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// traced alternates phases between an untraced daemon A and a traced
// daemon B, then replays B's requests in-process under spans.
func traced(o options, f *fleet, w workload, ld *loader, st streams, sum *summary) (map[string]float64, error) {
	a, _, err := setUp(f, w, ld, st, "untraced", false)
	if err != nil {
		return nil, err
	}
	b, _, err := setUp(f, w, ld, st, "traced", true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	var timeA, timeB time.Duration
	var counters serveCounters
	var gcs int64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for time.Now().Before(deadline) {
		timeA += ld.phase(a, st.src, w.Clients, w.phaseRequests, deadline, false)
		if !time.Now().Before(deadline) {
			break
		}
		// A respawned incarnation counts from zero; a phase whose
		// counters died with the daemon is left out.
		inc := b.endpoint()
		before, errBefore := inc.metricz()
		g0 := b.gcLines.Load()
		timeB += ld.phase(b, st.src, w.Clients, w.phaseRequests, deadline, true)
		gcs += b.gcLines.Load() - g0
		now := b.endpoint()
		after, err := now.metricz()
		switch {
		case err != nil:
			if err := b.recover(now); err != nil {
				return nil, err
			}
		case now != inc:
			counters = counters.add(after)
		case errBefore == nil:
			counters = counters.add(after.sub(before))
		}
	}
	f.stopAll()
	ld.close()
	quiesce()

	warm, window := splitWindow(ld.records())
	var bRecs []*record
	var aServed int
	for _, r := range window {
		if r.traced {
			bRecs = append(bRecs, r)
		}
	}

	// Replay before verifying, so the in-process caches start as cold
	// as the daemon's did.
	res := newReplayResult()
	ownEst, ownSweep := replaySets(w, st, bRecs, o.seed)
	if err := replayEstimates(tr, res, ownEst); err != nil {
		return nil, err
	}
	if err := replaySweeps(tr, res, ownSweep, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}

	verifyRun(sum, warm, window, w.hot)
	var overhead []float64
	bServed := 0
	for _, r := range window {
		if !r.verified {
			continue
		}
		if !r.traced {
			aServed++
			continue
		}
		bServed++
		tr.add("http"+r.it.path, 0, res.reqOf[r.it], r.start, r.start.Add(r.rtt))
		if cost, ok := res.serverCost(r); ok {
			overhead = append(overhead, (r.rtt-cost).Seconds()*1e3)
		}
	}
	sum.TraceFile = filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", w.Name, o.seed))
	if err := tr.write(sum.TraceFile); err != nil {
		return nil, err
	}
	if bServed == 0 || aServed == 0 || len(overhead) == 0 {
		return nil, fmt.Errorf("traced run served %d untraced and %d traced requests, %d replayed", aServed, bServed, len(overhead))
	}
	bSent := float64(len(bRecs))
	served := counters.hit + counters.dedup + counters.miss
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	rpsA := float64(aServed) / timeA.Seconds()
	rpsB := float64(bServed) / timeB.Seconds()
	sum.Extra = map[string]any{"rps_untraced": rpsA, "rps_traced": rpsB, "gc_cycles": gcs,
		"metricz_delta": map[string]uint64{"hit": counters.hit, "dedup": counters.dedup, "miss": counters.miss,
			"evicted": counters.evicted, "computes": counters.computes, "failures": counters.failures,
			"429": counters.rej429, "503": counters.rej503},
		"kernel_cycles_skipped_total_l1": res.skipped[1], "kernel_cycles_skipped_total_l2": res.skipped[2],
		"self_ms": selfMs(tr.spans)}
	return map[string]float64{
		"serve.hit_ratio":            ratio(counters.hit+counters.dedup, served),
		"serve.computes":             float64(counters.computes) / bSent,
		"serve.evicted":              float64(counters.evicted) / bSent,
		"serve.rejected":             float64(counters.rej429+counters.rej503) / bSent,
		"serve.daemon_restarts":      float64(a.restarts + b.restarts),
		"serve.overhead_ms_p50":      median(overhead),
		"bench.corpus_ms":            res.corpus.usPerCall() / 1e3,
		"batch.l0_ns_per_tx":         res.est[0].nsPerTx(),
		"batch.l1_ns_per_tx":         res.est[1].nsPerTx(),
		"batch.l0_allocs":            res.est[0].allocsPerCall(),
		"batch.l1_allocs":            res.est[1].allocsPerCall(),
		"tlm2.ns_per_tx":             res.est[2].nsPerTx(),
		"tlm2.allocs":                res.est[2].allocsPerCall(),
		"sim.skipped_cycle_ratio_l1": ratio(res.skipped[1][0], res.skipped[1][1]),
		"sim.skipped_cycle_ratio_l2": ratio(res.skipped[2][0], res.skipped[2][1]),
		"explore.l1_us_per_config":   res.expl[1].usPerCall(),
		"explore.l2_us_per_config":   res.expl[2].usPerCall(),
		"explore.l1_ns_per_tx":       res.expl[1].nsPerTx(),
		"explore.l2_ns_per_tx":       res.expl[2].nsPerTx(),
		"arb.us_per_config":          res.arb.usPerCall(),
		"fault.us_per_config":        res.fault.usPerCall(),
		"tear.us_per_config":         res.tear.usPerCall(),
		"calib.screen_us_per_config": res.screen.usPerCall(),
		"runtime.gc_per_request":     float64(gcs) / bSent,
		"trace.overhead_ratio":       rpsB / rpsA,
	}, nil
}

// quiesce lets the goroutines and finalizers left by the daemons and
// HTTP connections finish, so that nothing but the replayed call
// allocates while the replay counts allocations.
func quiesce() {
	http.DefaultClient.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}

func selfMs(spans []span) map[string]float64 {
	out := map[string]float64{}
	for n, d := range selfTimes(spans) {
		out[n] = d.Seconds() * 1e3
	}
	return out
}

// replaySets picks what the traced replay times: the traced daemon's
// first requests of the workload's own stream (a hot workload: its whole
// working set), plus a fixed prefix of the sibling stream for the same
// seed for the layers the workload does not load.
func replaySets(w workload, st streams, bRecs []*record, seed uint64) (est, sweeps []*item) {
	var own []*item
	if w.hot {
		own = st.warm
	} else {
		seen := map[*item]bool{}
		for _, r := range bRecs {
			if len(own) == w.ownReplay {
				break
			}
			if !seen[r.it] {
				seen[r.it] = true
				own = append(own, r.it)
			}
		}
	}
	if w.sweep {
		return take(estimateProbe, newEstimateGen(seed, map[string]bool{}).next), own
	}
	return own, take(sweepProbe, newSweepGen(seed, map[string]bool{}).next)
}
