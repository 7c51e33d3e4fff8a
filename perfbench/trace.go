package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/fault"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) write(path string) error {
	self := map[string]float64{}
	for name, d := range selfTimes(t.spans) {
		self[name] = d.Seconds() * 1e3
	}
	data, err := json.Marshal(map[string]any{"spans": t.spans, "self_ms": self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerCost accumulates one layer's replayed calls.
type layerCost struct {
	calls  int
	dur    time.Duration
	tx     uint64
	allocs uint64
}

func (c layerCost) nsPerTx() float64 {
	if c.tx == 0 {
		return 0
	}
	return float64(c.dur.Nanoseconds()) / float64(c.tx)
}

func (c layerCost) allocsPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return float64(c.allocs) / float64(c.calls)
}

func (c layerCost) usPerCall() float64 {
	if c.calls == 0 {
		return 0
	}
	return c.dur.Seconds() * 1e6 / float64(c.calls)
}

// replayResult is what the traced in-process replay measured.
type replayResult struct {
	corpus  layerCost    // bench.CorpusItems
	est     [3]layerCost // bench.RunCorpusEstimate per layer
	expl    [3]layerCost // explore configurations per layer (1, 2), Workers: 1
	arb     layerCost
	fault   layerCost
	tear    layerCost
	screen  layerCost
	skipped [3][2]uint64 // per layer: skipped cycles, cycles

	// Replayed serving-path cost of one request, excluding HTTP: the
	// daemon builds an estimate's corpus twice (canonicalize and key)
	// and computes only on a miss.
	corpusCost  map[*item]time.Duration
	computeCost map[*item]time.Duration
	// reqOf is the span request ID an item was replayed under, so the
	// client's span of the same request shares it.
	reqOf map[*item]int
}

func newReplayResult() *replayResult {
	return &replayResult{corpusCost: map[*item]time.Duration{}, computeCost: map[*item]time.Duration{},
		reqOf: map[*item]int{}}
}

// serverCost is what the daemon spends on rec outside HTTP, as
// replayed in-process; ok is false for a request not replayed.
func (res *replayResult) serverCost(rec *record) (time.Duration, bool) {
	compute, ok := res.computeCost[rec.it]
	if !ok {
		return 0, false
	}
	cost := 2 * res.corpusCost[rec.it]
	if rec.cache != "hit" {
		cost += compute
	}
	return cost, true
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayEstimates times the public layer calls one /v1/estimate makes:
// bench.CorpusItems, then bench.RunCorpusEstimate at the request's
// layer. Allocation counts are exact: nothing else runs meanwhile.
func replayEstimates(tr *tracer, res *replayResult, items []*item) error {
	for _, it := range items {
		req := it.est
		plan, err := fault.Parse(req.Fault)
		if err != nil {
			return err
		}
		reqID := len(tr.spans) + 1
		res.reqOf[it] = reqID
		t0 := time.Now()
		root := tr.add("replay.estimate", 0, reqID, t0, t0)

		c0 := time.Now()
		if _, err := bench.CorpusItems(req.Corpus, req.N); err != nil {
			return err
		}
		c1 := time.Now()
		tr.add("bench.CorpusItems", root, reqID, c0, c1)
		res.corpus.calls++
		res.corpus.dur += c1.Sub(c0)

		a0 := mallocs()
		e0 := time.Now()
		_, err = bench.RunCorpusEstimate(req.Layer, req.Corpus, req.N, plan)
		e1 := time.Now()
		a1 := mallocs()
		if err != nil {
			return err
		}
		tr.add(fmt.Sprintf("bench.RunCorpusEstimate.L%d", req.Layer), root, reqID, e0, e1)
		lc := &res.est[req.Layer]
		lc.calls++
		lc.dur += e1.Sub(e0)
		lc.tx += uint64(req.N)
		lc.allocs += a1 - a0

		tr.spans[root-1].End = time.Since(tr.t0).Nanoseconds()
		res.corpusCost[it] = c1.Sub(c0)
		res.computeCost[it] = e1.Sub(e0)
	}
	return nil
}

// replaySweeps replays sweep requests in three passes: one worker with
// OnResult gaps as per-configuration times; the daemon's worker count
// for the request's serving cost; and one metered pass for the kernel's
// skipped-cycle counts. Confirm requests also time their analytic
// screen.
func replaySweeps(tr *tracer, res *replayResult, items []*item, workers int) error {
	ctx := context.Background()
	if _, err := explore.DefaultModel(); err != nil { // fitted once, as the daemon's warm-up did
		return err
	}
	for _, it := range items {
		call, err := resolveSweep(it.sweep)
		if err != nil {
			return err
		}
		reqID := len(tr.spans) + 1
		res.reqOf[it] = reqID
		t0 := time.Now()
		root := tr.add("replay.sweep", 0, reqID, t0, t0)

		// Pass 1: per-configuration cost, one worker.
		opts := call.opts
		opts.Workers = 1
		s0 := time.Now()
		last := s0
		pass1 := tr.add("explore.sweep.workers1", root, reqID, s0, s0)
		opts.OnResult = func(r explore.Result, err error) {
			now := time.Now()
			d := now.Sub(last)
			tr.add("explore.config."+layerName(r.Layer), pass1, reqID, last, now)
			last = now
			if err != nil || r.Layer < 1 || r.Layer > 2 {
				return
			}
			add := func(c *layerCost) {
				c.calls++
				c.dur += d
				c.tx += r.Transactions
			}
			add(&res.expl[r.Layer])
			if r.Arb != "" {
				add(&res.arb)
			}
			if r.Fault != "" && r.Fault != "none" {
				add(&res.fault)
			}
			if r.Tear != "" || r.Journal != "" {
				add(&res.tear)
			}
		}
		if _, err := call.run(ctx, opts); err != nil {
			return err
		}
		tr.spans[pass1-1].End = time.Since(tr.t0).Nanoseconds()

		// Pass 2: the serving cost at the daemon's worker count.
		opts = call.opts
		opts.Workers = workers
		w0 := time.Now()
		if _, err := call.run(ctx, opts); err != nil {
			return err
		}
		w1 := time.Now()
		tr.add("explore.sweep.served", root, reqID, w0, w1)
		res.computeCost[it] = w1.Sub(w0)

		// Pass 3: kernel counters.
		opts = call.opts
		opts.Workers = workers
		opts.Metrics = true
		m0 := time.Now()
		rs, err := explore.SweepContext(ctx, opts, call.layers, call.orgs, call.maps, call.workloads)
		if err != nil {
			return err
		}
		tr.add("explore.sweep.metered", root, reqID, m0, time.Now())
		for _, r := range rs {
			if r.Metrics != nil && r.Layer >= 1 && r.Layer <= 2 {
				res.skipped[r.Layer][0] += r.Metrics.SkippedCycles
				res.skipped[r.Layer][1] += r.Metrics.Cycles
			}
		}

		if call.confirm {
			opts = call.opts
			opts.Workers = 1
			c0 := time.Now()
			mf, err := explore.SweepMultiFidelityContext(ctx, explore.MultiFidelityOpts{SweepOpts: opts, SkipConfirm: true},
				call.layers, call.orgs, call.maps, call.workloads)
			if err != nil {
				return err
			}
			tr.add("explore.SweepMultiFidelity.screen", root, reqID, c0, time.Now())
			res.screen.calls += mf.ScreenedConfigs
			res.screen.dur += mf.ScreenTime
		}
		tr.spans[root-1].End = time.Since(tr.t0).Nanoseconds()
	}
	return nil
}

func layerName(l int) string { return fmt.Sprintf("L%d", l) }
