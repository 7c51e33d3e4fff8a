package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"repro/internal/bench"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/serve"
)

// verify checks every 200 response against an in-process recomputation
// and marks the records that pass. Estimate bodies must match
// bench.RunCorpusEstimate bit for bit; a body whose item has a
// reference (the estimate-hot warm-up bodies) must be byte-identical
// to it; sweep bodies must parse, end in a clean trailer with the
// expected row count, and match the in-process explore rows. It runs
// after the timed window and returns one line per mismatch.
func verify(recs []*record, reference map[*item][]byte) []string {
	expect := map[*item]error{}
	var todo []*item
	for _, r := range recs {
		if r.status != http.StatusOK {
			continue
		}
		if _, ok := reference[r.it]; ok {
			continue
		}
		if _, ok := expect[r.it]; !ok {
			expect[r.it] = nil
			todo = append(todo, r.it)
		}
	}
	// Recompute each distinct request once, in parallel; the check
	// closes over the first body received for it.
	first := map[*item][]byte{}
	for _, r := range recs {
		if r.status == http.StatusOK && first[r.it] == nil {
			first[r.it] = r.body
		}
	}
	var mu sync.Mutex
	parallel(len(todo), func(i int) {
		it := todo[i]
		err := check(it, first[it])
		mu.Lock()
		expect[it] = err
		mu.Unlock()
	})

	var bad []string
	for _, r := range recs {
		if r.status != http.StatusOK {
			continue
		}
		var err error
		if ref, ok := reference[r.it]; ok {
			if !bytes.Equal(r.body, ref) {
				err = fmt.Errorf("body differs from its warm-up body")
			}
		} else if !bytes.Equal(r.body, first[r.it]) {
			err = fmt.Errorf("body differs from an earlier response to the same request")
		} else {
			err = expect[r.it]
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s %s: %v", r.it.path, r.it.body, err))
			continue
		}
		r.verified = true
	}
	return bad
}

// parallel runs f(0..n-1) over one goroutine per CPU.
func parallel(n int, f func(int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func check(it *item, body []byte) error {
	if it.est != nil {
		return checkEstimate(it.est, body)
	}
	return checkSweep(it.sweep, body)
}

func checkEstimate(req *serve.EstimateRequest, body []byte) error {
	var got serve.EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("bad estimate body: %w", err)
	}
	plan, err := fault.Parse(req.Fault)
	if err != nil {
		return err
	}
	want, err := bench.RunCorpusEstimate(req.Layer, req.Corpus, req.N, plan)
	if err != nil {
		return err
	}
	if got.Layer != req.Layer || got.N != req.N || got.Fault != plan.Spec() ||
		got.Cycles != want.Cycles || got.Errors != want.Errors || got.Retries != want.Retries ||
		got.EnergyBits != serve.EnergyBits(want.EnergyJ) {
		return fmt.Errorf("got layer=%d n=%d fault=%s cycles=%d errors=%d retries=%d energy_bits=%s, want cycles=%d errors=%d retries=%d energy_bits=%s",
			got.Layer, got.N, got.Fault, got.Cycles, got.Errors, got.Retries, got.EnergyBits,
			want.Cycles, want.Errors, want.Retries, serve.EnergyBits(want.EnergyJ))
	}
	return nil
}

// sweepCall is a sweep request resolved into explore arguments with
// the same public parsers the daemon uses.
type sweepCall struct {
	opts      explore.SweepOpts
	layers    []int
	orgs      []javacard.Organization
	maps      []string
	workloads []javacard.Workload
	confirm   bool
}

func resolveSweep(r *serve.SweepRequest) (sweepCall, error) {
	c := sweepCall{layers: r.Layers, maps: r.AddrMaps, confirm: r.Fidelity == string(explore.FidelityConfirm)}
	for _, name := range r.Orgs {
		o, ok := serve.OrgByName(name)
		if !ok {
			return c, fmt.Errorf("unknown organization %q", name)
		}
		c.orgs = append(c.orgs, o)
	}
	for _, name := range r.Workloads {
		found := false
		for _, w := range javacard.Workloads() {
			if w.Name == name {
				c.workloads = append(c.workloads, w)
				found = true
			}
		}
		if !found {
			return c, fmt.Errorf("unknown workload %q", name)
		}
	}
	var err error
	if len(r.Faults) > 0 {
		if c.opts.Faults, err = fault.ParseNames(strings.Join(r.Faults, ",")); err != nil {
			return c, err
		}
	}
	if len(r.Arbs) > 0 {
		if c.opts.Arbs, err = explore.ParseArbs(strings.Join(r.Arbs, ",")); err != nil {
			return c, err
		}
	}
	if len(r.Tears) > 0 {
		if c.opts.Tears, err = explore.ParseTears(strings.Join(r.Tears, ",")); err != nil {
			return c, err
		}
	}
	if len(r.Journals) > 0 {
		if c.opts.Journals, err = explore.ParseJournals(strings.Join(r.Journals, ",")); err != nil {
			return c, err
		}
	}
	return c, nil
}

// run evaluates the call in-process and returns the rows the daemon
// must have rendered: every configuration for an exhaustive sweep, the
// confirmed survivors for a confirm sweep.
func (c sweepCall) run(ctx context.Context, opts explore.SweepOpts) ([]explore.Result, error) {
	if c.confirm {
		mf, err := explore.SweepMultiFidelityContext(ctx, explore.MultiFidelityOpts{SweepOpts: opts},
			c.layers, c.orgs, c.maps, c.workloads)
		return mf.Confirmed, err
	}
	return explore.SweepContext(ctx, opts, c.layers, c.orgs, c.maps, c.workloads)
}

func checkSweep(req *serve.SweepRequest, body []byte) error {
	rows, trailer, err := serve.ParseSweepBody(body)
	if err != nil {
		return err
	}
	if !trailer.Done || len(trailer.Errors) > 0 {
		return fmt.Errorf("trailer done=%v errors=%q", trailer.Done, trailer.Errors)
	}
	call, err := resolveSweep(req)
	if err != nil {
		return err
	}
	opts := call.opts
	opts.Workers = 1
	want, err := call.run(context.Background(), opts)
	if err != nil {
		return fmt.Errorf("in-process sweep: %w", err)
	}
	if !call.confirm && len(want) != sweepConfigs {
		return fmt.Errorf("in-process exhaustive sweep has %d rows, want %d", len(want), sweepConfigs)
	}
	if trailer.Rows != len(want) || len(rows) != len(want) {
		return fmt.Errorf("trailer rows=%d, body rows=%d, want %d", trailer.Rows, len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		if g.Workload != w.Workload || g.Layer != w.Layer || g.Org != w.Org.String() ||
			g.AddrMap != w.AddrMap || g.Cycles != w.Cycles || g.Tx != w.Transactions ||
			g.EnergyBits != serve.EnergyBits(w.BusEnergyJ) {
			return fmt.Errorf("row %d: got %s L%d/%s/%s cycles=%d tx=%d energy_bits=%s, want %s cycles=%d tx=%d energy_bits=%s",
				i, g.Workload, g.Layer, g.Org, g.AddrMap, g.Cycles, g.Tx, g.EnergyBits,
				w.Config, w.Cycles, w.Transactions, serve.EnergyBits(w.BusEnergyJ))
		}
	}
	return nil
}
