package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/javacard"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/tear"
)

// item is one generated request: the HTTP path, the exact JSON body the
// load generator sends, and the decoded request the verifier and the
// traced replay work from.
type item struct {
	path  string
	body  []byte
	est   *serve.EstimateRequest
	sweep *serve.SweepRequest
}

// canon is the request's canonical identity — the fields the daemon's
// content address is computed from, resolved through the same public
// parsers the daemon uses. Two items with equal canon are the same
// cache key.
func (it *item) canon() string {
	if it.est != nil {
		plan, err := fault.Parse(it.est.Fault)
		spec := "invalid"
		if err == nil {
			spec = plan.Spec()
		}
		return fmt.Sprintf("estimate/L%d/%s/n=%d/%s", it.est.Layer, it.est.Corpus, it.est.N, spec)
	}
	r := it.sweep
	// An empty axis fails to parse and renders as nil, as it should.
	arbs, _ := explore.ParseArbs(strings.Join(r.Arbs, ","))
	tears, _ := explore.ParseTears(strings.Join(r.Tears, ","))
	journals, _ := explore.ParseJournals(strings.Join(r.Journals, ","))
	return fmt.Sprintf("sweep/%s/%v/%q/%q/%q/%q/%q/%q/%q", r.Fidelity, r.Layers, r.Orgs, r.AddrMaps,
		r.Workloads, r.Faults, arbs, tears, journals)
}

func newItem(path string, est *serve.EstimateRequest, sweep *serve.SweepRequest) *item {
	var v any = est
	if sweep != nil {
		v = sweep
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return &item{path: path, body: body, est: est, sweep: sweep}
}

// Estimate-stream shape. Every block of estBlock requests covers each
// (layer, fault family) pair once and each of estBlock equal-width
// strata of the perf-corpus size once, so the stream's cost mix is the
// same for every seed and a run's figures do not depend on which seed
// it drew.
const (
	estMinN  = 256
	estMaxN  = 4096
	estBlock = 12 // 3 layers × 4 fault families
)

// faultFamilies are the named fault plans an estimate request rotates
// through; each faulted request re-seeds its family's plan.
var faultFamilies = fault.Names

// estimateGen yields distinct /v1/estimate requests. seen is shared
// with every other generator feeding the same daemon, so no request
// repeats a content address already sent.
type estimateGen struct {
	rng   *rand.Rand
	seen  map[string]bool
	block []*item
}

func newEstimateGen(seed uint64, seen map[string]bool) *estimateGen {
	return &estimateGen{rng: rand.New(rand.NewPCG(seed, 0xE57)), seen: seen}
}

func (g *estimateGen) next() *item {
	if len(g.block) == 0 {
		g.fillBlock()
	}
	it := g.block[0]
	g.block = g.block[1:]
	return it
}

func (g *estimateGen) fillBlock() {
	strata := g.rng.Perm(estBlock)
	width := (estMaxN - estMinN) / estBlock
	pairs := g.rng.Perm(estBlock)
	for i, p := range pairs {
		layer, family := p%3, faultFamilies[p/3]
		for {
			n := estMinN + strata[i]*width + g.rng.IntN(width)
			spec := "none"
			if family != "none" {
				plan, _ := fault.Named(family)
				plan.Seed = g.rng.Uint64() | 1 // a zero seed would drop out of the spec
				spec = plan.Spec()
			}
			it := newItem("/v1/estimate", &serve.EstimateRequest{Layer: layer, Corpus: "perf", N: n, Fault: spec}, nil)
			if k := it.canon(); !g.seen[k] {
				g.seen[k] = true
				g.block = append(g.block, it)
				break
			}
		}
	}
}

// Sweep-stream shape: every request is exhaustive or confirm over both
// timed layers, two SFR organizations, one address map and one
// case-study workload, crossed with either two fault plans × two
// arbitration policies or two tear plans × two journal strategies —
// 16 configurations per request. Kinds alternate and every fourth pair
// is sent at the confirm fidelity. The case-study workloads cost very
// different amounts, so they are stratified too: every block of
// sweepCycle × len(sweepWorkloads) requests sends each workload once in
// each (kind, fidelity) slot, and a run's cost mix does not depend on
// its seed.
const (
	sweepConfigs = 16
	sweepCycle   = 8 // 2 kinds × 4 pairs, the last pair confirm
)

var (
	arbChoices     = append([]string{"none"}, explore.ArbPolicies...)
	sweepWorkloads = names(javacard.Workloads(), func(w javacard.Workload) string { return w.Name })
	sweepOrgs      = names(javacard.Organizations, javacard.Organization.String)
)

func names[T any](in []T, name func(T) string) []string {
	out := make([]string, len(in))
	for i, v := range in {
		out[i] = name(v)
	}
	return out
}

type sweepGen struct {
	rng  *rand.Rand
	seen map[string]bool
	i    int
	// slotWorkloads[s] is the order in which cycle slot s visits the
	// case-study workloads in the current block.
	slotWorkloads [sweepCycle][]int
}

func newSweepGen(seed uint64, seen map[string]bool) *sweepGen {
	return &sweepGen{rng: rand.New(rand.NewPCG(seed, 0x5EE9)), seen: seen}
}

// pick2 draws an ordered pair of distinct elements.
func (g *sweepGen) pick2(from []string) []string {
	p := g.rng.Perm(len(from))
	return []string{from[p[0]], from[p[1]]}
}

func (g *sweepGen) next() *item {
	faultArb := g.i%2 == 0
	fidelity := "exhaustive"
	if (g.i/2)%4 == 3 {
		fidelity = "confirm"
	}
	pos := g.i % (sweepCycle * len(sweepWorkloads))
	if pos == 0 {
		for s := range g.slotWorkloads {
			g.slotWorkloads[s] = g.rng.Perm(len(sweepWorkloads))
		}
	}
	workload := sweepWorkloads[g.slotWorkloads[pos%sweepCycle][pos/sweepCycle]]
	g.i++
	for {
		r := &serve.SweepRequest{
			Layers:    []int{1, 2},
			Orgs:      g.pick2(sweepOrgs),
			AddrMaps:  []string{explore.AllAddrMaps[g.rng.IntN(len(explore.AllAddrMaps))]},
			Workloads: []string{workload},
			Fidelity:  fidelity,
		}
		if g.rng.IntN(2) == 1 {
			r.Layers = []int{2, 1}
		}
		if faultArb {
			r.Faults = g.pick2(fault.Names)
			r.Arbs = g.pick2(arbChoices)
		} else {
			r.Tears = g.pick2(tear.Names)
			r.Journals = g.pick2(journal.Names)
		}
		it := newItem("/v1/sweep", nil, r)
		if k := it.canon(); !g.seen[k] {
			g.seen[k] = true
			return it
		}
	}
}

// Fixed, seed-independent warm-up request lists: the first requests of
// the warm-up seed's streams. They are the same for every run, so
// set-up time measures the daemon rather than the draw.
const (
	warmSeed       = 0x3A5E_B00C
	estimateWarmup = 120
	sweepWarmup    = 24  // one stratified block
	hotSetSize     = 256 // estimate-hot working set; fits the default 1024-entry cache
	// sweepHotSetSize is the sweep-hot working set: three blocks of the
	// stratified sweep stream, so each (kind, fidelity, case-study
	// workload) appears three times. It fits the default cache too.
	sweepHotSetSize = 72
)

func take(n int, next func() *item) []*item {
	out := make([]*item, n)
	for i := range out {
		out[i] = next()
	}
	return out
}
