package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// defaultCacheEntries is serve.Options' default result-cache capacity,
// the one the benchmark's daemon runs with.
const defaultCacheEntries = 1024

func draws(st streams, clients, n int) [][]byte {
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, st.src.next(i%clients).body)
	}
	return out
}

func TestStreamsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{1, 7, 1 << 40} {
			a, b := makeStreams(w, seed), makeStreams(w, seed)
			if len(a.warm) != len(b.warm) {
				t.Fatalf("%s seed %d: warm-up lengths %d vs %d", w.Name, seed, len(a.warm), len(b.warm))
			}
			for i := range a.warm {
				if !bytes.Equal(a.warm[i].body, b.warm[i].body) {
					t.Fatalf("%s seed %d: warm-up item %d differs", w.Name, seed, i)
				}
			}
			da, db := draws(a, w.Clients, 300), draws(b, w.Clients, 300)
			for i := range da {
				if !bytes.Equal(da[i], db[i]) {
					t.Fatalf("%s seed %d: request %d differs: %s vs %s", w.Name, seed, i, da[i], db[i])
				}
			}
		}
		if bytes.Equal(draws(makeStreams(w, 1), w.Clients, 1)[0], draws(makeStreams(w, 2), w.Clients, 1)[0]) {
			t.Errorf("%s: seeds 1 and 2 start with the same request", w.Name)
		}
	}
}

func TestColdStreamsNeverRepeat(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
	}{{"estimate-cold", 6000}, {"sweep-cold", 1500}} {
		w, _ := findWorkload(c.name)
		for _, seed := range []uint64{1, 2, warmSeed} {
			st := makeStreams(w, seed)
			seen := map[string]bool{}
			for i, it := range append(st.warm, take(c.n, func() *item { return st.src.next(0) })...) {
				k := it.canon()
				if seen[k] {
					t.Fatalf("%s seed %d: request %d repeats %s", c.name, seed, i, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestStreamRequestsResolve(t *testing.T) {
	for _, w := range workloads {
		st := makeStreams(w, 3)
		for _, it := range append(st.warm, take(200, func() *item { return st.src.next(0) })...) {
			if it.sweep != nil {
				call, err := resolveSweep(it.sweep)
				if err != nil {
					t.Fatalf("%s: %s: %v", w.Name, it.body, err)
				}
				n := len(call.layers) * len(call.orgs) * len(call.maps) * len(call.workloads) *
					max(1, len(call.opts.Faults)) * max(1, len(call.opts.Arbs)) *
					max(1, len(call.opts.Tears)) * max(1, len(call.opts.Journals))
				if n != sweepConfigs {
					t.Fatalf("%s: %s has %d configurations, want %d", w.Name, it.body, n, sweepConfigs)
				}
			} else if it.canon() == "" || it.est.N < estMinN || it.est.N >= estMaxN {
				t.Fatalf("%s: bad estimate request %s", w.Name, it.body)
			}
		}
	}
}

func TestHotStreamStaysInWarmSet(t *testing.T) {
	for _, c := range []struct {
		name string
		size int
	}{{"sweep-hot", sweepHotSetSize}, {"estimate-hot", hotSetSize}} {
		w, _ := findWorkload(c.name)
		st := makeStreams(w, 5)
		if len(st.warm) != c.size || c.size > defaultCacheEntries {
			t.Fatalf("%s: working set %d keys, want %d <= %d", c.name, len(st.warm), c.size, defaultCacheEntries)
		}
		set := map[*item]bool{}
		keys := map[string]bool{}
		for _, it := range st.warm {
			set[it] = true
			keys[it.canon()] = true
		}
		if len(keys) != c.size {
			t.Fatalf("%s: working set has %d distinct keys, want %d", c.name, len(keys), c.size)
		}
		used := map[*item]bool{}
		for i := 0; i < 20000; i++ {
			it := st.src.next(i % w.Clients)
			if !set[it] {
				t.Fatalf("%s: draw %d left the warm set: %s", c.name, i, it.body)
			}
			used[it] = true
		}
		if len(used) != c.size {
			t.Errorf("%s: 20000 draws touched %d of %d keys", c.name, len(used), c.size)
		}
	}
}

func TestSweepStreamStratified(t *testing.T) {
	w, _ := findWorkload("sweep-cold")
	st := makeStreams(w, 9)
	block := sweepCycle * len(sweepWorkloads)
	for b := 0; b < 4; b++ {
		count := map[string]int{}
		for i := 0; i < block; i++ {
			it := st.src.next(0)
			count[fmt.Sprintf("%d/%s/%s", i%sweepCycle, it.sweep.Fidelity, it.sweep.Workloads[0])]++
		}
		if len(count) != block {
			t.Fatalf("block %d covers %d of %d (slot, workload) pairs: %v", b, len(count), block, count)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {150, 0.9}, {1000, 0.99}, {12000, 0.999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, 1, at(0), at(10))
	tr.add("a", root, 1, at(1), at(4))
	tr.add("b", root, 1, at(3), at(6)) // overlaps a by 1 ms
	self := selfTimes(tr.spans)
	if self["root"] != 5*time.Millisecond || self["a"] != 3*time.Millisecond {
		t.Errorf("self times %v, want root 5ms, a 3ms", self)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		ours, theirs []metricDef
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.ours) != len(c.theirs) {
			t.Errorf("catalogue has %d metrics, BENCHMARK.json %d", len(c.ours), len(c.theirs))
		}
		for i, m := range c.ours {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
			}
			if i >= len(c.theirs) {
				continue
			}
			j := c.theirs[i]
			if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
				t.Errorf("metric %d: catalogue %+v, BENCHMARK.json %+v", i, m, j)
			}
		}
	}
	var listed []workload
	for _, w := range workloads {
		if w.Listed {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, want the %d listed ones", len(spec.Workloads), len(listed))
	}
	for i, w := range listed {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, want %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestEmitReportsEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for _, m := range perLayer {
		values[m.Name] = 1
	}
	out, missing := emit(perLayer, values)
	if len(missing) != 0 || len(out) != len(perLayer) {
		t.Errorf("emit: %d metrics, missing %v", len(out), missing)
	}
	delete(values, "trace.overhead_ratio")
	if _, missing := emit(perLayer, values); len(missing) != 1 {
		t.Errorf("emit did not report the missing metric: %v", missing)
	}
}
