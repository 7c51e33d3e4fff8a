package explore

import (
	"testing"

	"repro/internal/javacard"
	"repro/internal/platform"
)

// TestL2RunAllocatesNoMoreThanL1 is the transaction layer's allocation
// budget in the case study: the layer-2 bus and the arbiter mux recycle
// their request records, so a layer-2 configuration allocates no more
// than the same layer-1 configuration — single-master and contended,
// for every organization and workload.
func TestL2RunAllocatesNoMoreThanL1(t *testing.T) {
	char := platform.DefaultCharTable()
	for _, w := range javacard.Workloads() {
		for _, org := range javacard.Organizations {
			for _, a := range append([]string{""}, ArbPolicies...) {
				var allocs [3]float64
				for _, layer := range []int{1, 2} {
					cfg := Config{Layer: layer, Org: org, AddrMap: "near", Arb: a}
					// Ten runs per average: under load a few allocations
					// from outside the measured code occasionally land in
					// the window, and the integer average absorbs them.
					allocs[layer] = testing.AllocsPerRun(10, func() {
						if _, err := Run(cfg, w, char); err != nil {
							t.Fatal(err)
						}
					})
				}
				if allocs[2] > allocs[1] {
					t.Errorf("%s %s arb=%q: layer 2 allocates %v per run, layer 1 %v",
						w.Name, org, a, allocs[2], allocs[1])
				}
			}
		}
	}
}
