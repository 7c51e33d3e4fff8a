package arb_test

import (
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// The mux's request lifecycle must be allocation-free in steady state:
// per-port pending rings and granted sets are reused in place, so once
// warmed up, three contending masters pushing transactions through a
// 3-port mux perform zero heap allocations per granted transaction, in
// front of either timed bus layer and under either policy.
func TestMuxZeroSteadyStateAllocs(t *testing.T) {
	char := platform.DefaultCharTable()
	for _, policy := range arb.Policies {
		for _, layer := range []int{1, 2} {
			k := sim.New(0)
			mux := arb.NewMux(k, policy, 3)
			if layer == 1 {
				mux.Bind(tlm1.New(k, testMap()).AttachPower(tlm1.NewPowerModel(char)))
			} else {
				mux.Bind(tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(char)))
			}
			ports := []core.Initiator{mux.Port(0), mux.Port(1), mux.Port(2)}
			trs := make([]*ecbus.Transaction, len(ports))
			for i := range trs {
				tr, err := ecbus.NewSingle(1, ecbus.Write, lay.Fast, ecbus.W32, 0)
				if err != nil {
					t.Fatal(err)
				}
				trs[i] = tr
			}
			id := uint64(1)
			pump := func() {
				for i, tr := range trs {
					id++
					base := lay.Fast
					if i == 1 {
						base = lay.Slow
					}
					kind := ecbus.Write
					if id%3 == 0 {
						kind = ecbus.Read
					}
					if err := tr.ResetSingle(id, kind, base+4*(id%16), ecbus.W32, uint32(id)); err != nil {
						t.Fatal(err)
					}
				}
				for c := 0; c < 128; c++ {
					done := true
					for i, tr := range trs {
						if !ports[i].Access(tr).Done() {
							done = false
						}
					}
					if done && mux.Drained() {
						return
					}
					k.Step()
				}
				t.Fatalf("%s L%d: transactions did not complete", policy, layer)
			}
			pump() // warm up (lazy state, kernel start)
			before := mux.TotalGrants()
			avg := testing.AllocsPerRun(100, pump)
			if got := mux.TotalGrants() - before; got < 3*100 {
				t.Fatalf("%s L%d: %d grants over 100 rounds, want >= 300", policy, layer, got)
			}
			if mux.Contentions() == 0 {
				t.Fatalf("%s L%d: masters never contended", policy, layer)
			}
			if avg != 0 {
				t.Fatalf("%s L%d: %v allocations per 3 granted transactions, want 0", policy, layer, avg)
			}
		}
	}
}
