package arb_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/bits"
	"testing"

	"repro/internal/arb"
	"repro/internal/core"
	"repro/internal/ecbus"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tlm1"
	"repro/internal/tlm2"
)

// Pinned per-transaction captures of the arbitrated and the faulted
// runs the cross-layer equivalence suites exercise. Layer 2 and the
// mux have no reference path for the golden gate to compare against,
// and the equivalence suites only pin layer 2 by conservation, so a
// one-cycle drift in either would pass them. These digests cover every
// transaction's timing fields, retries, outcome and data, the grant
// schedule, and the bus and arbitration energy bit patterns. They were
// recorded before the layer-2 request slab and the ring-queued mux.
const (
	pinnedContentionDigest = "b7dd4aa2722ef60beb4686905b3348722e12bc000712a1e22deca407eb5fdb37"
	pinnedFaultDigest      = "3e59f1bc094e484a1b49a1f388ada93f3c1f88f966263203d6da1d65e244cf64"
)

// digestTx folds one transaction's observable result into h.
func digestTx(h hash.Hash, tr *ecbus.Transaction) {
	var flags uint64
	for i, f := range []bool{tr.Done, tr.Err, tr.Burst} {
		if f {
			flags |= 1 << i
		}
	}
	putU64(h, tr.ID, uint64(tr.Kind), tr.Addr, flags, uint64(tr.Retries),
		tr.IssueCycle, tr.AddrCycle, tr.DataCycle)
	for _, w := range tr.Data {
		putU64(h, uint64(w))
	}
}

func putU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// TestPinnedContentionCapture digests the three-master contention
// corpus behind both policies, clean and under the scripted fault plan,
// at layers 1 and 2 with their power models attached.
func TestPinnedContentionCapture(t *testing.T) {
	char := platform.DefaultCharTable()
	h := sha256.New()
	plan := contentionPlan()
	for _, policy := range arb.Policies {
		for _, p := range []*fault.Plan{nil, &plan} {
			for _, layer := range []int{1, 2} {
				slaves := []ecbus.Slave{
					mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0),
					mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2),
				}
				if p != nil {
					for i, s := range slaves {
						slaves[i] = fault.Wrap(s, *p)
					}
				}
				bmap := ecbus.MustMap(slaves...)
				k := sim.New(0)
				mux := arb.NewMux(k, policy, 3)
				var busEnergy func() float64
				if layer == 1 {
					b := tlm1.New(k, bmap).AttachPower(tlm1.NewPowerModel(char))
					mux.Bind(b)
					busEnergy = b.Power().TotalEnergy
				} else {
					b := tlm2.New(k, bmap).AttachPower(tlm2.NewPowerModel(char))
					mux.Bind(b)
					busEnergy = b.Power().TotalEnergy
				}
				mux.Observe(func(cycle uint64, req, gnt uint32) {
					if gnt != 0 {
						putU64(h, cycle, uint64(req), uint64(bits.TrailingZeros32(gnt)))
					}
				})
				corpora := contendedCorpora(t)
				masters := make([]*core.ScriptMaster, len(corpora))
				for i, items := range corpora {
					masters[i] = core.NewScriptMaster(k, mux.Port(i), items)
					masters[i].Retry = core.RetryPolicy{MaxRetries: 4, Backoff: 1}
				}
				n, done := k.RunUntil(2_000_000, func() bool {
					for _, m := range masters {
						if !m.Done() {
							return false
						}
					}
					return mux.Drained()
				})
				if !done {
					t.Fatalf("%s L%d: run did not finish", policy, layer)
				}
				putU64(h, n, mux.Contentions(), mux.GrantWaits(),
					math.Float64bits(mux.TotalEnergy()), math.Float64bits(busEnergy()))
				for i, items := range corpora {
					putU64(h, mux.Grants(i), mux.Edges(i), uint64(masters[i].TotalRetries()))
					for _, it := range items {
						digestTx(h, it.Tr)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedContentionDigest {
		t.Fatalf("contention capture digest %s, pinned %s", got, pinnedContentionDigest)
	}
}

// TestPinnedFaultCapture digests single-master layer-2 runs under the
// named fault plans, serialized and pipelined, through the Access
// adapter, plus a native Read/Write block sequence (pointer-passing
// readback, blocks longer than a burst, decode errors).
func TestPinnedFaultCapture(t *testing.T) {
	char := platform.DefaultCharTable()
	h := sha256.New()
	for _, name := range []string{"none", "flaky", "storm", "grind"} {
		plan, ok := fault.Named(name)
		if !ok {
			t.Fatalf("unknown plan %q", name)
		}
		for _, serialized := range []bool{true, false} {
			k := sim.New(0)
			b := tlm2.New(k, ecbus.MustMap(
				fault.Wrap(mem.NewRAM("fast", lay.Fast, 0x1000, 0, 0), plan),
				fault.Wrap(mem.NewRAM("slow", lay.Slow, 0x1000, 1, 2), plan),
			)).AttachPower(tlm2.NewPowerModel(char))
			items := core.RandomCorpus(42, 300, lay)
			m := core.NewScriptMaster(k, b, items)
			m.Retry = core.RetryPolicy{MaxRetries: 4, Backoff: 1}
			if serialized {
				m.Serialized()
			}
			n, _ := k.RunUntil(1_000_000, m.Done)
			if !m.Done() {
				t.Fatalf("%s: run did not finish", name)
			}
			st := b.Stats()
			putU64(h, n, st.Accepted, st.Completed, st.Errors, st.Rejected,
				math.Float64bits(b.Power().TotalEnergy()), uint64(m.TotalRetries()))
			for _, it := range items {
				digestTx(h, it.Tr)
			}
		}
	}

	// Native interface: mixed-length blocks, back to back, polled to
	// completion with the readback buffers digested.
	k := sim.New(0)
	b := tlm2.New(k, testMap()).AttachPower(tlm2.NewPowerModel(char))
	type op struct {
		write  bool
		addr   uint64
		nbytes int
		instr  bool
	}
	ops := []op{
		{true, lay.Slow + 0x40, 24, false}, {false, lay.Slow + 0x40, 24, false},
		{true, lay.Fast + 0x10, 2, false}, {false, lay.Fast + 0x10, 1, true},
		{false, 0x5000, 4, false}, {true, lay.Fast + 0x200, 16, false},
		{false, lay.Fast + 0x200, 16, false}, {false, lay.Slow + 0x44, 4, true},
	}
	bufs := make([][]byte, len(ops))
	tickets := make([]*tlm2.Ticket, len(ops))
	for i, o := range ops {
		bufs[i] = make([]byte, o.nbytes)
		for j := range bufs[i] {
			bufs[i][j] = byte(17*i + j)
		}
	}
	next := 0
	n, _ := k.RunUntil(10_000, func() bool {
		for next < len(ops) {
			o := ops[next]
			var tk *tlm2.Ticket
			if o.write {
				tk = b.Write(bufs[next], o.nbytes, o.addr)
			} else {
				tk = b.Read(bufs[next], o.nbytes, o.addr, o.instr)
			}
			if tk == nil {
				break
			}
			tickets[next] = tk
			next++
		}
		if next < len(ops) {
			return false
		}
		for _, tk := range tickets {
			if !tk.Done() {
				return false
			}
		}
		return true
	})
	putU64(h, n, math.Float64bits(b.Power().TotalEnergy()))
	for i, tk := range tickets {
		if tk == nil {
			t.Fatalf("native op %d never accepted", i)
		}
		errBit := uint64(0)
		if tk.Err() {
			errBit = 1
		}
		putU64(h, tk.EndCycle(), errBit)
		h.Write(bufs[i])
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedFaultDigest {
		t.Fatalf("fault capture digest %s, pinned %s", got, pinnedFaultDigest)
	}
}
