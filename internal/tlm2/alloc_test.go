package tlm2

import (
	"testing"

	"repro/internal/ecbus"
	"repro/internal/gatepower"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ticketSink keeps the caller-side baseline allocations observable.
var ticketSink *Ticket

// The layer-2 bus process must be allocation-free in steady state: the
// request records live in the bus's slab and the lifecycle queues are
// rings of slab indices, so pumping transactions through an
// already-constructed bus performs zero heap allocations (construction
// and transaction creation excluded) — the twin of tlm1's budget.
func TestBusProcessZeroSteadyStateAllocs(t *testing.T) {
	k := sim.New(0)
	b := New(k, ecbus.MustMap(
		mem.NewRAM("fast", 0, 0x1000, 0, 0),
		mem.NewRAM("slow", 0x10000, 0x1000, 1, 2),
	)).AttachPower(NewPowerModel(gatepower.CharTable{}))

	single, err := ecbus.NewSingle(1, ecbus.Write, 0x10000, ecbus.W32, 0)
	if err != nil {
		t.Fatal(err)
	}
	burst, err := ecbus.NewBurst(2, ecbus.Read, 0x10000, nil)
	if err != nil {
		t.Fatal(err)
	}
	poll := func(trs ...*ecbus.Transaction) {
		for i := 0; i < 64; i++ {
			done := true
			for _, tr := range trs {
				if !b.Access(tr).Done() {
					done = false
				}
			}
			if done {
				return
			}
			k.Step()
		}
		t.Fatal("transaction did not complete")
	}
	id := uint64(2)
	pump := func() {
		id++
		if err := single.ResetSingle(id, ecbus.Write, 0x10000+4*(id%8), ecbus.W32, uint32(id)*0x9E37); err != nil {
			t.Fatal(err)
		}
		if err := burst.ResetBurst(id+1, ecbus.Read, 0x10000+16*(id%4)); err != nil {
			t.Fatal(err)
		}
		poll(single, burst) // pipelined: one write, one burst read in flight
	}
	pump() // warm up (lazy state, kernel start)
	if avg := testing.AllocsPerRun(100, pump); avg != 0 {
		t.Fatalf("steady-state allocations per single+burst pair = %v, want 0", avg)
	}

	// Native interface: Read/Write create the caller's ticket and block
	// transaction; everything past that — queueing, polling, readback —
	// must add nothing.
	perCall := testing.AllocsPerRun(100, func() {
		ticketSink = &Ticket{tr: blockTransaction(ecbus.Read, 0x100, 8)}
	})
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]byte, len(src))
	native := func() {
		wt := b.Write(src, len(src), 0x100)
		rt := b.Read(dst, len(dst), 0x100, false)
		if wt == nil || rt == nil {
			t.Fatal("native request rejected on an idle bus")
		}
		for i := 0; i < 64 && !(wt.Done() && rt.Done()); i++ {
			k.Step()
		}
		if !wt.Done() || !rt.Done() || rt.Err() {
			t.Fatal("native transfer did not complete")
		}
	}
	native()
	if avg := testing.AllocsPerRun(100, native); avg != 2*perCall {
		t.Fatalf("native write+read allocated %v, want %v (two caller-side tickets)", avg, 2*perCall)
	}
	if string(dst) != string(src) {
		t.Fatalf("native readback %x, want %x", dst, src)
	}
}
