package arb

import (
	"fmt"
	"math/bits"

	"repro/internal/ecbus"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Observer receives the arbitration wires of every executed falling
// tick: the request mask sampled at arbitration time and the grant
// pulse (at most one bit). The checker's grant-protocol monitor hooks
// in here.
type Observer func(cycle uint64, req, gnt uint32)

// Mux is the multi-master front of a bus model: n master-side ports
// share one downstream core.Initiator under an arbitration policy.
//
// The mux registers a falling-edge process that must run *before* the
// bus process of the fronted layer, so a granted transaction is
// presented to the bus in the same falling tick and begins its address
// phase exactly when a directly-connected master's rising-edge request
// would — an uncontended master observes identical Addr/Data cycle
// numbers and identical bus energy through the mux. Construction order
// enforces this: create the Mux first, then the bus, then Bind them.
//
// Arbitration is one grant per cycle (the EC bus starts at most one
// address phase per falling edge anyway). A grant is only committed
// when the bus accepts the transaction; a cycle where the downstream
// category queue is full grants nobody and does not rotate round-robin
// priority away from the stalled winner.
type Mux struct {
	a   *Arbiter
	bus Initiator
	n   int

	// ports holds each master's presented-but-ungranted transactions in
	// presentation order and its forwarded transactions until the master
	// observes the terminal state. Both are reused in place: steady-state
	// arbitration allocates nothing.
	ports []portState

	reqPrev, gntPrev uint32
	edges            []uint64 // per-master request+grant wire transitions
	grants           []uint64 // per-master committed grants
	grantWaits       uint64   // grant attempts refused by the bus (queue full)
	contentions      uint64   // executed ticks with >1 requester

	obs Observer
}

// portState is one master's queues inside the mux.
type portState struct {
	pending fifo
	// granted is unordered and searched linearly: a master has at most
	// a handful of transactions in flight. Removal swaps the last entry
	// in, so the backing array keeps its capacity.
	granted []grant
}

// grant is a forwarded transaction and whether its master has been
// told StateRequest yet.
type grant struct {
	tr   *ecbus.Transaction
	told bool
}

// find returns the index of tr in the granted set, or -1.
func (p *portState) find(tr *ecbus.Transaction) int {
	for i := range p.granted {
		if p.granted[i].tr == tr {
			return i
		}
	}
	return -1
}

// forget removes tr from the granted set (a no-op if absent).
func (p *portState) forget(tr *ecbus.Transaction) {
	if i := p.find(tr); i >= 0 {
		last := len(p.granted) - 1
		p.granted[i] = p.granted[last]
		p.granted[last] = grant{}
		p.granted = p.granted[:last]
	}
}

// fifo is a ring of transactions that only grows (by doubling) when a
// master presents more than it has ever presented at once.
type fifo struct {
	buf  []*ecbus.Transaction // len is a power of two
	head int
	n    int
}

func (q *fifo) front() *ecbus.Transaction { return q.buf[q.head] }

func (q *fifo) push(tr *ecbus.Transaction) {
	if q.n == len(q.buf) {
		buf := make([]*ecbus.Transaction, 2*len(q.buf))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = tr
	q.n++
}

func (q *fifo) pop() {
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *fifo) contains(tr *ecbus.Transaction) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&(len(q.buf)-1)] == tr {
			return true
		}
	}
	return false
}

// Initiator is the downstream bus interface; structurally identical to
// core.Initiator (redeclared to avoid an import cycle: core masters
// drive mux ports through the same contract).
type Initiator interface {
	Access(tr *ecbus.Transaction) ecbus.BusState
}

// NewMux creates the arbitrating front for n masters and registers its
// falling-edge process on the kernel. Call it BEFORE constructing the
// bus model it will front, then Bind the bus; registration order is
// execution order, and the mux must arbitrate ahead of the bus's
// protocol state machine in every falling tick.
func NewMux(k *sim.Kernel, policy Policy, n int) *Mux {
	m := &Mux{
		a:      New(policy, n),
		n:      n,
		ports:  make([]portState, n),
		edges:  make([]uint64, n),
		grants: make([]uint64, n),
	}
	for i := range m.ports {
		m.ports[i].pending.buf = make([]*ecbus.Transaction, 4)
		m.ports[i].granted = make([]grant, 0, ecbus.NumCategories*ecbus.MaxOutstanding)
	}
	k.AtHinted(sim.Falling, "arb-mux", m.tick, m.hint, nil)
	return m
}

// Bind connects the downstream bus. It must be called before the first
// kernel cycle.
func (m *Mux) Bind(bus Initiator) *Mux {
	m.bus = bus
	return m
}

// Observe installs the wire observer (at most one; the checker chains
// internally if it needs more).
func (m *Mux) Observe(o Observer) { m.obs = o }

// Policy returns the arbitration policy.
func (m *Mux) Policy() Policy { return m.a.Policy() }

// Masters returns the number of ports.
func (m *Mux) Masters() int { return m.n }

// Port returns master port i. Each master holds exactly one port;
// ports are not safe for use by two concurrent masters (the whole
// simulation is single-threaded).
func (m *Mux) Port(i int) *Port {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("arb: port %d out of range [0,%d)", i, m.n))
	}
	return &Port{m: m, i: i}
}

// hint keeps the mux skippable: it needs a cycle only while a request
// is pending or the request/grant wires still carry a level to decay.
func (m *Mux) hint(now uint64) uint64 {
	if m.reqPrev != 0 || m.gntPrev != 0 {
		return now
	}
	for i := range m.ports {
		if m.ports[i].pending.n > 0 {
			return now
		}
	}
	return sim.NoEvent
}

// tick is the falling-edge arbitration step: sample requests, pick one
// winner, present its head transaction to the bus, and integrate the
// request/grant wire activity.
func (m *Mux) tick(cycle uint64) {
	var req uint32
	for i := range m.ports {
		if m.ports[i].pending.n > 0 {
			req |= 1 << uint(i)
		}
	}
	var gnt uint32
	if req != 0 {
		if bits.OnesCount32(req) > 1 {
			m.contentions++
		}
		w := m.a.Pick(req)
		p := &m.ports[w]
		tr := p.pending.front()
		switch st := m.bus.Access(tr); st {
		case ecbus.StateRequest, ecbus.StateOK, ecbus.StateError:
			// Accepted (or completed on the spot: zero-time counting bus,
			// or a validation failure). Hand the transaction over; the
			// master learns its state on its next poll.
			p.pending.pop()
			p.granted = append(p.granted, grant{tr: tr})
			m.a.Commit(w)
			gnt = 1 << uint(w)
			m.grants[w]++
		default:
			// StateWait: the downstream queue for this category is full.
			// No grant this cycle; the winner keeps its priority claim.
			m.grantWaits++
		}
	}
	// Request/grant wire edges, integrated per master in port order —
	// the order TotalEnergy sums, so attribution telescopes bit-exactly.
	dr, dg := req^m.reqPrev, gnt^m.gntPrev
	if dr|dg != 0 {
		for i := 0; i < m.n; i++ {
			m.edges[i] += uint64(dr>>uint(i)&1) + uint64(dg>>uint(i)&1)
		}
	}
	m.reqPrev, m.gntPrev = req, gnt
	if m.obs != nil {
		m.obs(cycle, req, gnt)
	}
}

// Drained reports whether the mux holds no pending or granted
// transactions and the wires are idle — the mux's contribution to a
// run's termination condition.
func (m *Mux) Drained() bool {
	if m.reqPrev != 0 || m.gntPrev != 0 {
		return false
	}
	for i := range m.ports {
		if m.ports[i].pending.n > 0 || len(m.ports[i].granted) > 0 {
			return false
		}
	}
	return true
}

// Grants returns port i's committed grant count.
func (m *Mux) Grants(i int) uint64 { return m.grants[i] }

// TotalGrants returns the committed grants across all ports.
func (m *Mux) TotalGrants() uint64 {
	var s uint64
	for _, g := range m.grants {
		s += g
	}
	return s
}

// GrantWaits returns the number of grant attempts the bus refused.
func (m *Mux) GrantWaits() uint64 { return m.grantWaits }

// Contentions returns the number of executed ticks on which more than
// one master was requesting — the contention-window count.
func (m *Mux) Contentions() uint64 { return m.contentions }

// Edges returns port i's request+grant wire transition count.
func (m *Mux) Edges(i int) uint64 { return m.edges[i] }

// MasterEnergy returns the arbitration-wire energy attributed to port
// i: its edge count priced at EdgeEnergyJ.
func (m *Mux) MasterEnergy(i int) float64 { return float64(m.edges[i]) * EdgeEnergyJ }

// TotalEnergy returns the arbitration-wire energy of the run. It is
// computed as the port-order sum of MasterEnergy, so the per-master
// attribution telescopes to this total bit-for-bit by construction.
func (m *Mux) TotalEnergy() float64 {
	var s float64
	for i := 0; i < m.n; i++ {
		s += m.MasterEnergy(i)
	}
	return s
}

// ReportMetrics books the mux's run totals into a registry (nil-safe).
func (m *Mux) ReportMetrics(r *metrics.Registry) {
	r.Arbitration(m.TotalGrants(), m.grantWaits, m.contentions, m.TotalEnergy())
}

// Port is one master's view of the arbitrated bus: a core.Initiator
// with the same request/wait/ok/error protocol as the bus models, so
// every master built for a single-master layer drives it unchanged.
type Port struct {
	m *Mux
	i int
}

// Access implements the non-blocking master-side protocol through the
// arbiter. A new transaction is queued for arbitration and answered
// StateWait until granted; the poll after the grant returns
// StateRequest (the acceptance the master is waiting for), and
// subsequent polls delegate to the bus until the terminal state.
func (p *Port) Access(tr *ecbus.Transaction) ecbus.BusState {
	ps := &p.m.ports[p.i]
	if tr.Done {
		// Completed while held here (granted-and-finished between the
		// master's polls, or forwarded straight to a terminal state).
		ps.forget(tr)
		if tr.Err {
			return ecbus.StateError
		}
		return ecbus.StateOK
	}
	if g := ps.find(tr); g >= 0 {
		if !ps.granted[g].told {
			ps.granted[g].told = true
			return ecbus.StateRequest
		}
		st := p.m.bus.Access(tr)
		if st.Done() {
			ps.forget(tr)
		}
		return st
	}
	if !ps.pending.contains(tr) {
		ps.pending.push(tr)
	}
	return ecbus.StateWait
}
