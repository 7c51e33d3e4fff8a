package main

import (
	"bytes"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// record is one request as the closed-loop client saw it.
type record struct {
	it     *item
	start  time.Time
	rtt    time.Duration
	status int // 0 when the transport failed
	body   []byte
	cache  string // X-Cache
	err    error
	traced bool
	warmup bool
	// verified is set after the timed window when the body passed
	// verification; only verified records count as served.
	verified bool
}

// source hands each client its next request.
type source interface {
	next(client int) *item
}

// coldSource serves a never-repeating generated stream.
type coldSource struct {
	mu  sync.Mutex
	gen func() *item
}

func (s *coldSource) next(int) *item {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen()
}

// hotSource draws uniformly from a fixed working set, one independent
// seeded draw sequence per client.
type hotSource struct {
	set  []*item
	rngs []*rand.Rand
}

func newHotSource(set []*item, seed uint64, clients int) *hotSource {
	s := &hotSource{set: set}
	for c := 0; c < clients; c++ {
		s.rngs = append(s.rngs, rand.New(rand.NewPCG(seed, uint64(c)+0x407)))
	}
	return s
}

func (s *hotSource) next(client int) *item {
	return s.set[s.rngs[client].IntN(len(s.set))]
}

// loader is the closed-loop load generator: each client sends its next
// request only after the previous one completed.
type loader struct {
	client *http.Client
	mu     sync.Mutex
	recs   []*record
	// bodies is the last body each item was answered with. A body equal
	// to it shares its buffer, so a long hot window holds one copy per
	// key rather than one per response.
	bodies map[*item][]byte
}

func newLoader(clients int) *loader {
	return &loader{bodies: map[*item][]byte{}, client: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients + 1,
			DisableCompression:  true,
		},
	}}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

// send performs one request against d and supervises the daemon: a
// transport failure on a dead process respawns it. The record is
// returned and kept.
func (l *loader) send(d *daemon, it *item, traced bool) *record {
	inc := d.endpoint()
	rec := &record{it: it, traced: traced, start: time.Now()}
	resp, err := l.client.Post(inc.base+it.path, "application/json", bytes.NewReader(it.body))
	if err == nil {
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
		rec.cache = resp.Header.Get("X-Cache")
	}
	rec.rtt = time.Since(rec.start)
	if err != nil {
		rec.err = err
		rec.status = 0
		if rerr := d.recover(inc); rerr != nil {
			rec.err = rerr
		}
	}
	l.mu.Lock()
	if last, ok := l.bodies[it]; ok && bytes.Equal(rec.body, last) {
		rec.body = last
	} else if rec.body != nil {
		l.bodies[it] = rec.body
	}
	l.recs = append(l.recs, rec)
	l.mu.Unlock()
	return rec
}

// phase runs clients closed loops against d until each has sent
// perClient requests (0 = unbounded) or the deadline has passed, and
// returns the phase's wall time from first send to last completion.
func (l *loader) phase(d *daemon, src source, clients, perClient int, deadline time.Time, traced bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; (perClient == 0 || k < perClient) && time.Now().Before(deadline); k++ {
				l.send(d, src.next(c), traced)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// warm sends a fixed request list to d with the given concurrency and
// returns the records in list order.
func (l *loader) warm(d *daemon, list []*item, clients int) []*record {
	out := make([]*record, len(list))
	var wg sync.WaitGroup
	var mu sync.Mutex
	nextIdx := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := nextIdx
				nextIdx++
				mu.Unlock()
				if i >= len(list) {
					return
				}
				out[i] = l.send(d, list[i], false)
				out[i].warmup = true
			}
		}()
	}
	wg.Wait()
	return out
}

func (l *loader) records() []*record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*record(nil), l.recs...)
}
