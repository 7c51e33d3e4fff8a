package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// zeroWork is a compute that finishes as soon as a worker picks it up —
// the shape that exposes any window between a task becoming visible to
// the workers and its admission being counted.
func zeroWork(ran *atomic.Int64) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		ran.Add(1)
		return []byte("ok\n"), nil
	}
}

// TestScheduleZeroWorkStress pushes thousands of distinct zero-work
// tasks through schedule from concurrent callers. Every call must end
// in a body or backpressure, and every admitted task must have run
// exactly once. Under -race, a worker finishing a task before its
// admission was counted panics with a negative WaitGroup counter.
func TestScheduleZeroWorkStress(t *testing.T) {
	// More OS threads than CPUs: an admitting goroutine's thread can be
	// descheduled right after its send while a worker thread runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := New(Options{Workers: 8, QueueDepth: 16, CacheEntries: 64})
	defer s.Close()
	const callers, perCaller = 16, 500
	var ran, ok, busy atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				key := fmt.Sprintf("stress/%d/%d", c, i)
				body, _, status, err := s.schedule(context.Background(), "estimate", key, 0, zeroWork(&ran))
				switch {
				case status == 0 && err == nil && string(body) == "ok\n":
					ok.Add(1)
				case status == http.StatusTooManyRequests:
					busy.Add(1)
				default:
					t.Errorf("%s: status %d err %v body %q", key, status, err, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ok.Load()+busy.Load() != callers*perCaller {
		t.Fatalf("%d ok + %d busy of %d calls", ok.Load(), busy.Load(), callers*perCaller)
	}
	if ran.Load() != ok.Load() {
		t.Fatalf("%d computes ran for %d admitted tasks", ran.Load(), ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no task was admitted")
	}
}

// TestCloseDuringAdmission races Close against concurrent admission:
// each call ends in a body, 429 or 503, and when Close returns every
// admitted task has already run — none is left in the queue.
func TestCloseDuringAdmission(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for round := 0; round < 20; round++ {
		s := New(Options{Workers: 2, QueueDepth: 4, CacheEntries: 16})
		var ran, ok atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					key := fmt.Sprintf("close/%d/%d/%d", round, c, i)
					_, _, status, err := s.schedule(context.Background(), "estimate", key, 0, zeroWork(&ran))
					switch status {
					case 0:
						if err != nil {
							t.Errorf("%s: admitted but failed: %v", key, err)
						}
						ok.Add(1)
					case http.StatusTooManyRequests:
					case http.StatusServiceUnavailable:
						return // draining: later calls are refused too
					default:
						t.Errorf("%s: status %d err %v", key, status, err)
						return
					}
				}
			}(c)
		}
		close(start)
		s.Close()
		ranAtClose := ran.Load()
		wg.Wait()
		if ran.Load() != ranAtClose {
			t.Fatalf("round %d: %d tasks ran after Close returned", round, ran.Load()-ranAtClose)
		}
		if ran.Load() != ok.Load() {
			t.Fatalf("round %d: %d computes ran for %d admitted tasks", round, ran.Load(), ok.Load())
		}
	}
}

// TestAsyncJobHandleWhileFinishing admits zero-work async jobs, whose
// waiter goroutine finishes the job while the 202 handle is still being
// encoded. Under -race, encoding the live job instead of a copy taken
// under the registry lock is reported as a data race.
func TestAsyncJobHandleWhileFinishing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := New(Options{Workers: 8, QueueDepth: 64, CacheEntries: 64})
	defer s.Close()
	var ran atomic.Int64
	for i := 0; i < 2000; i++ {
		rec := httptest.NewRecorder()
		s.startJob(rec, "sweep", fmt.Sprintf("job/%d", i), 0, zeroWork(&ran))
		if rec.Code == http.StatusTooManyRequests {
			continue
		}
		var job Job
		if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &job) != nil || job.ID == "" {
			t.Fatalf("job %d: status %d body %q", i, rec.Code, rec.Body.Bytes())
		}
	}
}
