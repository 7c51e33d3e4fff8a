package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon supervises one ecserved child process. A daemon that dies is
// respawned on the next request that notices, once per incarnation, and
// counted in restarts; its last stderr lines are kept as the crash
// reason.
type daemon struct {
	bin     string
	gctrace bool

	mu       sync.Mutex
	inc      *incarnation
	restarts int
	crashes  []string // first panic line of every incarnation that died
	stopped  bool

	gcLines atomic.Int64 // gctrace lines seen across incarnations
	log     *os.File
}

// incarnation is one spawned process of a daemon.
type incarnation struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process has been reaped
	mu     sync.Mutex
	tail   []string // last stderr lines
}

const (
	spawnTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
)

func newDaemon(bin, name, logDir string, gctrace bool) (*daemon, error) {
	path := filepath.Join(logDir, "daemon-"+name+".log")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	d := &daemon{bin: bin, gctrace: gctrace, log: f}
	if err := d.spawnLocked(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// spawnLocked starts a fresh incarnation on a random port with default
// options and waits until /healthz answers. d.mu is held or d is not
// yet shared.
func (d *daemon) spawnLocked() error {
	cmd := exec.Command(d.bin, "-addr", "127.0.0.1:0")
	cmd.Env = os.Environ()
	if d.gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// The child never outlives the benchmark, even if the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.bin, err)
	}
	inc := &incarnation{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "ecserved: listening on "); ok {
				select {
				case addr <- u:
				default:
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "gc ") {
				d.gcLines.Add(1)
			}
			fmt.Fprintln(d.log, line)
			inc.mu.Lock()
			if len(inc.tail) == 64 {
				inc.tail = inc.tail[1:]
			}
			inc.tail = append(inc.tail, line)
			inc.mu.Unlock()
		}
	}()
	go func() {
		readers.Wait()
		cmd.Wait()
		close(inc.exited)
	}()

	select {
	case inc.base = <-addr:
	case <-inc.exited:
		return fmt.Errorf("%s exited before listening: %s", d.bin, inc.reason())
	case <-time.After(spawnTimeout):
		inc.kill()
		return fmt.Errorf("%s did not report its address within %v", d.bin, spawnTimeout)
	}
	if err := waitHealthy(inc); err != nil {
		inc.kill()
		return err
	}
	d.inc = inc
	return nil
}

func waitHealthy(inc *incarnation) error {
	deadline := time.Now().Add(spawnTimeout)
	for {
		resp, err := http.Get(inc.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-inc.exited:
			return fmt.Errorf("daemon exited before /healthz answered: %s", inc.reason())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy within %v", inc.base, spawnTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reason is the first panic or fatal line of a dead incarnation's
// stderr, or its exit status.
func (inc *incarnation) reason() string {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for _, l := range inc.tail {
		if strings.HasPrefix(l, "panic:") || strings.HasPrefix(l, "fatal error:") {
			return l
		}
	}
	if inc.cmd.ProcessState != nil {
		return inc.cmd.ProcessState.String()
	}
	return "unknown"
}

func (inc *incarnation) kill() {
	inc.cmd.Process.Kill()
	<-inc.exited
}

// endpoint returns the current incarnation's base URL.
func (d *daemon) endpoint() *incarnation {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inc
}

// recover is called after a request to inc failed at the transport. If
// the process has died it is respawned, once however many clients
// noticed. A live process is left alone.
func (d *daemon) recover(inc *incarnation) error {
	select {
	case <-inc.exited:
	case <-time.After(2 * time.Second):
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inc != inc {
		return nil // another client already respawned it
	}
	d.restarts++
	d.crashes = append(d.crashes, inc.reason())
	return d.spawnLocked()
}

// stop terminates the current incarnation gracefully (SIGTERM drains
// it) and waits for it to be reaped, killing it if it hangs.
// It is idempotent.
func (d *daemon) stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	d.stopped = true
	if inc := d.inc; inc != nil {
		inc.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-inc.exited:
		case <-time.After(stopTimeout):
			inc.kill()
		}
	}
	d.log.Close()
}

// vmHWMMB reads the current incarnation's peak resident set size.
func (d *daemon) vmHWMMB() (float64, error) {
	inc := d.endpoint()
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", inc.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil || len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// watchRSS polls the daemon's peak resident set size until the returned
// stop is called, which returns the highest reading. A respawned
// incarnation starts a new high-water mark, so the maximum over polls
// covers every incarnation that served the window.
func watchRSS(d *daemon) (stop func() (float64, error)) {
	done := make(chan struct{})
	result := make(chan float64, 1)
	go func() {
		peak := 0.0
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := d.vmHWMMB(); err == nil {
				peak = max(peak, mb)
			}
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		peak := <-result
		mb, err := d.vmHWMMB()
		if err != nil {
			return 0, err
		}
		return max(peak, mb), nil
	}
}

// serveCounters are the /metricz counters the benchmark reads.
type serveCounters struct {
	hit, dedup, miss, evicted, computes, failures, rej429, rej503 uint64
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{a.hit - b.hit, a.dedup - b.dedup, a.miss - b.miss, a.evicted - b.evicted,
		a.computes - b.computes, a.failures - b.failures, a.rej429 - b.rej429, a.rej503 - b.rej503}
}

func (a serveCounters) add(b serveCounters) serveCounters {
	return serveCounters{a.hit + b.hit, a.dedup + b.dedup, a.miss + b.miss, a.evicted + b.evicted,
		a.computes + b.computes, a.failures + b.failures, a.rej429 + b.rej429, a.rej503 + b.rej503}
}

// metricz scrapes the incarnation's /metricz text table.
func (inc *incarnation) metricz() (serveCounters, error) {
	var c serveCounters
	resp, err := http.Get(inc.base + "/metricz")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return c, err
	}
	fields := map[string]*uint64{
		"cache.hit": &c.hit, "cache.dedup": &c.dedup, "cache.miss": &c.miss, "cache.evicted": &c.evicted,
		"compute.runs": &c.computes, "compute.failures": &c.failures,
		"backpressure.429": &c.rej429, "backpressure.503": &c.rej503,
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		for _, kv := range f[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if p := fields[f[0]+"."+k]; ok && p != nil {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return c, fmt.Errorf("metricz: bad %s value %q", k, v)
				}
				*p = n
				found++
			}
		}
	}
	if found != len(fields) {
		return c, fmt.Errorf("metricz: found %d of %d counters in %q", found, len(fields), body)
	}
	return c, nil
}
