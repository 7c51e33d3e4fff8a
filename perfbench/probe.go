package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On the 2-vCPU development host the median
// thread CPU time of probeWork ranged from 1.3 to 2.1 ms between runs
// a minute apart, and the service's throughput moved with it, by up to
// 1.5× between back-to-back runs of the same code.
// So every end-to-end timing is scaled to a reference host speed: a
// calibration process repeats probeWork throughout the run, and a
// timing measured while the probe's median CPU time was m is reported
// as timing × probeRef / m (a rate as rate × m / probeRef). The probe
// uses the standard library only, none of the repository's code, so a
// change to the program does not change the yardstick.

// probeRef is the probe's reference CPU time, near its median on the
// development host.
const probeRef = 2 * time.Millisecond

// probePeriod is how often the calibration process runs probeWork;
// one probe costs about 1% of a CPU at this period.
const probePeriod = 200 * time.Millisecond

type probeRec struct {
	Name  string
	Vals  []int
	Score float64
}

// probeWork is a fixed mix of allocation-heavy standard-library work:
// JSON round trip, map inserts, a sort and hashing. It is sensitive to
// the same host effects as the daemon's own Go code (clock speed,
// shared caches, memory), which a tight arithmetic loop is not.
func probeWork() int {
	recs := make([]probeRec, 150)
	for i := range recs {
		recs[i] = probeRec{Name: "rec-" + strconv.Itoa(i), Vals: []int{i, i * 3, i * 7, i * 11}, Score: float64(i) / 3}
	}
	b, _ := json.Marshal(recs)
	var back []probeRec
	json.Unmarshal(b, &back)
	m := map[string]int{}
	for i := 0; i < 3000; i++ {
		m["k"+strconv.Itoa(i*7919%10007)] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for i := 0; i < 4; i++ {
		h.Write(b)
	}
	return len(back) + len(keys) + int(h.Sum(nil)[0])
}

// threadCPU returns the calling OS thread's CPU time. Time the thread
// spends waiting for a CPU does not count, so the probe measures how
// fast the host runs, not how busy the benchmark keeps it.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// runProbe is the calibration process: it runs probeWork every
// probePeriod on one locked thread and prints each run's CPU time in
// nanoseconds, until its parent closes its standard input.
func runProbe() {
	runtime.LockOSThread()
	go func() {
		buf := make([]byte, 1)
		os.Stdin.Read(buf)
		os.Exit(0)
	}()
	out := bufio.NewWriter(os.Stdout)
	tick := time.NewTicker(probePeriod)
	for {
		c0 := threadCPU()
		probeWork()
		fmt.Fprintln(out, int64(threadCPU()-c0))
		out.Flush()
		<-tick.C
	}
}

// probeSample is one probe as the benchmark received it.
type probeSample struct {
	at  time.Time
	cpu time.Duration
}

// calibrator runs the calibration process and collects its samples.
type calibrator struct {
	cmd     *exec.Cmd
	stdin   interface{ Close() error }
	mu      sync.Mutex
	samples []probeSample
	done    chan struct{}
}

// startCalibrator starts the calibration process: this program with
// --probe.
func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--probe")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &calibrator{cmd: cmd, stdin: stdin, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			ns, err := strconv.ParseInt(sc.Text(), 10, 64)
			if err != nil {
				continue
			}
			c.mu.Lock()
			c.samples = append(c.samples, probeSample{at: time.Now(), cpu: time.Duration(ns)})
			c.mu.Unlock()
		}
	}()
	return c, nil
}

// stop ends the calibration process and waits for it to be reaped.
// It is idempotent.
func (c *calibrator) stop() {
	if c.stdin == nil {
		return
	}
	c.stdin.Close()
	c.stdin = nil
	select {
	case <-c.done:
	case <-time.After(stopTimeout):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.cmd.Wait()
}

// median returns the median probe CPU time received in [from, to],
// and how many probes that is.
func (c *calibrator) median(from, to time.Time) (time.Duration, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var xs []float64
	for _, s := range c.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			xs = append(xs, float64(s.cpu))
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return time.Duration(median(xs)), len(xs)
}
