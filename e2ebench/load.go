package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ---- the daemon under test ----

// daemon is one ringserve process started with production defaults: only
// -addr (an ephemeral loopback port) and, in the traced run, -access-log.
type daemon struct {
	cmd      *exec.Cmd
	base     string        // http://host:port
	scanDone chan struct{} // closed when stderr reaches EOF
	mu       sync.Mutex
	stderr   []string
}

func startDaemon(bin string, extra ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	// The daemon must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, scanDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr = append(d.stderr, line)
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.scanDone:
	case <-time.After(30 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("ringserve did not report its address; stderr: %q", d.log())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) log() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.stderr...)
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 20 s, and waits for it.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is fine
	select {
	case <-d.scanDone:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.scanDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("ringserve exit: %w; stderr: %q", err, d.log())
	}
	return nil
}

// ---- /proc readings ----

const clockTicksPerSecond = 100 // USER_HZ on Linux

// procCPU returns the user+system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicksPerSecond, nil
}

// procPeakRSSMB returns the peak resident set (VmHWM) of process pid.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stealTicks returns the machine-wide steal time counter of /proc/stat.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("unexpected /proc/stat")
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ---- the closed-loop client ----

// phase is one closed loop against one daemon: the warm set (no
// deadline) or the timed window.
type phase struct {
	client *http.Client
	base   string
	tag    string // X-Request-Id prefix, so access-log records can be told apart
	// start and deadline bound the timed window; deadline is zero for the
	// warm set.
	start, deadline time.Time
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

func (ph *phase) open() bool { return ph.deadline.IsZero() || time.Now().Before(ph.deadline) }

// tally is what a loop counted. Every request sent is attempted; a
// request is failed when it fails any validity gate. Latency samples are
// kept only for successful sampled requests (appends, for sessions), and
// done counts those that also completed inside the window, the last of
// them at last.
type tally struct {
	attempted, failed, done int
	last                    time.Time
	lat                     []time.Duration
	errs                    []string
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.done += u.done
	if u.last.After(t.last) {
		t.last = u.last
	}
	t.lat = append(t.lat, u.lat...)
	for _, e := range u.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// worker is one connection's closed loop.
type worker struct {
	ph *phase
	t  tally
}

type reply struct {
	status int
	cache  string
	body   []byte
}

// op is one request and the gate its reply must pass beyond status 200.
type op struct {
	method, path string
	body         []byte
	sample       bool
	check        func(reply) error
}

// errClosed stops a unit of work whose window has closed.
var errClosed = errors.New("window closed")

// do sends o unless the window has closed, and records it. It returns
// errClosed, the failure, or nil with the reply.
func (w *worker) do(id string, o op) (reply, error) {
	if !w.ph.open() {
		return reply{}, errClosed
	}
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, w.ph.base+o.path, rd)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", w.ph.tag+id)
	start := time.Now()
	var rep reply
	resp, err := w.ph.client.Do(req)
	if err == nil {
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.status, rep.cache = resp.StatusCode, resp.Header.Get("X-Ringserve-Cache")
	}
	end := time.Now()
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", rep.status, rep.body)
	}
	if err == nil && o.check != nil {
		err = o.check(rep)
	}
	w.t.attempted++
	if err != nil {
		w.t.fail(fmt.Sprintf("%s %s [%s%s]: %v", o.method, o.path, w.ph.tag, id, err))
		return rep, err
	}
	if o.sample {
		w.t.lat = append(w.t.lat, end.Sub(start))
		if w.ph.deadline.IsZero() || !end.After(w.ph.deadline) {
			w.t.done++
			w.t.last = end
		}
	}
	return rep, nil
}

// loop runs unit(0), unit(1), ... on conns connections until the window
// closes or, when n >= 0, n units have started. A unit returning an error
// other than errClosed or a request failure aborts the benchmark.
func (ph *phase) loop(conns, n int, unit func(w *worker, i int) error) (tally, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := make([]*worker, conns)
	errs := make([]error, conns)
	for c := range workers {
		workers[c] = &worker{ph: ph}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ph.open() {
				i := int(next.Add(1)) - 1
				if n >= 0 && i >= n {
					return
				}
				if err := unit(workers[c], i); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var t tally
	for _, w := range workers {
		t.add(w.t)
	}
	return t, errors.Join(errs...)
}
