package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// reaper owns everything a run leaves behind — child processes and temp
// directories — and releases it on every exit path: normal return, a failed
// check, a signal or the watchdog. cleanup is idempotent.
type reaper struct {
	mu       sync.Mutex
	children []*child
	dirs     []string
	done     bool
}

func (r *reaper) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	for _, c := range r.children {
		c.kill()
	}
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

// child is one leedctl process. Its stdout is scanned for the lines that
// announce the addresses it bound; stderr and the rest of stdout are kept
// for the error message should it die early.
type child struct {
	name  string
	cmd   *exec.Cmd
	lines chan string
	mu    sync.Mutex
	out   strings.Builder
	once  sync.Once
	exit  chan struct{}
}

// start launches leedctl with args and registers the process with r.
func (r *reaper) start(leedctl, name string, args ...string) (*child, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return nil, fmt.Errorf("start %s: run is shutting down", name)
	}
	// lines buffers the few announcement lines a child prints at start-up,
	// which come faster than await consumes them; later lines are dropped.
	c := &child{name: name, cmd: exec.Command(leedctl, args...), lines: make(chan string, 64), exit: make(chan struct{})}
	// The kernel kills the child if the benchmark dies without cleaning up.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stderr = &lockedWriter{c}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	r.children = append(r.children, c)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.out.WriteString(line + "\n")
			c.mu.Unlock()
			select {
			case c.lines <- line:
			default: // nobody is waiting for announcements any more
			}
		}
		c.cmd.Wait()
		close(c.exit)
	}()
	return c, nil
}

type lockedWriter struct{ c *child }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.out.Write(p)
}

func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// await returns the first submatch of re in the child's stdout.
func (c *child) await(re *regexp.Regexp, budget time.Duration) (string, error) {
	deadline := time.After(budget)
	for {
		select {
		case line := <-c.lines:
			if m := re.FindStringSubmatch(line); m != nil {
				return m[1], nil
			}
		case <-c.exit:
			return "", fmt.Errorf("%s exited early:\n%s", c.name, c.output())
		case <-deadline:
			return "", fmt.Errorf("%s did not print %q within %v:\n%s", c.name, re, budget, c.output())
		}
	}
}

// kill SIGKILLs the child and waits until it has exited.
func (c *child) kill() {
	c.once.Do(func() {
		c.cmd.Process.Signal(syscall.SIGKILL)
		<-c.exit
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// freeAddr asks the OS for a free loopback port, for the one listener the
// manager and nodes do not announce on stdout (their metrics endpoint).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	at     time.Time
	cpuSec float64 // utime + stime
	sysc   int64   // syscr + syscw
	hwmKB  int64   // VmHWM
}

// clkTck is USER_HZ, 100 on every Linux target Go supports.
const clkTck = 100

func readProc(pid int) (procSample, error) {
	s := procSample{at: time.Now()}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces and parentheses: count fields from
	// the last ')'. utime and stime are fields 14 and 15 of the line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	s.cpuSec = (ut + st) / clkTck
	if b, err = os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ": "); ok && (k == "syscr" || k == "syscw") {
			n, _ := strconv.ParseInt(v, 10, 64)
			s.sysc += n
		}
	}
	if b, err = os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			s.hwmKB, _ = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
		}
	}
	return s, nil
}

// rawMetrics is the subset of a /metrics.raw.json dump the benchmark reads.
type rawMetrics struct {
	Counters map[string]int64 `json:"counters"`
	Hists    map[string]struct {
		N   int64 `json:"n"`
		Sum int64 `json:"sum"`
	} `json:"hists"`
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (rawMetrics, error) {
	var m rawMetrics
	resp, err := httpClient.Get("http://" + addr + "/metrics.raw.json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decode %s metrics: %w", addr, err)
	}
	return m, nil
}

// counter sums every series of a counter family (any label set).
func (m rawMetrics) counter(family string) int64 {
	var n int64
	for k, v := range m.Counters {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += v
		}
	}
	return n
}

// hist sums count and total of every series of a histogram family.
func (m rawMetrics) hist(family string) (n, sum int64) {
	for k, h := range m.Hists {
		if k == family || strings.HasPrefix(k, family+"{") {
			n += h.N
			sum += h.Sum
		}
	}
	return n, sum
}

// newTempDir makes a fresh directory under base, owned by r.
func (r *reaper) newTempDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.dirs = append(r.dirs, d)
	r.mu.Unlock()
	return filepath.Abs(d)
}
