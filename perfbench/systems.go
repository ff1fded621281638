package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"time"

	"leed/internal/cluster"
	"leed/internal/cluster/proc"
	"leed/internal/obs"
	"leed/internal/power"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
)

// system is the program under test as child processes: one `leedctl serve
// -listen` or a `leedctl manager` with three `leedctl node`s.
type system struct {
	env     *wallclock.Env
	procs   []*child // server-side processes
	metrics []string // their metrics addresses, parallel to procs
	addr    string   // serve: RPC address; cluster: manager heartbeat address
	cluster bool
}

var (
	reMetrics = regexp.MustCompile(`^metrics on http://([^/]+)/metrics`)
	reServing = regexp.MustCompile(`^serving .* on (\S+): `)
	reManager = regexp.MustCompile(`^leed manager listening on (\S+)`)
	reNode    = regexp.MustCompile(`^leed node \d+ serving on (\S+)`)
)

const startBudget = 30 * time.Second

// startServe launches `leedctl serve -listen` on a fresh image of
// capacity bytes.
func startServe(r *reaper, env *wallclock.Env, leedctl, dir string, n int, capacity int64) (*system, error) {
	img := filepath.Join(dir, fmt.Sprintf("serve-%d.img", n))
	c, err := r.start(leedctl, "serve", "-image", img, "-capacity", fmt.Sprint(capacity),
		"-listen", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "serve")
	if err != nil {
		return nil, err
	}
	m, err := c.await(reMetrics, startBudget)
	if err != nil {
		return nil, err
	}
	addr, err := c.await(reServing, startBudget)
	if err != nil {
		return nil, err
	}
	return &system{env: env, procs: []*child{c}, metrics: []string{m}, addr: addr}, nil
}

// startCluster launches a manager and three nodes (R = 3 chains) and waits
// until the view shows all three RUNNING.
func startCluster(t runtime.Task, r *reaper, env *wallclock.Env, leedctl string) (*system, error) {
	mm, err := freeAddr()
	if err != nil {
		return nil, err
	}
	mgr, err := r.start(leedctl, "manager", "manager", "-listen", "127.0.0.1:0", "-metrics-addr", mm)
	if err != nil {
		return nil, err
	}
	addr, err := mgr.await(reManager, startBudget)
	if err != nil {
		return nil, err
	}
	s := &system{env: env, procs: []*child{mgr}, metrics: []string{mm}, addr: addr, cluster: true}
	for id := 1; id <= 3; id++ {
		nm, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := r.start(leedctl, fmt.Sprintf("node %d", id), "node", "-id", fmt.Sprint(id),
			"-listen", "127.0.0.1:0", "-manager", addr, "-metrics-addr", nm, "-hb-interval", "25ms")
		if err != nil {
			return nil, err
		}
		if _, err := c.await(reNode, startBudget); err != nil {
			return nil, err
		}
		s.procs = append(s.procs, c)
		s.metrics = append(s.metrics, nm)
	}
	cl := proc.NewClient(proc.ClientConfig{Env: env, Manager: addr})
	defer cl.Close()
	deadline := t.Now() + runtime.Time(startBudget)
	for t.Now() < deadline {
		if cl.Refresh(t) == nil && allRunning(cl.View(), 3) {
			return s, nil
		}
		t.Sleep(10 * runtime.Millisecond)
	}
	return nil, fmt.Errorf("cluster: 3 RUNNING nodes not seen within %v", startBudget)
}

func allRunning(v *cluster.View, n int) bool {
	if v == nil || len(v.States) != n {
		return false
	}
	for _, st := range v.States {
		if st != cluster.StateRunning {
			return false
		}
	}
	return true
}

// clients dials n clients; with a tracer every request they send is
// sampled.
func (s *system) clients(n int, tr *obs.Tracer) ([]kv, error) {
	out := make([]kv, 0, n)
	for i := 0; i < n; i++ {
		if s.cluster {
			out = append(out, procKV{proc.NewClient(proc.ClientConfig{Env: s.env, Manager: s.addr, Tracer: tr})})
			continue
		}
		conn, err := transport.DialTCP(s.env, s.addr)
		if err != nil {
			closeAll(out)
			return nil, fmt.Errorf("dial %s: %w", s.addr, err)
		}
		out = append(out, &srvKV{c: server.NewClient(s.env, conn, outstanding), tr: tr})
	}
	return out, nil
}

func closeAll(cs []kv) {
	for _, c := range cs {
		c.Close()
	}
}

func (s *system) stop() {
	for _, c := range s.procs {
		c.kill()
	}
}

// meter measures the server-side processes over consecutive intervals:
// /proc counters, metrics counters, and energy from internal/power's
// process model with its default constants, fed each process's wall time,
// CPU time and device operations.
type meter struct {
	s      *system
	last   []sample
	host   hostCPU
	at     runtime.Time // driver clock at the last reading
	meters []*power.ProcessMeter
	regs   []*obs.Registry
	cpu    []float64
}

type sample struct {
	proc    procSample
	metrics rawMetrics
}

func (s *system) read() ([]sample, error) {
	out := make([]sample, len(s.procs))
	for i, c := range s.procs {
		p, err := readProc(c.pid())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		m, err := scrape(s.metrics[i])
		if err != nil {
			return nil, fmt.Errorf("%s metrics: %w", c.name, err)
		}
		out[i] = sample{p, m}
	}
	return out, nil
}

// own reports whether process i's metrics are its own. The manager's
// endpoint serves the fleet merge of every member instead.
func (s *system) own(i int) bool { return !s.cluster || i > 0 }

var devOps = []string{"leed_device_reads_total", "leed_device_writes_total"}

// meter starts measuring now.
func (s *system) meter() (*meter, error) {
	last, err := s.read()
	if err != nil {
		return nil, err
	}
	m := &meter{s: s, cpu: make([]float64, len(last)), host: readHostCPU(), at: s.env.Now()}
	m.arm(last)
	return m, nil
}

// arm starts one energy meter per process at the readings in last.
func (m *meter) arm(last []sample) {
	m.last, m.meters, m.regs = last, m.meters[:0], m.regs[:0]
	for i := range last {
		i := i
		m.cpu[i] = last[i].proc.cpuSec
		reg := obs.NewRegistry()
		if m.s.own(i) {
			for _, f := range devOps {
				reg.Counter(f).Add(last[i].metrics.counter(f))
			}
		}
		m.regs = append(m.regs, reg)
		m.meters = append(m.meters, power.NewProcessMeter(reg, power.ProcessConfig{
			Interval: -1,
			ReadCPU:  func() (float64, bool) { return m.cpu[i], true },
		}))
	}
}

// delta is what the server-side processes did during one interval.
type delta struct {
	wall     float64      // seconds
	from, to runtime.Time // the interval on the driver clock
	steal    float64      // the host's CPU steal, share of all CPU time
	ops      int64        // operations the driver completed
	cpuSec   float64
	sysc     int64
	joules   float64
	fleetJ   float64          // cluster: change of the manager's fleet-merged energy
	hwmKB    int64            // peak resident memory, summed
	counter  map[string]int64 // device counters, summed
	queueN   int64            // device queue waits observed
	queueNS  int64            // and their total, ns
	gets     []int64          // GETs served, per process with own metrics
}

// next ends the current interval and starts the next one.
func (m *meter) next() (delta, error) {
	b, err := m.s.read()
	if err != nil {
		return delta{}, err
	}
	d := delta{wall: b[0].proc.at.Sub(m.last[0].proc.at).Seconds(), counter: map[string]int64{}}
	host := readHostCPU()
	d.steal = host.stealSince(m.host)
	d.from, d.to = m.at, m.s.env.Now()
	m.host, m.at = host, d.to
	for i := range b {
		pa, pb := m.last[i], b[i]
		d.cpuSec += pb.proc.cpuSec - pa.proc.cpuSec
		d.sysc += pb.proc.sysc - pa.proc.sysc
		d.hwmKB += pb.proc.hwmKB
		m.cpu[i] = pb.proc.cpuSec
		if m.s.own(i) {
			for _, f := range devOps {
				m.regs[i].Counter(f).Add(pb.metrics.counter(f) - pa.metrics.counter(f))
			}
			for _, f := range append(devOps, "leed_device_written_bytes_total") {
				d.counter[f] += pb.metrics.counter(f) - pa.metrics.counter(f)
			}
			bn, bs := pb.metrics.hist("leed_device_queue_wait_ns")
			an, as := pa.metrics.hist("leed_device_queue_wait_ns")
			d.queueN, d.queueNS = d.queueN+bn-an, d.queueNS+bs-as
			get := `leed_server_requests_total{op="GET"}`
			d.gets = append(d.gets, pb.metrics.counter(get)-pa.metrics.counter(get))
		}
		m.meters[i].Sample()
		d.joules += float64(m.regs[i].Raw().Counters["leed_power_millijoules_total"]) / 1e3
	}
	if m.s.cluster {
		f := "leed_power_millijoules_total"
		d.fleetJ = float64(b[0].metrics.counter(f)-m.last[0].metrics.counter(f)) / 1e3
	}
	m.arm(b)
	return d, nil
}

// sampled runs fn, which should last n intervals of length every, while
// a goroutine measures the system at the end of each interval but the
// last; the last ends when fn returns. done counts the driver's completed
// operations.
func (s *system) sampled(n int, every time.Duration, done *atomic.Int64, fn func()) ([]delta, error) {
	m, err := s.meter()
	if err != nil {
		return nil, err
	}
	var out []delta
	prev := done.Load()
	step := func() error {
		d, err := m.next()
		if err != nil {
			return err
		}
		cur := done.Load()
		d.ops, prev = cur-prev, cur
		out = append(out, d)
		return nil
	}
	start := time.Now()
	var serr error
	fin := make(chan struct{})
	go func() {
		defer close(fin)
		for k := 1; k < n && serr == nil; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * every)))
			serr = step()
		}
	}()
	fn()
	<-fin
	if serr != nil {
		return nil, serr
	}
	return out, step()
}

// total folds intervals into one.
func total(ds []delta) delta {
	t := delta{counter: map[string]int64{}}
	for _, d := range ds {
		t.wall += d.wall
		t.ops += d.ops
		t.cpuSec += d.cpuSec
		t.sysc += d.sysc
		t.joules += d.joules
		t.fleetJ += d.fleetJ
		t.hwmKB = d.hwmKB
		t.queueN += d.queueN
		t.queueNS += d.queueNS
		for k, v := range d.counter {
			t.counter[k] += v
		}
		if t.gets == nil {
			t.gets = make([]int64, len(d.gets))
		}
		for i, g := range d.gets {
			t.gets[i] += g
		}
	}
	return t
}
