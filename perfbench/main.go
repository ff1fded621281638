// Command perfbench is the repository's benchmark: it builds nothing
// itself (run.sh builds it and leedctl), starts the program under test as
// `leedctl` child processes on ports the OS chooses, drives one named YCSB
// workload at it from this process, checks every value read against the
// versions it wrote, and prints the metrics as one JSON line.
//
//	perfbench --workload server-read-mostly --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 the
// per-layer metrics (see README.md for the map between them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/ycsb"
)

// workload is one traffic mix against one deployment.
type workload struct {
	name    string
	mix     ycsb.Workload
	cluster bool
	// rate is the open-loop arrival rate, ops/s: about a tenth of the
	// closed-loop throughput on the reference host, so that the open loop
	// stays clear of saturation while the host steals CPU (README).
	rate float64
	// image is the size of every serve image and of the ladder's image.
	// YCSB-A wedges a 64 MiB image now and then (README), so the
	// write-heavy workload runs on 256 MiB.
	image int64
}

var workloads = []workload{
	{"server-read-mostly", ycsb.WorkloadB, false, 6000, 64 << 20},
	{"server-write-heavy", ycsb.WorkloadA, false, 3000, 256 << 20},
	{"cluster-read-mostly", ycsb.WorkloadB, true, 3000, 64 << 20},
}

// rounds is how many times an untraced run sets a system up from nothing
// and measures it. Every metric is a median over rounds, so one slow
// system or one burst of host CPU steal moves no metric.
const rounds = 7

type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool
	leedctl string
	tmp     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// procs is GOMAXPROCS of the driver and of every child. The driver's
// tasks run one at a time under the wallclock runtime lock, and so do the
// store's in every child, so a second P adds only lock hand-offs between
// threads and idle spinning. On a 2-core host that spinning takes CPU from
// the other processes, and whether the Go scheduler spins or parks
// flipped runs between two regimes of latency and CPU per op (README).
const procs = 1

// runTimeout bounds a whole run; on expiry the children are reaped and the
// run exits non-zero.
const runTimeout = 170 * time.Second

func main() {
	var cfg config
	name := flag.String("workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.leedctl, "leedctl", ".bench_build/bin/leedctl", "leedctl binary under test")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory for images")
	flag.Parse()
	cfg.trace = *trace == 1
	for _, w := range workloads {
		if w.name == *name {
			cfg.w = w
		}
	}
	if cfg.w.name == "" || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s) and --seconds >= 1\n", workloadNames())
		os.Exit(2)
	}

	// A reader that goes away must not kill the run before it cleans up.
	signal.Ignore(syscall.SIGPIPE)
	r := &reaper{}
	exit := func(code int) {
		r.cleanup()
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		r.cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: stopped by %v\n", s)
		exit(1)
	}()
	time.AfterFunc(runTimeout, func() {
		r.cleanup()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runTimeout)
		exit(1)
	})

	// The driver keeps every operation's history in memory; fewer
	// collections keep its own pauses out of the measured latencies.
	debug.SetGCPercent(400)
	goruntime.GOMAXPROCS(procs)
	stamp(cfg)
	res, err := run(r, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil { // a NaN or an infinity from an interval with no operations
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		exit(1)
	}
	r.cleanup()
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// stamp prints what a reader needs to compare runs across hosts.
func stamp(cfg config) {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("host: commit=%s%s go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		commit, modified, goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU(), cpu)
}

// run executes one run inside a wallclock runtime of its own.
func run(r *reaper, cfg config) (result, error) {
	dir, err := r.newTempDir(cfg.tmp)
	if err != nil {
		return result{}, err
	}
	env := wallclock.New()
	var res result
	var runErr error
	env.Spawn("perfbench", func(t runtime.Task) {
		if cfg.trace {
			res, runErr = traced(t, r, env, cfg, dir)
		} else {
			res, runErr = measure(t, r, env, cfg, dir)
		}
	})
	env.Wait()
	return res, runErr
}

func (cfg config) start(t runtime.Task, r *reaper, env *wallclock.Env, dir string, n int, cluster bool) (*system, error) {
	if cluster {
		return startCluster(t, r, env, cfg.leedctl)
	}
	return startServe(r, env, cfg.leedctl, dir, n, cfg.w.image)
}

func (cfg config) gen(phase int64) *ycsb.Generator {
	return ycsb.NewGenerator(cfg.w.mix, records, ValueLen, cfg.seed*10+phase)
}

// Window shares of --seconds: the closed loop, then the open loop. Both
// are cut into intervals, and the metrics come from the calm ones, in
// which the shared host stole the least CPU.
func (cfg config) windows() (closed, open runtime.Time) {
	total := runtime.Time(cfg.seconds) * runtime.Second
	return total / 3, total * 2 / 3
}

const (
	warmup       = runtime.Second / 2
	closedPieces = 8
	openPieces   = 6
)

// measure is the untraced run: `rounds` rounds, each on a system set up
// from nothing. A round times its set-up, warms up, runs its share of the
// closed-loop window and then of the open-loop window, reads every record
// back, checks the history and tears the system down. Each phase's
// operation stream continues from round to round. Giving each round a
// fresh system bounds the writes one image takes (see README on the
// write-heavy fault).
//
// Each metric is the median over rounds of the round's value over its calm
// intervals, those in which the shared host stole the least CPU (README).
func measure(t runtime.Task, r *reaper, env *wallclock.Env, cfg config, dir string) (result, error) {
	var n counts
	var setupS, rssMB []float64
	var viol []Violation
	var rc, ro [][]delta // each round's closed and open intervals
	var smp samples
	var nprocs int
	closedDur, openDur := cfg.windows()
	closedDur, openDur = closedDur/rounds, openDur/rounds
	genW, genC, genO := cfg.gen(0), cfg.gen(1), cfg.gen(2)
	round := func(i int) error {
		t0 := time.Now()
		s, err := cfg.start(t, r, env, dir, i, cfg.w.cluster)
		if err != nil {
			return err
		}
		defer s.stop()
		cls, err := s.clients(issuers, nil)
		if err != nil {
			return err
		}
		defer closeAll(cls)
		d := &driver{env: env, hist: NewHistory(records), n: &n}
		if err := d.preload(t, cls); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())

		d.closed(t, cls, genW, warmup, nil)
		c, err := s.sampled(closedPieces, time.Duration(closedDur/closedPieces), &n.completed, func() {
			d.closed(t, cls, genC, closedDur, nil)
		})
		if err != nil {
			return err
		}
		o, err := s.sampled(openPieces, time.Duration(openDur/openPieces), &n.completed, func() {
			d.open(t, cls, genO, cfg.w.rate, openDur, &smp)
		})
		if err != nil {
			return err
		}
		rc, ro = append(rc, c), append(ro, o)
		nprocs = len(s.procs)
		rssMB = append(rssMB, float64(o[len(o)-1].hwmKB)/1024)
		tc := total(c)
		fmt.Printf("  round %d: set-up %.2f s; closed %.0f ops/s, host steal %.1f%%; open at %.0f ops/s, GET p50 %.1f us, host steal %.1f%%\n",
			i, setupS[i], float64(tc.ops)/tc.wall, meanSteal(c),
			cfg.w.rate, float64(quantile(within(smp.get, o), 0.5))/1e3, meanSteal(o))
		d.readBack(t, cls)
		viol = append(viol, d.hist.Check()...)
		return nil
	}
	for i := 0; i < rounds; i++ {
		if err := round(i); err != nil {
			return result{}, err
		}
	}

	// Per round, over its calm intervals: closed-loop rates, and the
	// open loop's CPU per op and p50s. Rates are totals over the calm
	// intervals, not medians: /proc counts CPU time in 10 ms ticks, a few
	// percent of one interval's.
	var thr, rpj, cpu, getP50, putP50 []float64
	var calmC, calmO, getN, putN int
	limC, limO := calmLimit(slices.Concat(rc...)), calmLimit(slices.Concat(ro...))
	for i := range rc {
		if cc := calmOf(rc[i], limC); len(cc) > 0 {
			tc := total(cc)
			thr = append(thr, float64(tc.ops)/tc.wall)
			rpj = append(rpj, float64(tc.ops)/tc.joules)
			calmC += len(cc)
		}
		co := calmOf(ro[i], limO)
		if len(co) == 0 {
			continue
		}
		to := total(co)
		cpu = append(cpu, to.cpuSec*1e6/float64(to.ops))
		g, p := within(smp.get, co), within(smp.put, co)
		getP50, putP50 = append(getP50, float64(quantile(g, 0.5))/1e3), append(putP50, float64(quantile(p, 0.5))/1e3)
		getN, putN, calmO = getN+len(g), putN+len(p), calmO+len(co)
	}
	if cfg.w.cluster {
		if err := crossCheck(total(slices.Concat(rc...))); err != nil {
			return result{}, err
		}
	}

	m := map[string]metric{}
	add := func(name, unit string, v []float64, note string) {
		m[name] = metric{median64(v), unit}
		fmt.Printf("  %-20s %12.3f %-6s median of %d rounds, %s\n", name, m[name].Value, unit, len(v), note)
	}
	closedNote := fmt.Sprintf("%d calm of %d intervals", calmC, rounds*closedPieces)
	openNote := fmt.Sprintf("%d calm of %d intervals", calmO, rounds*openPieces)
	add("setup_s", "s", setupS, "children started through preload")
	add("throughput", "ops/s", thr, closedNote)
	add("requests_per_joule", "req/J", rpj, closedNote)
	add("get_p50_us", "us", getP50, fmt.Sprintf("n=%d in %s", getN, openNote))
	add("put_p50_us", "us", putP50, fmt.Sprintf("n=%d in %s", putN, openNote))
	add("cpu_us_per_op", "us", cpu, openNote)
	add("server_rss_mb", "MB", rssMB, fmt.Sprintf("VmHWM summed over %d processes", nprocs))
	// Only the medians are gated. The tails are printed: they move with
	// the host's CPU steal by more than any usable bound (README).
	for _, p := range []struct {
		op string
		l  lats
	}{{"get", smp.get}, {"put", smp.put}} {
		c := within(p.l, calmOf(slices.Concat(ro...), limO))
		for _, q := range []float64{0.9, 0.99} {
			if tailOK(len(c), q) {
				fmt.Printf("  (%s_p%.0f %.3f us over the calm intervals, n=%d)\n", p.op, 100*q, float64(quantile(c, q))/1e3, len(c))
			}
		}
	}
	return finish(&n, viol, m), nil
}

// hostCPU is the machine's CPU time so far, in clock ticks: steal, the
// time the hypervisor gave this machine's CPUs to other guests, and all
// CPU time including idle and steal.
type hostCPU struct{ steal, all float64 }

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already in user
			h.all += x
		}
		if i == 7 {
			h.steal = x
		}
	}
	return h
}

// stealSince returns the share of CPU time stolen between then and h.
func (h hostCPU) stealSince(then hostCPU) float64 {
	if h.all == then.all {
		return 0
	}
	return (h.steal - then.steal) / (h.all - then.all)
}

// meanSteal returns the mean host CPU steal of the intervals ds, percent.
func meanSteal(ds []delta) float64 {
	var sum float64
	for _, d := range ds {
		sum += d.steal
	}
	return 100 * sum / float64(len(ds))
}

// calmLimit returns the median host CPU steal of the intervals ds. The
// calm intervals are those at or below it: at least half of them, and all
// of them on a quiet host.
func calmLimit(ds []delta) float64 {
	st := make([]float64, len(ds))
	for i, d := range ds {
		st[i] = d.steal
	}
	return median64(st)
}

// calmOf returns the intervals of ds whose steal is at most limit.
func calmOf(ds []delta, limit float64) []delta {
	var out []delta
	for _, d := range ds {
		if d.steal <= limit {
			out = append(out, d)
		}
	}
	return out
}

// within returns, sorted, the latencies of l whose operations completed
// inside one of the intervals ds, which are in time order.
func within(l lats, ds []delta) []int64 {
	var out []int64
	k := 0
	for i, at := range l.at {
		for k < len(ds) && int64(ds[k].to) <= at {
			k++
		}
		if k == len(ds) {
			break
		}
		if int64(ds[k].from) <= at {
			out = append(out, l.ns[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// crossCheck compares the modeled Joules of the cluster's processes with
// the change of the manager's fleet-merged energy counter over the same
// window; both come from the same model, so they must roughly agree. The
// nodes' meters publish every 500 ms and the manager scrapes them every
// 250 ms, so windows shorter than crossCheckMin are only printed.
func crossCheck(d delta) error {
	ratio := d.fleetJ / d.joules
	fmt.Printf("  energy cross-check: modeled %.2f J, fleet-merged %.2f J (ratio %.3f)\n", d.joules, d.fleetJ, ratio)
	if d.wall >= crossCheckMin && (ratio < 0.5 || ratio > 2) {
		return fmt.Errorf("fleet-merged energy %.2f J disagrees with the modeled %.2f J", d.fleetJ, d.joules)
	}
	return nil
}

const crossCheckMin = 3 // seconds

func finish(n *counts, viol []Violation, m map[string]metric) result {
	fmt.Printf("  ops attempted=%d failed=%d (gets=%d puts=%d, store-ERR PUT retries=%d), violations=%d\n",
		n.attempted, n.failed, n.gets, n.puts, n.putRetries, len(viol))
	for i, v := range viol {
		if i == 10 {
			fmt.Printf("  ... %d more violations\n", len(viol)-i)
			break
		}
		fmt.Println("  VIOLATION", v)
	}
	return result{Correct: len(viol) == 0, Attempted: n.attempted, Failed: n.failed, Metrics: m}
}

// perLayer lists the traced mode's metrics and their units.
var perLayer = []struct{ name, unit string }{
	{"core.get_ns", "ns"}, {"core.put_ns", "ns"}, {"core.put_allocs", "count"},
	{"core.compactions_per_kput", "count"}, {"core.relocated_items_per_kput", "count"},
	{"engine.get_ns", "ns"}, {"engine.put_ns", "ns"}, {"engine.queue_us", "us"},
	{"flashsim.writes_per_put", "count"}, {"flashsim.write_amp", "ratio"}, {"flashsim.reads_per_get", "count"},
	{"flashsim.read_service_us", "us"}, {"flashsim.write_service_us", "us"}, {"flashsim.queue_us", "us"},
	{"server.get_ns", "ns"}, {"server.put_ns", "ns"}, {"server.get_allocs", "count"}, {"server.put_allocs", "count"},
	{"transport.get_ns", "ns"}, {"transport.syscalls_per_op", "count"},
	{"cluster.get_ns", "ns"}, {"cluster.put_ns", "ns"}, {"cluster.fwd_us", "us"}, {"cluster.read_spread", "ratio"},
	{"trace.cover", "ratio"}, {"trace.overhead", "ratio"}, {"loadgen.late_p99_us", "us"},
	{"loadgen.put_retries_per_kput", "count"},
}

// traced is the per-layer run: the workload's system untraced and traced
// in closed loop, the open loop for the generator's lateness, then the
// ladder through every layer, with every output checked.
func traced(t runtime.Task, r *reaper, env *wallclock.Env, cfg config, dir string) (result, error) {
	var n counts
	sys, err := cfg.start(t, r, env, dir, 0, cfg.w.cluster)
	if err != nil {
		return result{}, err
	}
	cls, err := sys.clients(issuers, nil)
	if err != nil {
		return result{}, err
	}
	defer closeAll(cls)
	d := &driver{env: env, hist: NewHistory(records), n: &n}
	if err := d.preload(t, cls); err != nil {
		return result{}, err
	}
	closedDur, openDur := cfg.windows()
	closedDur, openDur = closedDur/3, openDur/3
	d.closed(t, cls, cfg.gen(0), warmup, nil)
	out := map[string]float64{}

	gets0, puts0, retries0 := n.gets, n.puts, n.putRetries
	iu, err := sys.sampled(1, time.Duration(closedDur), &n.completed, func() {
		d.closed(t, cls, cfg.gen(1), closedDur, nil)
	})
	if err != nil {
		return result{}, err
	}
	du := iu[0]
	getsU, putsU := n.gets-gets0, n.puts-puts0
	out["loadgen.put_retries_per_kput"] = float64(n.putRetries-retries0) / (float64(putsU) / 1e3)
	out["transport.syscalls_per_op"] = float64(du.sysc) / float64(du.ops)

	tr := obs.NewTracer(nil, 0, 0)
	tcls, err := sys.clients(issuers, tr)
	if err != nil {
		return result{}, err
	}
	var smp samples
	doneT := n.completed.Load()
	d.closed(t, tcls, cfg.gen(3), closedDur, &smp)
	doneT = n.completed.Load() - doneT
	closeAll(tcls)
	a := tr.Attribution()
	out["engine.queue_us"] = float64(stageRow(a, "engine").QueueMean) / 1e3
	out["trace.cover"] = spanTotal(a) / float64(sum(smp.get.ns)+sum(smp.put.ns))
	out["trace.overhead"] = float64(du.ops) / float64(doneT)
	fmt.Printf("  attribution (%d traced ops):\n%s", doneT, a)

	fmt.Println("  open loop")
	late := d.open(t, cls, cfg.gen(2), cfg.w.rate, openDur, nil)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	out["loadgen.late_p99_us"] = float64(quantile(late, 0.99)) / 1e3

	// The ladder: in process, then over the wire to a serve child and to a
	// cluster — the workload's own where it has one, a fresh one otherwise.
	fmt.Println("  ladder: core, engine, server over inproc")
	viol, err := runInproc(dir, cfg.w.image, cfg.w.mix, cfg.seed, &n, out)
	if err != nil {
		return result{}, err
	}
	fmt.Println("  ladder: the workload's system over the wire")
	if err := runWire(t, sys, d, cfg.w.mix, cfg.seed, out); err != nil {
		return result{}, err
	}
	fmt.Println("  ladder: a fresh system of the other kind over the wire")
	other, err := cfg.start(t, r, env, dir, 1, !cfg.w.cluster)
	if err != nil {
		return result{}, err
	}
	ocls, err := other.clients(issuers, nil)
	if err != nil {
		return result{}, err
	}
	od := &driver{env: env, hist: NewHistory(records), n: &n}
	err = od.preload(t, ocls)
	if err == nil {
		err = runWire(t, other, od, cfg.w.mix, cfg.seed, out)
	}
	if err != nil {
		closeAll(ocls)
		return result{}, err
	}
	od.readBack(t, ocls)
	closeAll(ocls)
	other.stop()
	viol = append(viol, od.hist.Check()...)

	// Device counts come from the loaded serve child where the workload has
	// one; cluster nodes do not export device counters, so the cluster
	// workload reports the ladder's in-process device instead.
	if sys.cluster {
		for _, k := range []string{"writes_per_put", "write_amp", "reads_per_get", "queue_us"} {
			out["flashsim."+k] = out["ladder."+k]
		}
	} else {
		out["flashsim.writes_per_put"] = float64(du.counter["leed_device_writes_total"]) / float64(putsU)
		out["flashsim.write_amp"] = float64(du.counter["leed_device_written_bytes_total"]) / float64(putsU*userBytes)
		out["flashsim.reads_per_get"] = float64(du.counter["leed_device_reads_total"]) / float64(getsU)
		out["flashsim.queue_us"] = float64(du.queueNS) / float64(du.queueN) / 1e3
	}

	d.readBack(t, cls)
	viol = append(viol, d.hist.Check()...)
	m := map[string]metric{}
	for _, pl := range perLayer {
		v, ok := out[pl.name]
		if !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		m[pl.name] = metric{v, pl.unit}
		fmt.Printf("  %-32s %14.3f %s\n", pl.name, v, pl.unit)
	}
	return finish(&n, viol, m), nil
}

// stageRow returns a stage's row of the attribution table (zero if the
// stage never ran).
func stageRow(a obs.Attribution, stage string) obs.StageLat {
	for _, s := range a.Stages {
		if s.Stage == stage {
			return s
		}
	}
	return obs.StageLat{}
}

// spanTotal sums the disjoint stages of an attribution table, ns.
func spanTotal(a obs.Attribution) float64 {
	var total float64
	for _, s := range a.Stages {
		if !rpcproto.StageIDOf(s.Stage).Nested() {
			total += float64(s.Count) * float64(s.QueueMean+s.SvcMean)
		}
	}
	return total
}
