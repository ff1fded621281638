package main

import (
	"fmt"
	"path/filepath"
	goruntime "runtime"
	"time"

	"leed/internal/cluster"
	"leed/internal/core"
	"leed/internal/engine"
	"leed/internal/flashsim"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/transport"
	"leed/internal/ycsb"
)

// Ladder sizes: operations run with one outstanding through each layer.
const (
	ladderOps      = 10000 // core, engine, server over inproc
	ladderWireOps  = 4000  // TCP to the serve child, proc.Client
	ladderAllocOps = 1000  // per op type, for allocations per op
)

// countingDev wraps the ladder's device at the flashsim.Device seam and
// counts operations, bytes and completion time from outside the program.
// Submit and TryReadAt run in task context and completions fire in
// scheduler context; the wallclock runtime lock orders all of them.
type countingDev struct {
	flashsim.Device
	env    runtime.Env
	timing bool // off while counting allocations: OnFire allocates

	reads, writes   int64
	rbytes, wbytes  int64
	timedR, timedW  int64
	readNS, writeNS int64
}

func (d *countingDev) Submit(op *flashsim.Op) {
	switch op.Kind {
	case flashsim.OpRead:
		d.reads++
		d.rbytes += int64(len(op.Data))
	case flashsim.OpWrite:
		d.writes++
		d.wbytes += int64(len(op.Data))
	}
	if d.timing && op.Done != nil && op.Kind != flashsim.OpFlush {
		start, kind := d.env.Now(), op.Kind
		op.Done.OnFire(func(any) {
			if ns := int64(d.env.Now() - start); kind == flashsim.OpRead {
				d.timedR, d.readNS = d.timedR+1, d.readNS+ns
			} else {
				d.timedW, d.writeNS = d.timedW+1, d.writeNS+ns
			}
		})
	}
	d.Device.Submit(op)
}

// TryReadAt keeps the inner device's inline mmap read lane visible to the
// store, which looks for it with a type assertion.
func (d *countingDev) TryReadAt(dst []byte, off int64) bool {
	sr, ok := d.Device.(flashsim.SyncReader)
	if !ok {
		return false
	}
	start := time.Now()
	if !sr.TryReadAt(dst, off) {
		return false
	}
	d.reads++
	d.rbytes += int64(len(dst))
	if d.timing {
		d.timedR++
		d.readNS += int64(time.Since(start))
	}
	return true
}

// coreKV calls the partition's core.Store directly; engineKV goes through
// engine.Execute. Both route keys exactly as the server does.
type coreKV struct{ l *inproc }
type engineKV struct{ l *inproc }

func (c coreKV) Close()   {}
func (c engineKV) Close() {}

func (c coreKV) Get(t runtime.Task, key, dst []byte) ([]byte, error) {
	v, _, err := c.l.eng.Partition(c.l.route(key)).Store.GetInto(t, key, dst)
	return v, err
}

func (c coreKV) Put(t runtime.Task, key, val []byte) error {
	_, err := c.l.eng.Partition(c.l.route(key)).Store.Put(t, key, val)
	return err
}

func (c engineKV) Get(t runtime.Task, key, dst []byte) ([]byte, error) {
	v, _, err := c.l.eng.ExecuteTracedInto(t, c.l.route(key), rpcproto.OpGet, key, nil, dst, nil)
	return v, err
}

func (c engineKV) Put(t runtime.Task, key, val []byte) error {
	_, _, err := c.l.eng.Execute(t, c.l.route(key), rpcproto.OpPut, key, val)
	return err
}

// inproc is the ladder's in-process stack: the same engine geometry as
// `leedctl serve -listen`, on its own image behind countingDev.
type inproc struct {
	env    *wallclock.Env
	dev    *flashsim.AsyncFileDevice
	cd     *countingDev
	eng    *engine.Engine
	srv    *server.Server
	owners []int
}

const servePartitions = 4

func newInproc(dir string, capacity int64) (*inproc, error) {
	env := wallclock.New()
	dev, err := flashsim.OpenAsyncFileDevice(env, filepath.Join(dir, "ladder.img"), capacity, flashsim.AsyncOptions{Workers: 8})
	if err != nil {
		return nil, err
	}
	if err := dev.SetSyncReads(true); err != nil {
		dev.Close()
		return nil, err
	}
	l := &inproc{env: env, dev: dev, cd: &countingDev{Device: dev, env: env, timing: true}}
	partBytes := capacity / servePartitions
	l.eng = engine.New(engine.Config{
		Env:              env,
		Devices:          []flashsim.Device{l.cd},
		PartitionsPerSSD: servePartitions,
		Geometry:         core.PlanPartition(partBytes, 32, 1024, core.PlanOpts{}),
		PartitionBytes:   partBytes,
		FlushEvery:       100 * runtime.Millisecond,
	})
	members := make([]cluster.NodeID, servePartitions)
	for i := range members {
		members[i] = cluster.NodeID(i)
	}
	ring := cluster.NewRing(members)
	l.owners = make([]int, 64) // server.Config's default VPartitions
	for vp := range l.owners {
		l.owners[vp] = int(ring.OwnerOf(uint32(vp)))
	}
	return l, nil
}

func (l *inproc) route(key []byte) int {
	return l.owners[cluster.PartitionOf(core.HashKey(key), len(l.owners))]
}

func (l *inproc) storeStats() (compactions, relocated int64) {
	for pid := 0; pid < l.eng.NumPartitions(); pid++ {
		st := l.eng.Partition(pid).Store.Stats()
		compactions += st.KeyCompactions + st.ValCompactions
		relocated += st.RelocatedItems
	}
	return
}

// layerRun is what one ladder step measured.
type layerRun struct {
	get, put             []int64 // ns per op
	getAllocs, putAllocs float64
}

// step runs ops through c one at a time and returns their latencies.
func step(t runtime.Task, d *driver, c kv, gen *ycsb.Generator, ops int) layerRun {
	var r layerRun
	val, dst := make([]byte, ValueLen), make([]byte, 0, ValueLen)
	for i := 0; i < ops; i++ {
		op := gen.Next()
		start := t.Now()
		var err error
		if op.Type == ycsb.OpRead {
			dst, _, err = d.get(t, c, op.Key, dst)
		} else {
			_, err = d.put(t, c, op.Key, val)
		}
		if err != nil {
			continue
		}
		if ns := int64(t.Now() - start); op.Type == ycsb.OpRead {
			r.get = append(r.get, ns)
		} else {
			r.put = append(r.put, ns)
		}
	}
	return r
}

// allocs measures heap allocations per GET and per PUT through c over the
// stream's first ladderAllocOps reads and writes. The history is updated
// around the measured loops, not inside them, so the benchmark's own
// bookkeeping does not count; GET results are still decoded and checked.
func allocs(t runtime.Task, d *driver, c kv, gen *ycsb.Generator, r *layerRun) error {
	var gets, puts [][]byte
	for len(gets) < ladderAllocOps || len(puts) < ladderAllocOps {
		op := gen.Next()
		if op.Type == ycsb.OpRead && len(gets) < ladderAllocOps {
			gets = append(gets, op.Key)
		} else if op.Type != ycsb.OpRead && len(puts) < ladderAllocOps {
			puts = append(puts, op.Key)
		}
	}
	var ms goruntime.MemStats
	mallocs := func() uint64 { goruntime.ReadMemStats(&ms); return ms.Mallocs }

	dst := make([]byte, 0, ValueLen)
	var bad []string
	before := mallocs()
	for _, key := range gets {
		var err error
		dst, err = c.Get(t, key, dst[:0])
		k, ver, ok := DecodeValue(dst)
		if err != nil || !ok || k != uint64(keyIndex(key)) || ver > uint64(len(d.hist.writes[k])) {
			bad = append(bad, string(key))
		}
	}
	r.getAllocs = float64(mallocs()-before) / float64(len(gets))
	d.n.attempted += int64(len(gets))
	d.n.gets += int64(len(gets))
	if len(bad) > 0 {
		return fmt.Errorf("ladder GETs returned wrong values for %d keys, first %s", len(bad), bad[0])
	}

	vals := make([][]byte, len(puts))
	vers := make([]uint64, len(puts))
	for i, key := range puts {
		k := keyIndex(key)
		vers[i] = d.hist.Issue(k, int64(t.Now()))
		vals[i] = make([]byte, ValueLen)
		EncodeValue(vals[i], uint64(k), vers[i])
	}
	failed := make([]bool, len(puts))
	before = mallocs()
	for i, key := range puts {
		failed[i] = d.retryPut(t, c, key, vals[i]) != nil
	}
	r.putAllocs = float64(mallocs()-before) / float64(len(puts))
	now := int64(t.Now())
	for i, key := range puts {
		d.n.attempted++
		d.n.puts++
		if failed[i] {
			d.n.failed++
			continue
		}
		d.hist.Ack(keyIndex(key), vers[i], now)
	}
	return nil
}

// runInproc runs the in-process rungs — core, engine, server over the
// inproc transport — on a fresh image of capacity bytes, in a runtime of
// their own.
func runInproc(dir string, capacity int64, mix ycsb.Workload, seed int64, n *counts, out map[string]float64) ([]Violation, error) {
	l, err := newInproc(dir, capacity)
	if err != nil {
		return nil, err
	}
	defer l.dev.Close()
	var runErr error
	var viol []Violation
	l.env.Spawn("ladder", func(t runtime.Task) {
		defer func() {
			if l.srv != nil {
				l.srv.Close()
			}
			l.eng.Stop()
		}()
		for pid := 0; pid < l.eng.NumPartitions(); pid++ {
			if _, err := l.eng.RecoverPartition(t, pid); err != nil {
				runErr = fmt.Errorf("recover partition %d: %w", pid, err)
				return
			}
		}
		l.eng.Start()
		l.srv = server.New(server.Config{Env: l.env, Engine: l.eng})
		inp := transport.NewInproc(l.env, transport.InprocOptions{})
		l.srv.Serve(inp)
		conn, err := inp.Dial(t)
		if err != nil {
			runErr = err
			return
		}
		srv := &srvKV{c: server.NewClient(l.env, conn, 1)}
		defer srv.Close()

		d := &driver{env: l.env, hist: NewHistory(records), n: n}
		// Preload through the engine, as the serve child does. Eight
		// writers straight into core.Store meet the store's compaction
		// fault (README), and now and then one used up its retries.
		if runErr = d.preload(t, []kv{engineKV{l}}); runErr != nil {
			return
		}
		comp0, reloc0 := l.storeStats()
		puts0 := d.n.puts
		dev0 := *l.cd
		layers := []struct {
			name string
			c    kv
		}{{"core", coreKV{l}}, {"engine", engineKV{l}}, {"server", srv}}
		for i, layer := range layers {
			r := step(t, d, layer.c, ycsb.NewGenerator(mix, records, ValueLen, seed*10+5), ladderOps)
			l.cd.timing = false
			if runErr = allocs(t, d, layer.c, ycsb.NewGenerator(mix, records, ValueLen, seed*10+6+int64(i)), &r); runErr != nil {
				return
			}
			l.cd.timing = true
			out[layer.name+".get_ns"] = median(r.get)
			out[layer.name+".put_ns"] = median(r.put)
			out[layer.name+".get_allocs"] = r.getAllocs
			out[layer.name+".put_allocs"] = r.putAllocs
		}
		comp1, reloc1 := l.storeStats()
		kputs := float64(d.n.puts-puts0) / 1e3
		out["core.compactions_per_kput"] = float64(comp1-comp0) / kputs
		out["core.relocated_items_per_kput"] = float64(reloc1-reloc0) / kputs
		cd := l.cd
		out["flashsim.read_service_us"] = float64(cd.readNS-dev0.readNS) / float64(cd.timedR-dev0.timedR) / 1e3
		out["flashsim.write_service_us"] = float64(cd.writeNS-dev0.writeNS) / float64(cd.timedW-dev0.timedW) / 1e3
		out["ladder.writes_per_put"] = float64(cd.writes-dev0.writes) / float64(d.n.puts-puts0)
		out["ladder.reads_per_get"] = float64(cd.reads-dev0.reads) / float64(d.n.gets)
		out["ladder.write_amp"] = float64(cd.wbytes-dev0.wbytes) / float64((d.n.puts-puts0)*userBytes)
		out["ladder.queue_us"] = float64(l.dev.Stats().QueueLat.Mean()) / 1e3
		viol = d.hist.Check()
	})
	l.env.Wait()
	return viol, runErr
}

// runWire runs the rungs over real sockets: one op outstanding through
// server.Client over TCP to a serve child ("transport"), or through
// proc.Client to a cluster ("cluster"), plus a traced pass that yields the
// chain-forward stage and node GET counts for the read spread.
func runWire(t runtime.Task, sys *system, d *driver, mix ycsb.Workload, seed int64, out map[string]float64) error {
	gen := func(i int64) *ycsb.Generator { return ycsb.NewGenerator(mix, records, ValueLen, seed*10+8+i) }
	if !sys.cluster {
		cs, err := sys.clients(1, nil)
		if err != nil {
			return err
		}
		defer closeAll(cs)
		r := step(t, d, cs[0], gen(0), ladderWireOps)
		out["transport.get_ns"] = median(r.get)
		return nil
	}
	cs, err := sys.clients(1, nil)
	if err != nil {
		return err
	}
	defer closeAll(cs)
	var r layerRun
	ds, err := sys.sampled(1, 0, &d.n.completed, func() { r = step(t, d, cs[0], gen(0), ladderWireOps) })
	if err != nil {
		return err
	}
	dl := ds[0]
	out["cluster.get_ns"] = median(r.get)
	out["cluster.put_ns"] = median(r.put)
	var most, sum int64
	for _, g := range dl.gets {
		most, sum = max(most, g), sum+g
	}
	out["cluster.read_spread"] = float64(most) / (float64(sum) / float64(len(dl.gets)))

	tr := obs.NewTracer(nil, 0, 0)
	ts, err := sys.clients(1, tr)
	if err != nil {
		return err
	}
	defer closeAll(ts)
	step(t, d, ts[0], gen(1), ladderWireOps/2)
	fwd := stageRow(tr.Attribution(), "fwd")
	out["cluster.fwd_us"] = float64(fwd.QueueMean+fwd.SvcMean) / 1e3
	return nil
}
