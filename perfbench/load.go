package main

import (
	"errors"
	"fmt"
	"sync/atomic"

	"leed/internal/cluster/proc"
	"leed/internal/core"
	"leed/internal/obs"
	"leed/internal/rpcproto"
	"leed/internal/runtime"
	"leed/internal/runtime/wallclock"
	"leed/internal/server"
	"leed/internal/ycsb"
)

// kv is one client the load issues operations through. Get appends the
// value to dst; a missing key is core.ErrNotFound.
type kv interface {
	Get(t runtime.Task, key, dst []byte) ([]byte, error)
	Put(t runtime.Task, key, val []byte) error
	Close()
}

// errStoreErr is a PUT the server answered with an error status. On this
// store that is core.ErrLogFull seen through the wire (see README): the
// write was not applied, and a retry succeeds once compaction has freed
// the log.
var errStoreErr = errors.New("store answered ERR")

// srvKV is a pipelined server.Client. With a tracer, every request carries
// a sampled trace context and the server's piggybacked spans are folded
// into the tracer beside the client-observed remainder ("net").
type srvKV struct {
	c      *server.Client
	tr     *obs.Tracer
	nextID uint64
}

func (s *srvKV) Close() { s.c.Close() }

func (s *srvKV) Get(t runtime.Task, key, dst []byte) ([]byte, error) {
	if s.tr == nil {
		return s.c.GetInto(t, key, dst)
	}
	resp, err := s.do(t, rpcproto.OpGet, key, nil)
	if err != nil {
		return nil, err
	}
	return append(dst, resp.Value...), nil
}

func (s *srvKV) Put(t runtime.Task, key, val []byte) error {
	_, err := s.do(t, rpcproto.OpPut, key, val)
	return err
}

func (s *srvKV) do(t runtime.Task, op rpcproto.Op, key, val []byte) (*rpcproto.Response, error) {
	req := &rpcproto.Request{Op: op, Key: key, Value: val}
	var tr *obs.Trace
	start := t.Now()
	if s.tr != nil {
		s.nextID++
		req.TraceID, req.TraceFlags = s.nextID, rpcproto.TraceSampled
		tr = s.tr.Begin(op.String(), start)
	}
	resp, err := s.c.Do(t, req)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		remote := runtime.Time(rpcproto.DisjointTotalNS(resp.Spans))
		tr.SpanHop("net", 0, 0, t.Now()-start-remote)
		for _, sp := range resp.Spans {
			if name := sp.Stage.Name(); name != "" {
				tr.SpanHop(name, int(sp.Hop), runtime.Time(sp.QueueNS), runtime.Time(sp.ServiceNS))
			}
		}
		s.tr.End(tr)
	}
	switch resp.Status {
	case rpcproto.StatusOK:
		return resp, nil
	case rpcproto.StatusNotFound:
		return nil, core.ErrNotFound
	case rpcproto.StatusErr:
		return nil, errStoreErr
	}
	return nil, fmt.Errorf("%s answered %s", op, resp.Status)
}

// procKV is the view-routing cluster client.
type procKV struct{ c *proc.Client }

func (p procKV) Close() { p.c.Close() }

func (p procKV) Get(t runtime.Task, key, dst []byte) ([]byte, error) {
	v, err := p.c.Get(t, key)
	if err != nil {
		return nil, err
	}
	return append(dst, v...), nil
}

func (p procKV) Put(t runtime.Task, key, val []byte) error { return p.c.Put(t, key, val) }

// Load shape shared by every workload.
const (
	records     = 20000
	issuers     = 2 // connections (server) or cluster clients
	outstanding = 8 // requests per issuer
	putTries    = 200
	putRetry    = runtime.Millisecond
	keyPrefix   = len("user")
)

// counts tallies operations across every phase of a run.
type counts struct {
	attempted, failed int64
	putRetries        int64
	gets, puts        int64
	// completed is read by the sampling goroutine while tasks run.
	completed atomic.Int64
}

// driver issues operations against one system and records them in its
// history. Every method runs in task context; the wallclock execution
// contract serializes the tasks, so driver state needs no locks.
type driver struct {
	env  *wallclock.Env
	hist *History
	n    *counts
}

// keyIndex parses ycsb's "user%012d" key back to its record index.
func keyIndex(key []byte) uint32 {
	var n uint32
	for _, c := range key[keyPrefix:] {
		n = n*10 + uint32(c-'0')
	}
	return n
}

// put writes the next version of key and returns its latency.
func (d *driver) put(t runtime.Task, c kv, key []byte, val []byte) (runtime.Time, error) {
	k := keyIndex(key)
	start := t.Now()
	ver := d.hist.Issue(k, int64(start))
	EncodeValue(val, uint64(k), ver)
	d.n.attempted++
	d.n.puts++
	if err := d.retryPut(t, c, key, val); err != nil {
		d.n.failed++
		return t.Now() - start, err
	}
	now := t.Now()
	d.hist.Ack(k, ver, int64(now))
	d.n.completed.Add(1)
	return now - start, nil
}

// retryPut sends one PUT. A PUT the store refuses with a full log is
// retried unchanged until it is acknowledged, so the write keeps the issue
// time of its first try.
func (d *driver) retryPut(t runtime.Task, c kv, key, val []byte) error {
	var err error
	for try := 0; try < putTries; try++ {
		if try > 0 {
			d.n.putRetries++
			t.Sleep(putRetry)
		}
		err = c.Put(t, key, val)
		if !errors.Is(err, errStoreErr) && !errors.Is(err, core.ErrLogFull) {
			return err
		}
	}
	return err
}

// get reads key, records the result and returns the latency.
func (d *driver) get(t runtime.Task, c kv, key []byte, dst []byte) ([]byte, runtime.Time, error) {
	k := keyIndex(key)
	start := t.Now()
	d.n.attempted++
	d.n.gets++
	v, err := c.Get(t, key, dst[:0])
	now := t.Now()
	switch {
	case err == nil:
		d.hist.Read(k, v, false, int64(start), int64(now))
		d.n.completed.Add(1)
	case errors.Is(err, core.ErrNotFound):
		d.hist.Read(k, nil, true, int64(start), int64(now))
		d.n.completed.Add(1)
		err = nil
	default:
		d.n.failed++
	}
	return v, now - start, err
}

// spawn runs body once per (client, slot) pair, `slots` per client,
// and waits for all of them.
func (d *driver) spawn(t runtime.Task, clients []kv, slots int, body func(q runtime.Task, c kv)) {
	evs := make([]runtime.Event, 0, len(clients)*slots)
	for _, c := range clients {
		for i := 0; i < slots; i++ {
			c, ev := c, d.env.MakeEvent()
			evs = append(evs, ev)
			d.env.Spawn("issuer", func(q runtime.Task) {
				defer ev.Fire(nil)
				body(q, c)
			})
		}
	}
	runtime.WaitAll(t, evs...)
}

// preload writes version 1 of every record.
func (d *driver) preload(t runtime.Task, clients []kv) error {
	var next int64
	var firstErr error
	d.spawn(t, clients, outstanding, func(q runtime.Task, c kv) {
		val := make([]byte, ValueLen)
		for next < records && firstErr == nil {
			i := next
			next++
			if _, err := d.put(q, c, ycsb.KeyAt(i), val); err != nil {
				firstErr = fmt.Errorf("preload: %w", err)
			}
		}
	})
	return firstErr
}

// readBack reads every record once, after all writes have finished.
func (d *driver) readBack(t runtime.Task, clients []kv) {
	var next int64
	d.spawn(t, clients, outstanding, func(q runtime.Task, c kv) {
		dst := make([]byte, 0, ValueLen)
		for next < records {
			i := next
			next++
			dst, _, _ = d.get(q, c, ycsb.KeyAt(i), dst)
		}
	})
}

// samples collects per-operation latencies of one window.
type samples struct{ get, put lats }

// lats are latencies, ns, each with the driver-clock time its operation
// completed.
type lats struct{ ns, at []int64 }

func (l *lats) add(now, from runtime.Time) {
	l.ns = append(l.ns, int64(now-from))
	l.at = append(l.at, int64(now))
}

// one issues the generator's next operation and records its latency from
// `from` (its start, or its due time in the open loop).
func (d *driver) one(q runtime.Task, c kv, op ycsb.Op, val, dst []byte, from runtime.Time, s *samples) []byte {
	var err error
	if op.Type == ycsb.OpRead {
		if dst, _, err = d.get(q, c, op.Key, dst); err == nil && s != nil {
			s.get.add(q.Now(), from)
		}
		return dst
	}
	if _, err = d.put(q, c, op.Key, val); err == nil && s != nil {
		s.put.add(q.Now(), from)
	}
	return dst
}

// closed keeps `outstanding` operations in flight per client for dur.
func (d *driver) closed(t runtime.Task, clients []kv, gen *ycsb.Generator, dur runtime.Time, s *samples) {
	stop := t.Now() + dur
	d.spawn(t, clients, outstanding, func(q runtime.Task, c kv) {
		val, dst := make([]byte, ValueLen), make([]byte, 0, ValueLen)
		for q.Now() < stop {
			dst = d.one(q, c, gen.Next(), val, dst, q.Now(), s)
		}
	})
}

// open issues operations at a fixed rate for dur, with at most
// `outstanding` per client, each timed from its due time or, if its slot
// was idle, from its send. It returns how late, in ns, each operation was
// sent.
func (d *driver) open(t runtime.Task, clients []kv, gen *ycsb.Generator, rate float64, dur runtime.Time, s *samples) []int64 {
	start := t.Now()
	total := int64(rate * dur.Seconds())
	var next int64
	late := make([]int64, 0, total)
	d.spawn(t, clients, outstanding, func(q runtime.Task, c kv) {
		val, dst := make([]byte, ValueLen), make([]byte, 0, ValueLen)
		for next < total {
			i := next
			next++
			op := gen.Next()
			due := start + runtime.Time(float64(i)*1e9/rate)
			// An operation whose slot was still busy at its due time is
			// timed from that time, so a stall counts against the
			// operations queued behind it. One whose slot was idle is timed
			// from its send: its sleep overruns the due time by up to a
			// millisecond of Go timer granularity, which is the driver's
			// delay, not the program's.
			from := due
			if now := q.Now(); now < due {
				q.Sleep(due - now)
				from = q.Now()
			}
			late = append(late, int64(q.Now()-due))
			dst = d.one(q, c, op, val, dst, from, s)
		}
	})
	return late
}
