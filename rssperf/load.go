package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/kvclient"
	"rsskv/internal/server"
	"rsskv/internal/sim"
	"rsskv/internal/workload"
)

// preloadClient is the history process ID of the preload writer; sessions
// are 0..sessions-1.
const preloadClient = sessions

// clock hands out history timestamps: nanoseconds since the run's base,
// strictly increasing per caller so process order is never a tie.
type clock struct {
	base time.Time
	last sim.Time
}

func (c *clock) now() sim.Time {
	t := sim.Time(time.Since(c.base).Nanoseconds())
	if t <= c.last {
		t = c.last + 1
	}
	c.last = t
	return t
}

// env is one set-up server with its connected sessions.
type env struct {
	w       *benchWorkload
	cfg     server.Config
	srv     *server.Server
	clients []*kvclient.Client
	sess    []*session
	preload []*core.Op
	// meter, when set, counts the operations of the timed phase.
	meter *meter
}

// session is one closed-loop caller. Sessions sharing a client share its
// t_min, which only strengthens session order.
type session struct {
	id    int
	cl    *kvclient.Client
	rng   *rand.Rand
	gen   func(*rand.Rand) opSpec
	clk   clock
	nval  int
	ops   []*core.Op
	first int // index in ops of the first timed operation
	// err is the error of the session's failed operation. A failed
	// operation is recorded pending and ends the session, since a pending
	// operation must be the last one of its history process.
	err  error
	tr   *tracer
	root int32
}

// setup opens the server, preloads every key, connects the sessions, and
// runs the warm-up.
// Every operation it issues is recorded, since later reads may observe it.
func setup(w *benchWorkload, seed int64, base time.Time, tr *tracer, parent int32) (*env, error) {
	e := &env{w: w, cfg: w.config()}
	sp := tr.begin("setup.open", parent)
	if err := e.open(); err != nil {
		return nil, err
	}
	tr.end(sp)

	sp = tr.begin("setup.preload", parent)
	if err := e.preloadKeys(base); err != nil {
		e.close()
		return nil, err
	}
	tr.end(sp)

	sp = tr.begin("setup.connect", parent)
	nconn := runtime.NumCPU()
	if nconn > sessions {
		nconn = sessions
	}
	for i := 0; i < nconn; i++ {
		cl, err := kvclient.Dial(e.srv.Addr(), kvclient.Options{Conns: 1})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	for s := 0; s < sessions; s++ {
		e.sess = append(e.sess, &session{
			id:  s,
			cl:  e.clients[s%nconn],
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(s)*7919)),
			gen: w.newGen(),
			clk: clock{base: base},
		})
	}
	tr.end(sp)

	sp = tr.begin("setup.warmup", parent)
	e.runAll(warmupPerSess)
	tr.end(sp)
	for _, ss := range e.sess {
		if ss.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: session %d: %w", ss.id, ss.err)
		}
		ss.first = len(ss.ops)
	}
	return e, nil
}

func (e *env) open() error {
	srv, err := server.Open(e.cfg)
	if err != nil {
		return fmt.Errorf("open server: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		srv.Close()
		return fmt.Errorf("start server: %w", err)
	}
	e.srv = srv
	return nil
}

// preloadKeys writes every key once, in batches, recording each batch as
// a write-only transaction of the preload process.
func (e *env) preloadKeys(base time.Time) error {
	cl, err := kvclient.Dial(e.srv.Addr(), kvclient.Options{Conns: 1})
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()
	clk := clock{base: base}
	const batch = 64
	for lo := 0; lo < e.w.keys; lo += batch {
		op := &core.Op{Client: preloadClient, Type: core.RWTxn, Writes: map[string]string{}}
		for k := lo; k < lo+batch && k < e.w.keys; k++ {
			key := workload.KeyName(uint64(k))
			op.Writes[key] = "p." + key
		}
		op.Invoke = clk.now()
		op.Version, err = cl.MultiPut(op.Writes)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		op.Respond = clk.now()
		e.preload = append(e.preload, op)
	}
	return nil
}

// runAll runs n operations on every session concurrently, in a closed
// loop, and waits for them. A session stops at its first failed
// operation.
func (e *env) runAll(n int) {
	var wg sync.WaitGroup
	for _, ss := range e.sess {
		wg.Add(1)
		go func(ss *session) {
			defer wg.Done()
			ss.root = ss.tr.begin("session", -1)
			ss.run(n, e.meter)
			ss.tr.end(ss.root)
		}(ss)
	}
	wg.Wait()
}

func (ss *session) run(n int, m *meter) {
	tr := ss.tr
	for i := 0; i < n && ss.err == nil; i++ {
		sp := tr.begin("loadgen.gen", ss.root)
		spec := ss.gen(ss.rng)
		op := &core.Op{Client: ss.id, Respond: core.Pending}
		if !spec.ro {
			op.Writes = make(map[string]string, len(spec.writes))
			for _, k := range spec.writes {
				ss.nval++
				op.Writes[k] = fmt.Sprintf("s%d.%d", ss.id, ss.nval)
			}
		}
		tr.end(sp)
		ss.err = ss.do(op, spec)
		sp = tr.begin("loadgen.record", ss.root)
		ss.ops = append(ss.ops, op)
		tr.end(sp)
		if ss.err == nil {
			m.tick()
		}
	}
}

// do issues one operation and fills in its recorded outcome. The
// invocation is taken before the call and the response after it returns,
// so Respond-Invoke is the latency the caller saw. A failed call leaves
// the operation pending.
func (ss *session) do(op *core.Op, spec opSpec) error {
	tr := ss.tr
	if spec.ro {
		op.Type = core.ROTxn
		op.Invoke = ss.clk.now()
		sp := tr.begin("kvclient.Snapshot", ss.root)
		res, err := ss.cl.Snapshot(spec.reads...)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("snapshot read: %w", err)
		}
		op.Respond = ss.clk.now()
		op.Reads, op.Version, op.ReadVers = res.Vals, res.Snapshot, res.Vers
		return nil
	}
	op.Type = core.RWTxn
	op.Invoke = ss.clk.now()
	sp := tr.begin("kvclient.Begin", ss.root)
	txn, err := ss.cl.Begin()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	txn.Read(spec.reads...)
	for _, k := range spec.writes {
		txn.Write(k, op.Writes[k])
	}
	sp = tr.begin("kvclient.Commit", ss.root)
	reads, version, err := txn.Commit()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	op.Respond = ss.clk.now()
	op.Reads, op.Version, op.ReadVers = reads, version, txn.ReadVers()
	return nil
}

// history merges the preload and every session's operations, assigning
// IDs in a fixed order (preload, then sessions in turn).
func (e *env) history() *history.History {
	h := &history.History{}
	var id int64
	add := func(op *core.Op) {
		id++
		op.ID = id
		h.Add(op)
	}
	for _, op := range e.preload {
		add(op)
	}
	for _, ss := range e.sess {
		for _, op := range ss.ops {
			add(op)
		}
	}
	return h
}

// timedOps returns the operations of the timed phase, by session.
func (e *env) timedOps() []*core.Op {
	var out []*core.Op
	for _, ss := range e.sess {
		out = append(out, ss.ops[ss.first:]...)
	}
	return out
}

func (e *env) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	if e.srv != nil {
		e.srv.Close()
	}
}

// readAll reads every preloaded key with snapshot reads from a fresh
// session of a new client.
func readAll(addr string, keys int) (map[string]string, error) {
	cl, err := kvclient.Dial(addr, kvclient.Options{Conns: 1})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()
	out := make(map[string]string, keys)
	const batch = 100
	for lo := 0; lo < keys; lo += batch {
		var ks []string
		for k := lo; k < lo+batch && k < keys; k++ {
			ks = append(ks, workload.KeyName(uint64(k)))
		}
		vals, _, err := cl.ReadOnly(ks...)
		if err != nil {
			return nil, fmt.Errorf("snapshot read: %w", err)
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}

// latencies returns the client-observed latencies of completed timed
// operations, in nanoseconds and sorted, split by read-only and
// read-write.
func latencies(ops []*core.Op) (ro, rw []int64) {
	for _, op := range ops {
		if !op.Complete() {
			continue
		}
		d := int64(op.Respond - op.Invoke)
		if op.Type == core.ROTxn {
			ro = append(ro, d)
		} else {
			rw = append(rw, d)
		}
	}
	sortInts(ro)
	sortInts(rw)
	return ro, rw
}

// quantile is the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}
