package main

import (
	"fmt"
	"runtime"
	"sort"

	"rsskv/internal/core"
	"rsskv/internal/locks"
	"rsskv/internal/mvstore"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// The layer replays feed the run's own recorded operations, on one
// goroutine, through single layers' public functions. Each call gets a
// span; allocations are counted over a whole loop with the span buffer
// grown beforehand, so they are the layer's own.

type replayResult struct {
	wireEncodeNS, wireDecodeNS, wireDecodeAllocs float64
	mvWriteNS, mvReadNS, mvAllocsPerWrite        float64
	locksNSPerTxn, locksAllocsPerTxn             float64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// request rebuilds the wire request a recorded operation was sent as.
func request(op *core.Op, id uint64) *wire.Request {
	if op.Type == core.ROTxn {
		return &wire.Request{ID: id, Op: wire.OpROTxn, Keys: sortedKeys(op.Reads), TMin: op.Version}
	}
	req := &wire.Request{ID: id, Op: wire.OpCommit, TxnID: uint64(op.ID), Keys: sortedKeys(op.Reads)}
	for _, k := range sortedKeys(op.Writes) {
		req.KVs = append(req.KVs, wire.KV{Key: k, Value: op.Writes[k]})
	}
	return req
}

// replay runs the wire, mvstore and locks replays. all is the whole
// history (preload, warm-up, timed), timed the timed phase's completed
// operations.
func replay(tr *tracer, all, timed []*core.Op) (replayResult, error) {
	var r replayResult
	root := tr.begin("replay", -1)
	defer tr.end(root)

	// wire: encode then decode every timed request.
	reqs := make([]*wire.Request, len(timed))
	for i, op := range timed {
		reqs[i] = request(op, uint64(i+1))
	}
	buf := make([]byte, 0, 4096)
	tr.reserve(2 * len(reqs))
	var encNS, decNS int64
	for _, req := range reqs {
		sp := tr.begin("replay.wire.AppendRequest", root)
		buf = wire.AppendRequest(buf[:0], req)
		tr.end(sp)
		encNS += tr.spans[sp].end - tr.spans[sp].start
	}
	m0 := mallocs()
	for _, req := range reqs {
		buf = wire.AppendRequest(buf[:0], req)
		sp := tr.begin("replay.wire.DecodeRequest", root)
		_, err := wire.DecodeRequest(buf)
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("wire replay: decode: %w", err)
		}
		decNS += tr.spans[sp].end - tr.spans[sp].start
	}
	n := float64(len(reqs))
	r.wireEncodeNS, r.wireDecodeNS = float64(encNS)/n, float64(decNS)/n
	r.wireDecodeAllocs = float64(mallocs()-m0) / n

	// mvstore: install every recorded write in timestamp order, then
	// read every timed snapshot read at its snapshot timestamp.
	type write struct {
		key, val string
		ts       int64
	}
	var writes []write
	for _, op := range all {
		if op.Complete() {
			for k, v := range op.Writes {
				writes = append(writes, write{k, v, op.Version})
			}
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].ts < writes[j].ts })
	st := mvstore.New()
	tr.reserve(len(writes))
	var wNS int64
	m0 = mallocs()
	for _, w := range writes {
		sp := tr.begin("replay.mvstore.Write", root)
		st.Write(w.key, w.val, truetime.Timestamp(w.ts))
		tr.end(sp)
		wNS += tr.spans[sp].end - tr.spans[sp].start
	}
	r.mvAllocsPerWrite = float64(mallocs()-m0) / float64(len(writes))
	r.mvWriteNS = float64(wNS) / float64(len(writes))
	var rNS, reads int64
	for _, op := range timed {
		if op.Type == core.ROTxn {
			reads += int64(len(op.Reads))
		}
	}
	tr.reserve(int(reads))
	for _, op := range timed {
		if op.Type != core.ROTxn {
			continue
		}
		for k := range op.Reads {
			sp := tr.begin("replay.mvstore.ReadAt", root)
			st.ReadAt(k, truetime.Timestamp(op.Version))
			tr.end(sp)
			rNS += tr.spans[sp].end - tr.spans[sp].start
		}
	}
	if reads > 0 {
		r.mvReadNS = float64(rNS) / float64(reads)
	}

	// locks: each timed read-write transaction acquires its footprint
	// (shared for keys only read, exclusive for keys written), flushes,
	// and releases, with no contention.
	type txn struct {
		id     locks.TxnID
		shared []string
		excl   []string
	}
	var txns []txn
	for _, op := range timed {
		if op.Type != core.RWTxn {
			continue
		}
		t := txn{id: locks.TxnID{Client: uint32(op.Client), Seq: uint64(op.ID)}, excl: sortedKeys(op.Writes)}
		for _, k := range sortedKeys(op.Reads) {
			if _, w := op.Writes[k]; !w {
				t.shared = append(t.shared, k)
			}
		}
		txns = append(txns, t)
	}
	if len(txns) > 0 {
		lm := locks.NewManager()
		tr.reserve(len(txns) * 16)
		var lNS int64
		m0 = mallocs()
		for _, t := range txns {
			t0 := tr.begin("replay.locks.txn", root)
			for _, k := range t.shared {
				sp := tr.begin("replay.locks.Acquire", t0)
				lm.Acquire(locks.Request{Txn: t.id, Key: k, Mode: locks.Shared, Prio: int64(t.id.Seq)})
				tr.end(sp)
			}
			for _, k := range t.excl {
				sp := tr.begin("replay.locks.Acquire", t0)
				lm.Acquire(locks.Request{Txn: t.id, Key: k, Mode: locks.Exclusive, Prio: int64(t.id.Seq)})
				tr.end(sp)
			}
			sp := tr.begin("replay.locks.Flush", t0)
			lm.Flush()
			tr.end(sp)
			sp = tr.begin("replay.locks.ReleaseAll", t0)
			lm.ReleaseAll(t.id)
			tr.end(sp)
			tr.end(t0)
			lNS += tr.spans[t0].end - tr.spans[t0].start
		}
		r.locksAllocsPerTxn = float64(mallocs()-m0) / float64(len(txns))
		r.locksNSPerTxn = float64(lNS) / float64(len(txns))
	}

	return r, nil
}
