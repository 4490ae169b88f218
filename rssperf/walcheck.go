package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// walBatch is how many commit records the log round trip groups per
// Sync: one per session, the largest batch a closed loop of this many
// sessions can offer a shard.
const walBatch = sessions

// walResult is the log round trip's cost: time per synced batch, heap
// allocations and bytes per appended record, and the time to reopen the
// log and recover every record.
type walResult struct {
	usPerBatch, allocsPerRecord, bytesPerRecord, recoveryS float64
}

// walRoundTrip appends every completed read-write operation of the
// history as a commit record, in timestamp order, to a fresh log in dir,
// syncing every walBatch records; closes it; reopens the directory; and
// requires recovery to return exactly the records appended. It runs on
// every run as the durability check; spans are recorded when tr is set.
func walRoundTrip(tr *tracer, dir string, ops []*core.Op) (walResult, error) {
	var r walResult
	var recs []wal.Record
	for _, op := range ops {
		if op.Complete() && len(op.Writes) > 0 {
			rec := wal.Record{Kind: wal.KindCommit, TxnID: uint64(op.ID), TS: op.Version, Epoch: 1}
			for _, k := range sortedKeys(op.Writes) {
				rec.Writes = append(rec.Writes, wire.KV{Key: k, Value: op.Writes[k]})
			}
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return r, fmt.Errorf("wal round trip: no committed writes")
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].TS < recs[j].TS })
	defer os.RemoveAll(dir)
	root := tr.begin("wal.roundtrip", -1)
	defer tr.end(root)
	sp := tr.begin("wal.Open", root)
	l, _, err := wal.Open(wal.Config{Dir: dir})
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("wal round trip: %w", err)
	}
	tr.reserve(len(recs) + 2*(len(recs)/walBatch+1))
	var busy time.Duration
	batches := 0
	m0 := mallocs()
	for lo := 0; lo < len(recs); lo += walBatch {
		hi := lo + walBatch
		if hi > len(recs) {
			hi = len(recs)
		}
		recs[hi-1].Watermark = recs[hi-1].TS // Sync stamps the batch tail
		t := time.Now()
		b := tr.begin("wal.batch", root)
		for i := lo; i < hi; i++ {
			sp := tr.begin("wal.Append", b)
			l.Append(recs[i])
			tr.end(sp)
		}
		sp := tr.begin("wal.Sync", b)
		_, err := l.Sync(recs[hi-1].TS)
		tr.end(sp)
		tr.end(b)
		busy += time.Since(t)
		batches++
		if err != nil {
			l.Close()
			return r, fmt.Errorf("wal round trip: sync: %w", err)
		}
	}
	r.allocsPerRecord = float64(mallocs()-m0) / float64(len(recs))
	r.usPerBatch = float64(busy.Microseconds()) / float64(batches)
	r.bytesPerRecord = float64(l.Bytes()) / float64(len(recs))
	if err := l.Close(); err != nil {
		return r, fmt.Errorf("wal round trip: close: %w", err)
	}

	sp = tr.begin("wal.recovery", root)
	t := time.Now()
	l, rec, err := wal.Open(wal.Config{Dir: dir})
	r.recoveryS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return r, fmt.Errorf("wal round trip: reopen: %w", err)
	}
	l.Close()
	if rec.Checkpoint != nil || len(rec.Records) != len(recs) {
		return r, fmt.Errorf("wal round trip: reopen recovered %d records, %d were synced", len(rec.Records), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(rec.Records[i], recs[i]) {
			return r, fmt.Errorf("wal round trip: record %d recovered as %+v, synced as %+v", i+1, rec.Records[i], recs[i])
		}
	}
	return r, nil
}
