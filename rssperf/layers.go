package main

import (
	"rsskv/internal/obs"
	"rsskv/internal/wire"
)

// layerInputs is what the traced run measured, beside the server's own
// metrics over the timed phase (d).
type layerInputs struct {
	d                     *wire.MetricsPayload
	n                     float64 // completed timed operations
	roP50, rwP50          float64 // client-observed medians, µs
	wal                   walResult
	checkNS, checkAllocs  float64
	histOps               float64
	writtenKeys, versions float64
	genNS                 float64 // generation and recording, summed
	gcCycles              float64
	replay                replayResult
}

// perLayer derives the per-layer metrics; BENCHMARK.json lists the same
// names, and README.md says which end-to-end metric each should move.
func perLayer(in layerInputs) []namedMetric {
	d := in.d
	us := func(hist string, q float64) float64 {
		h, _ := obs.FindHist(d, hist)
		return float64(obs.HistQuantile(h, q)) / 1e3
	}
	mean := func(hist string) float64 {
		h, _ := obs.FindHist(d, hist)
		return obs.HistMean(h)
	}
	ctr := func(name string) float64 { return float64(obs.FindCounter(d, name)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ros, commits := ctr("ro.txns"), ctr("commits")
	fol, fb := ctr("ro.follower"), ctr("ro.fallback")
	r := in.replay
	m := func(name, unit string, v float64) namedMetric { return namedMetric{name, metric{v, unit}} }
	return []namedMetric{
		m("server.txn_total_us.p50", "us", us("txn.total", 0.5)),
		m("server.txn_lock_wait_us.p50", "us", us("txn.lock_wait", 0.5)),
		m("server.txn_prepare_commit_us.p50", "us", us("txn.prepare_commit", 0.5)),
		m("server.txn_commit_wait_us.p50", "us", us("txn.commit_wait", 0.5)),
		m("server.ro_total_us.p50", "us", us("ro.total", 0.5)),
		m("server.ro_block_wait_us.p50", "us", us("ro.block_wait", 0.5)),
		m("server.ro_blocked_per_ro", "ratio", ratio(ctr("ro.blocked"), ros)),
		m("server.ro_skips_per_ro", "ratio", ratio(ctr("ro.skips"), ros)),
		m("server.ro_follower_share", "ratio", ratio(fol, fol+fb)),
		m("server.ro_fallbacks_per_ro", "ratio", ratio(fb, ros)),
		m("server.aborts_per_commit", "ratio", ratio(ctr("aborts"), commits)),
		m("server.apply_batch.mean", "count", mean("apply.batch_size")),
		m("server.apply_queue_depth.mean", "count", mean("apply.queue_depth")),
		m("locks.wounds_per_commit", "ratio", ratio(ctr("txn.wounds"), commits)),
		m("locks.replay_ns_per_txn", "ns", r.locksNSPerTxn),
		m("locks.replay_allocs_per_txn", "count", r.locksAllocsPerTxn),
		m("mvstore.replay_write_ns", "ns", r.mvWriteNS),
		m("mvstore.replay_read_ns", "ns", r.mvReadNS),
		m("mvstore.replay_allocs_per_write", "count", r.mvAllocsPerWrite),
		m("mvstore.versions_per_key", "count", in.versions),
		m("wal.replay_us_per_batch", "us", in.wal.usPerBatch),
		m("wal.replay_allocs_per_record", "count", in.wal.allocsPerRecord),
		m("wal.replay_bytes_per_record", "B", in.wal.bytesPerRecord),
		m("wal.recovery_s", "s", in.wal.recoveryS),
		m("repl.append_batch.mean", "count", mean("repl.append_batch")),
		m("repl.ack_lag_us.p50", "us", us("repl.ack_lag_chan", 0.5)),
		m("netio.batch_occupancy.mean", "count", mean("net.batch_occupancy")),
		m("wire.replay_encode_ns", "ns", r.wireEncodeNS),
		m("wire.replay_decode_ns", "ns", r.wireDecodeNS),
		m("wire.replay_decode_allocs", "count", r.wireDecodeAllocs),
		m("kvclient.ro_outside_server_us.p50", "us", in.roP50-us("ro.total", 0.5)),
		m("kvclient.rw_outside_server_us.p50", "us", in.rwP50-us("txn.total", 0.5)),
		m("history.check_ns_per_op", "ns", in.checkNS/in.histOps),
		m("history.check_allocs_per_op", "count", in.checkAllocs/in.histOps),
		m("history.written_keys", "count", in.writtenKeys),
		m("loadgen.gen_ns_per_op", "ns", in.genNS/in.n),
		m("runtime.gc_cycles_per_kop", "count", in.gcCycles/(in.n/1e3)),
	}
}
