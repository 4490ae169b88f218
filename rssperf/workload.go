package main

import (
	"math/rand"
	"time"

	"rsskv/internal/server"
	"rsskv/internal/workload"
)

// opSpec is one generated operation: a snapshot read-only transaction of
// reads, or a read-write transaction reading reads and writing writes.
type opSpec struct {
	ro     bool
	reads  []string
	writes []string
}

// benchWorkload describes one traffic mix and the server it runs against.
type benchWorkload struct {
	name string
	// keys is the number of preloaded keys, workload.KeyName(0..keys-1).
	keys int
	// opsPerSecond sets the run's fixed operation count: --seconds times
	// this. A fixed count keeps history size and check cost independent
	// of speed; the rate is set so that timed phase and checks together
	// take about --seconds on a 2-core host.
	opsPerSecond int
	// checkRuns is how many times the history check is timed; check_s is
	// the median. A check of a few seconds is repeated to steady it; a
	// long one runs once to keep the run within its time.
	checkRuns int
	config    func() server.Config
	// newGen returns a session's generator. It is called once per
	// session; generators share only read-only state.
	newGen func() func(rng *rand.Rand) opSpec
}

const (
	sessions      = 8
	warmupPerSess = 128
	setupRounds   = 11
)

var workloads = []*benchWorkload{
	{
		name:         "retwis-replicated",
		keys:         retwisKeys,
		opsPerSecond: 16000,
		checkRuns:    1,
		config: func() server.Config {
			return server.Config{Shards: 4, Replicas: 2}
		},
		newGen: func() func(*rand.Rand) opSpec {
			rw := workload.NewRetwis(workload.Scrambled(retwisZipf))
			return func(rng *rand.Rand) opSpec {
				t := rw.Next(rng)
				if t.IsReadOnly() {
					return opSpec{ro: true, reads: t.ReadKeys}
				}
				return opSpec{reads: t.ReadKeys, writes: t.WriteKeys}
			}
		},
	},
	{
		name:         "hot-contended",
		keys:         hotKeys,
		opsPerSecond: 20000,
		checkRuns:    3,
		config: func() server.Config {
			return server.Config{Shards: 4, CommitEstimate: hotCommitEstimate}
		},
		newGen: func() func(*rand.Rand) opSpec {
			return func(rng *rand.Rand) opSpec {
				if rng.Float64() < hotROFrac {
					return opSpec{ro: true, reads: distinctKeys(rng, hotKeys, 3)}
				}
				ks := distinctKeys(rng, hotKeys, 2)
				return opSpec{reads: ks, writes: ks}
			}
		},
	},
}

const (
	hotKeys           = 32
	hotROFrac         = 0.8
	hotCommitEstimate = 200 * time.Microsecond
)

// retwisKeys is the Retwis key space. The history check's per-key pass
// costs written keys × operations, so the key count bounds how many
// operations a run can check in its time.
const retwisKeys = 1000

// retwisZipf is built once: construction is O(keys), draws are read-only.
var retwisZipf = workload.NewZipf(retwisKeys, 0.75)

// distinctKeys draws n distinct keys uniformly from the first n keys.
func distinctKeys(rng *rand.Rand, keys, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		k := workload.KeyName(uint64(rng.Intn(keys)))
		dup := false
		for _, o := range out {
			dup = dup || o == k
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
