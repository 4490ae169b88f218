// Command rssperf is the rsskv end-to-end benchmark. It runs an
// in-process server over loopback sockets, drives it in a closed loop
// from 8 sessions over at most GOMAXPROCS client connections, records
// every operation's history, checks the outputs, and prints one JSON
// result line:
//
//	rssperf --workload retwis-replicated --seed 1 --seconds 5 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of the same workload and
// seed, and the spans are written under --out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/kvclient"
	"rsskv/internal/wire"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length: the run executes seconds × the workload's nominal rate operations")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for data directories and trace files")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: rssperf --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, *out)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "rssperf:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rssperf:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, "|")
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// bench runs one workload end to end. A nil result with an error means
// the run could not be made; a result with an error means a check failed.
func bench(w *benchWorkload, seed int64, seconds int, traced bool, outDir string) (*result, error) {
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base, -1)
	}
	dataDir, err := filepath.Abs(filepath.Join(outDir, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)

	// Set up several times and keep the last; setup_s is the median.
	var setups []float64
	var e *env
	for i := 0; i < setupRounds; i++ {
		if e != nil {
			e.close()
		}
		sp := tr.begin("setup", -1)
		t0 := time.Now()
		e, err = setup(w, seed, base, tr, sp)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	var scrape *kvclient.Client
	var before *wire.MetricsPayload
	if traced {
		if scrape, err = kvclient.Dial(e.srv.Addr(), kvclient.Options{Conns: 1}); err != nil {
			e.close()
			return nil, err
		}
		if before, err = scrape.Metrics(); err != nil {
			e.close()
			return nil, fmt.Errorf("scrape metrics: %w", err)
		}
	}

	// Timed phase: a fixed number of operations, a whole number of
	// windows of whole rounds of the sessions.
	perSession := (seconds*w.opsPerSecond + sessions*windows - 1) / (sessions * windows) * windows
	var sessTr []*tracer
	for _, ss := range e.sess {
		if traced {
			ss.tr = newTracer(base, int32(ss.id))
			ss.tr.reserve(perSession * 6)
			sessTr = append(sessTr, ss.tr)
		}
	}
	runtime.GC()
	ms0 := memStats()
	timedSpan := tr.begin("timed", -1)
	t0 := time.Now()
	e.meter = newMeter(base, perSession*sessions)
	e.runAll(perSession)
	elapsed := time.Since(t0)
	tr.end(timedSpan)
	ms1 := memStats()

	var delta *wire.MetricsPayload
	if traced {
		after, err := scrape.Metrics()
		scrape.Close()
		if err != nil {
			e.close()
			return nil, fmt.Errorf("scrape metrics: %w", err)
		}
		delta = metricsDelta(before, after)
	}
	runtime.GC()
	liveHeap := memStats().HeapAlloc

	timed := e.timedOps()
	attempted := len(timed)
	var done []*core.Op
	for _, op := range timed {
		if op.Complete() {
			done = append(done, op)
		}
	}
	failed := attempted - len(done)
	n := float64(len(done))
	if n == 0 {
		e.close()
		return nil, fmt.Errorf("no operation completed")
	}
	ro, rw := latencies(done)
	win := e.meter.perWindow(done)
	h := e.history()
	res := &result{Correct: true, Attempted: attempted, Failed: failed}
	var checkErrs []string
	fail := func(err error) {
		res.Correct = false
		checkErrs = append(checkErrs, err.Error())
	}
	for _, ss := range e.sess {
		if ss.err != nil {
			fail(fmt.Errorf("session %d stopped at a failed operation: %w", ss.id, ss.err))
		}
	}

	// Output checks against the state derived from the history.
	want := finalState(h)
	if got, err := readAll(e.srv.Addr(), w.keys); err != nil {
		fail(fmt.Errorf("final snapshot: %w", err))
	} else if err := compareState("final snapshot", want, got); err != nil {
		fail(err)
	}
	e.close()
	// Durability at the log layer: the run's commits go through a fresh
	// write-ahead log and must all come back when it is reopened.
	wr, err := walRoundTrip(tr, filepath.Join(dataDir, "wal"), h.Ops)
	if err != nil {
		fail(err)
	}

	// check_s is the median of the workload's checkRuns checks; the
	// allocations are those of the first.
	var checks []float64
	var checkAllocs uint64
	for i := 0; i < w.checkRuns; i++ {
		sp := tr.begin("history.Check", -1)
		m0 := memStats().Mallocs
		t := time.Now()
		err = history.Check(h, core.RSS)
		checks = append(checks, time.Since(t).Seconds())
		if i == 0 {
			checkAllocs = memStats().Mallocs - m0
		}
		tr.end(sp)
		if err != nil {
			fail(fmt.Errorf("RSS check: %w", err))
			break
		}
	}
	checkS := median(checks)
	staleDesc, err := checkStaleRejected(h, e.sess[0].ops[e.sess[0].first].ID)
	if err != nil {
		fail(err)
	}

	med := func(f func(windowStats) float64) float64 { return medianOf(win, f) }
	e2e := []namedMetric{
		{"setup_s", metric{median(setups), "s"}},
		{"ops_per_s", metric{med(func(w windowStats) float64 { return w.opsPerS }), "ops/s"}},
		{"ro_p50_us", metric{med(func(w windowStats) float64 { return w.roP50 }), "us"}},
		{"ro_p95_us", metric{med(func(w windowStats) float64 { return w.roP95 }), "us"}},
		{"rw_p50_us", metric{med(func(w windowStats) float64 { return w.rwP50 }), "us"}},
		{"rw_p95_us", metric{med(func(w windowStats) float64 { return w.rwP95 }), "us"}},
		{"cpu_us_per_op", metric{med(func(w windowStats) float64 { return w.cpuUSPerOp }), "us"}},
		{"allocs_per_op", metric{float64(ms1.Mallocs-ms0.Mallocs) / n, "count"}},
		{"alloc_bytes_per_op", metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / n, "B"}},
		{"live_heap_mb", metric{float64(liveHeap) / 1e6, "MB"}},
		{"check_s", metric{checkS, "s"}},
	}
	fmt.Printf("workload %s seed %d trace %v: %d operations attempted, %d failed, %.2fs timed (%.0f ops/s overall), %d windows\n",
		w.name, seed, traced, attempted, failed, elapsed.Seconds(), n/elapsed.Seconds(), windows)
	fmt.Printf("samples: %d snapshot reads, %d read-write; history %d ops; setup rounds %d\n",
		len(ro), len(rw), len(h.Ops), len(setups))
	fmt.Printf("ro tail: p99 %.1f us, p99.9 %.1f us (%d samples); rw tail: p99 %.1f us, p99.9 %.1f us (%d samples)\n",
		quantile(ro, 0.99)/1e3, quantile(ro, 0.999)/1e3, len(ro), quantile(rw, 0.99)/1e3, quantile(rw, 0.999)/1e3, len(rw))
	for _, m := range e2e {
		fmt.Printf("  %-20s %14.4f %s\n", m.name, m.Value, m.Unit)
	}
	if staleDesc != "" {
		fmt.Printf("check: stale-read copy rejected (%s)\n", staleDesc)
	}
	if res.Correct {
		fmt.Printf("check: history is RSS; final state of %d keys matches the history; the write-ahead log recovers all of the run's commits\n", len(want))
	}

	out := e2e
	if traced {
		var rr replayResult
		rr, err = replay(tr, h.Ops, done)
		if err != nil {
			fail(err)
		}
		var genNS int64
		for _, st := range sessTr {
			for _, s := range st.spans {
				if s.name == "loadgen.gen" || s.name == "loadgen.record" {
					genNS += s.end - s.start
				}
			}
		}
		in := layerInputs{
			d: delta, n: n, roP50: quantile(ro, 0.5) / 1e3, rwP50: quantile(rw, 0.5) / 1e3, wal: wr,
			checkNS: checkS * 1e9, checkAllocs: float64(checkAllocs), histOps: float64(len(h.Ops)),
			genNS: float64(genNS), gcCycles: float64(ms1.NumGC - ms0.NumGC), replay: rr,
		}
		in.writtenKeys, in.versions = writtenKeys(h)
		out = perLayer(in)
		summary := map[string]any{"workload": w.name, "seed": seed, "end_to_end": toMap(e2e), "per_layer": toMap(out), "server_metrics": delta}
		path, err := writeTrace(filepath.Join(outDir, "traces"), fmt.Sprintf("%s-seed%d", w.name, seed), flatten(tr, sessTr, timedSpan), summary)
		if err != nil {
			fail(fmt.Errorf("write trace: %w", err))
		} else {
			fmt.Printf("trace written to %s\n", path)
		}
		for _, m := range out {
			fmt.Printf("  %-36s %14.4f %s\n", m.name, m.Value, m.Unit)
		}
	}
	res.Metrics = toMap(out)
	if !res.Correct {
		return res, fmt.Errorf("output check failed: %s", strings.Join(checkErrs, "; "))
	}
	return res, nil
}

func toMap(ms []namedMetric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{v, m.Unit}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// writtenKeys counts the distinct keys the history writes and the
// versions it installs per written key (no version is ever collected).
func writtenKeys(h *history.History) (keys, versionsPerKey float64) {
	seen := map[string]int{}
	for _, op := range h.Ops {
		if op.Complete() {
			for k := range op.Writes {
				seen[k]++
			}
		}
	}
	var vs int
	for _, n := range seen {
		vs += n
	}
	if len(seen) == 0 {
		return 0, 0
	}
	return float64(len(seen)), float64(vs) / float64(len(seen))
}
