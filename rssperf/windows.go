package main

import (
	"sort"
	"sync/atomic"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/sim"
)

// windows is how many windows of equal operation count the timed phase
// is cut into. Throughput, latency quantiles and CPU per operation are
// computed per window and reported as the median over windows: on a
// shared 2-core host scheduling and loopback speed wander on a scale of
// fractions of a second, and a median over windows is not moved by the
// few windows such a stall lands in.
const windows = 20

// meter records the history-clock time and the process CPU time at the
// end of each window. The operation that completes a window records it.
type meter struct {
	base time.Time
	per  int64
	done atomic.Int64
	ends []sim.Time // ends[0] is the start of the timed phase
	cpu  []time.Duration
}

func newMeter(base time.Time, total int) *meter {
	m := &meter{
		base: base,
		per:  int64(total / windows),
		ends: make([]sim.Time, windows+1),
		cpu:  make([]time.Duration, windows+1),
	}
	m.ends[0], m.cpu[0] = sim.Time(time.Since(base).Nanoseconds()), cpuTime()
	return m
}

// tick counts one completed operation.
func (m *meter) tick() {
	if m == nil {
		return
	}
	if c := m.done.Add(1); c%m.per == 0 && c/m.per <= windows {
		m.ends[c/m.per], m.cpu[c/m.per] = sim.Time(time.Since(m.base).Nanoseconds()), cpuTime()
	}
}

// windowStats is one window's throughput, CPU per operation and
// latency quantiles (µs).
type windowStats struct {
	opsPerS, cpuUSPerOp        float64
	roP50, roP95, rwP50, rwP95 float64
}

// perWindow splits the completed timed operations by the window their
// response fell in and computes each window's figures.
func (m *meter) perWindow(ops []*core.Op) []windowStats {
	ro := make([][]int64, windows)
	rw := make([][]int64, windows)
	for _, op := range ops {
		if !op.Complete() {
			continue
		}
		i := sort.Search(windows, func(i int) bool { return op.Respond <= m.ends[i+1] })
		if i == windows {
			i = windows - 1
		}
		if op.Type == core.ROTxn {
			ro[i] = append(ro[i], int64(op.Respond-op.Invoke))
		} else {
			rw[i] = append(rw[i], int64(op.Respond-op.Invoke))
		}
	}
	out := make([]windowStats, windows)
	for i := range out {
		sortInts(ro[i])
		sortInts(rw[i])
		out[i] = windowStats{
			opsPerS:    float64(m.per) / (float64(m.ends[i+1]-m.ends[i]) / 1e9),
			cpuUSPerOp: float64(m.cpu[i+1]-m.cpu[i]) / 1e3 / float64(m.per),
			roP50:      quantile(ro[i], 0.50) / 1e3,
			roP95:      quantile(ro[i], 0.95) / 1e3,
			rwP50:      quantile(rw[i], 0.50) / 1e3,
			rwP95:      quantile(rw[i], 0.95) / 1e3,
		}
	}
	return out
}

// medianOf is the median over windows of one figure.
func medianOf(ws []windowStats, f func(windowStats) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

func sortInts(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
