package main

import (
	"errors"
	"fmt"
	"sort"

	"rsskv/internal/core"
	"rsskv/internal/history"
)

// The output checks rest on the recorded history alone, never on the
// server's own view of its state.

// finalState is each key's value under its highest-version completed
// write: what a snapshot after the run must return, and what a durable
// server must still hold after reopening.
func finalState(h *history.History) map[string]string {
	type last struct {
		v   string
		ver int64
	}
	m := map[string]last{}
	for _, op := range h.Ops {
		if !op.Complete() {
			continue
		}
		for k, v := range op.Writes {
			if l, ok := m[k]; !ok || op.Version > l.ver {
				m[k] = last{v, op.Version}
			}
		}
	}
	out := make(map[string]string, len(m))
	for k, l := range m {
		out[k] = l.v
	}
	return out
}

// compareState reports the first key whose read value differs from the
// state derived from the history.
func compareState(what string, want, got map[string]string) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("%s: key %s reads %q, history's last write is %q", what, k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: read %d keys, history wrote %d", what, len(got), len(want))
	}
	return nil
}

// staleCopy returns a copy of h in which one snapshot read of some key k
// is rewritten to return the version immediately before a write of k
// that completed before the read was invoked — a read RSS forbids. The
// read chosen is the first qualifying one at or after op ID from.
func staleCopy(h *history.History, from int64) (*history.History, string, error) {
	type w struct {
		op  *core.Op
		val string
	}
	chains := map[string][]w{}
	for _, op := range h.Ops {
		if op.Complete() {
			for k, v := range op.Writes {
				chains[k] = append(chains[k], w{op, v})
			}
		}
	}
	pos := map[string]map[string]int{}
	for k, ch := range chains {
		sort.Slice(ch, func(i, j int) bool { return ch[i].op.Version < ch[j].op.Version })
		pos[k] = make(map[string]int, len(ch))
		for i, x := range ch {
			pos[k][x.val] = i
		}
	}
	for i, op := range h.Ops {
		if op.Type != core.ROTxn || !op.Complete() || op.ID < from {
			continue
		}
		keys := make([]string, 0, len(op.Reads))
		for k := range op.Reads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p, ok := pos[k][op.Reads[k]]
			if !ok || p == 0 || chains[k][p].op.Respond >= op.Invoke {
				continue
			}
			prev := chains[k][p-1]
			c := *op
			c.Reads = make(map[string]string, len(op.Reads))
			c.ReadVers = make(map[string]int64, len(op.Reads))
			for kk, v := range op.Reads {
				c.Reads[kk] = v
				c.ReadVers[kk] = op.ReadVers[kk]
			}
			c.Reads[k], c.ReadVers[k] = prev.val, prev.op.Version
			out := &history.History{Ops: append([]*core.Op(nil), h.Ops...)}
			out.Ops[i] = &c
			desc := fmt.Sprintf("op %d reads %s=%s, before op %d's completed write", op.ID, k, prev.val, chains[k][p].op.ID)
			return out, desc, nil
		}
	}
	return nil, "", errors.New("stale-read copy: no snapshot read follows a completed overwrite")
}

// checkStaleRejected requires the checker to reject the stale-read copy
// with a consistency violation (not a malformed-history error).
func checkStaleRejected(h *history.History, from int64) (string, error) {
	bad, desc, err := staleCopy(h, from)
	if err != nil {
		return "", err
	}
	err = history.Check(bad, core.RSS)
	var v *history.Violation
	if !errors.As(err, &v) {
		return "", fmt.Errorf("stale-read copy (%s) not rejected as an RSS violation: %v", desc, err)
	}
	return desc, nil
}
