package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call from the benchmark into a layer's public function.
// Parent is the index of the enclosing span in the buffer (-1 for a
// root) and Op the operation the call served (-1 for set-up work), so
// the spans of one op share an identifier.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer is an in-memory span buffer written out when the benchmark
// ends. A nil *tracer records nothing, so untraced phases pay one
// branch per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// record adds an already finished span, for stages the benchmark
// learns about only from a call's result.
func (t *tracer) record(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNs: start.Sub(t.t0).Nanoseconds(),
		EndNs: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	t.mu.Unlock()
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type spanStat struct {
	name    string
	count   int
	totalMs float64
	selfMs  float64
}

func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*spanStat{}
	for i, s := range t.spans {
		if s.EndNs < s.StartNs {
			continue // never closed
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{name: s.Name}
			byName[s.Name] = st
		}
		dur := float64(s.EndNs-s.StartNs) / 1e6
		st.count++
		st.totalMs += dur
		st.selfMs += dur - float64(coveredNs(s, t.spans, children[i]))/1e6
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].totalMs > out[j].totalMs })
	return out
}

// coveredNs is the length of the union of the child intervals clipped
// to the parent's interval.
func coveredNs(parent span, all []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(all[k].StartNs, parent.StartNs), min(all[k].EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if !open || v.lo > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

func (t *tracer) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range t.stats() {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", s.name, s.count, s.totalMs, s.selfMs)
	}
}

// writeFile dumps the buffer as one JSON array.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
