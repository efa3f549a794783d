package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of xs (0 when
// empty) and how many samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return s[k], len(s) - 1 - k
}

// tail picks the highest ladder percentile that still has at least
// minBeyond samples above it. With too few samples for any rung it
// falls back to the lowest rung, and the returned beyond count says
// so.
func tail(xs []float64, ladder []float64, minBeyond int) (value, pct float64, beyond int) {
	pct = ladder[0]
	value, beyond = percentile(xs, pct)
	for _, p := range ladder[1:] {
		v, b := percentile(xs, p)
		if b < minBeyond {
			break
		}
		value, pct, beyond = v, p, b
	}
	return value, pct, beyond
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's resident-set high-water mark, so the peak read afterwards
// belongs to the measured phase and not to the set-ups before it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return clearPeakRSS()
}

// clearPeakRSS restarts the resident-set high-water mark at the
// current resident set.
func clearPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// rssWindows records the resident-set high-water mark of consecutive
// windows of a phase: at the end of each window it reads the mark and
// restarts it. The median window peak is what peak_rss_mb reports. A
// whole-phase peak was a single rare event: on plan's 15 MB process,
// one late GC cycle grows the Go heap by a 4 MB step that the
// scavenger returns a little later, and the same seed read 14.9 or
// 19.6 MB from one run to the next.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func watchRSS(window time.Duration) *rssWindows {
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.read()
			case <-w.stop:
				w.read()
				return
			}
		}
	}()
	return w
}

func (w *rssWindows) read() {
	mb, err := peakRSSMB()
	if err == nil {
		err = clearPeakRSS()
	}
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.peaks = append(w.peaks, mb)
}

// finish closes the window in progress and returns every window's
// peak.
func (w *rssWindows) finish() ([]float64, error) {
	close(w.stop)
	<-w.done
	return w.peaks, w.err
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memSnap is the slice of runtime.MemStats the per-layer process
// metrics difference across a phase.
type memSnap struct {
	mallocs uint64
	pauseNs uint64
}

func readMem() memSnap {
	var s goruntime.MemStats
	goruntime.ReadMemStats(&s)
	return memSnap{mallocs: s.Mallocs, pauseNs: s.PauseTotalNs}
}

// cpuTicks is the total and the stolen jiffies of /proc/stat's cpu
// line; steal is time the hypervisor gave to other guests.
type cpuTicks struct{ total, steal float64 }

// readSteal reads the host CPU counters; zero when unavailable.
func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}
