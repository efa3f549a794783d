package engine

import "sync"

// freeList recycles values (GEMM pack panels, per-call bookkeeping)
// through a mutex-guarded LIFO. sync.Pool does not fit the engine's
// steady-state allocation contract: it keeps a returned value on the P
// that returned it and empties across two GC cycles, so a warm Forward
// would re-allocate (the 1 MiB B panel, the liveness slices) whenever
// its goroutine migrates between Ps or a forced GC completes a cycle
// already in progress. The list holds at most as many values as were
// ever in use at once. The zero value is an empty list whose get
// returns T's zero value.
type freeList[T any] struct {
	// New, if set, makes a value when the list is empty.
	New func() T

	mu   sync.Mutex
	free []T
}

// get pops a recycled value, or makes one when the list is empty.
func (l *freeList[T]) get() T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		v := l.free[n-1]
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	if l.New == nil {
		var zero T
		return zero
	}
	return l.New()
}

// put recycles a value for a later get.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
