package bytecode

import "sync/atomic"

// TierState is the per-PCode promotion state for the closure-threaded hot
// tier. Heat accumulates on method activation and at quantum boundaries;
// when it crosses the VM's promotion threshold the interpreter compiles a
// closure-threaded program for the method and publishes it here with a
// first-wins CAS (racing promoters adopt the winner).
type TierState struct {
	heat atomic.Int64
	hot  atomic.Value // holds the interpreter's closure program (opaque here)
}

// AddHeat adds n activation heat and returns the new total.
func (ts *TierState) AddHeat(n int64) int64 {
	return ts.heat.Add(n)
}

// Hot returns the published closure-threaded program, or nil.
func (ts *TierState) Hot() any {
	return ts.hot.Load()
}

// PublishHot installs the closure-threaded program if none is published
// yet. It reports whether p won; on false the caller should adopt Hot().
func (ts *TierState) PublishHot(p any) bool {
	return ts.hot.CompareAndSwap(nil, p)
}
