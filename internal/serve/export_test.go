package serve

import "sync"

// HoldRefillForTest waits out a refill pass in progress and keeps the
// refiller from starting another until resume is first called.
func (p *Pool) HoldRefillForTest() (resume func()) {
	p.refilling.Lock()
	return sync.OnceFunc(p.refilling.Unlock)
}
