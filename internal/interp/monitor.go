package interp

import (
	"fmt"
	"sync"

	"ijvm/internal/heap"
)

// Object monitors are guarded by a striped lock table: every object
// carries an immutable stripe index assigned at allocation
// (heap.Object.MonitorStripe), and all reads/writes of its Monitor word
// (Owner, Count) happen under the selected stripe mutex. The word lives
// in the object's cold record, which heap.Object.Monitor attaches the
// first time the object is locked (racing lockers agree on one record);
// every site below resolves the word before it takes the stripe, so the
// possible host allocation never happens under a stripe. Uncontended
// monitorenter/monitorexit therefore touch one stripe lock and never a
// VM-global mutex — under the concurrent scheduler, shards locking
// unrelated objects no longer serialize on each other.
//
// The park/wake bookkeeping (thread states, blockedOn/waitingOn, the
// wait sets in VM.waiters, sleep deadlines) stays under VM.schedMu.
//
// # Lock ordering
//
// schedMu -> stripe. A stripe may be taken alone (the enter/exit fast
// paths) or nested under schedMu (wait/notify, blocked-thread promotion,
// the kill path's force-release); schedMu is never acquired while a
// stripe is held, and stripes are leaf locks — no allocation and no
// other VM lock under them. Two stripes are never held at once.
//
// # Why the enter/park window is safe
//
// A failed tryAcquireMonitor followed by blockOnMonitor leaves a window
// in which the owner may release the monitor (stripe only) before the
// loser parks (schedMu). The release's notifyThreadsChanged may then
// find nothing to wake, or — the loser not being counted in
// VM.waitingOnOthers yet — not call the scheduler at all: the same
// window the schedMu-serialized design had, because try and park were
// separate critical sections there too. Both schedulers close it by
// polling: the sequential engine re-polls promoteLocked every scheduling
// round, and the concurrent pool re-polls promotability in
// finishSliceLocked before idling a shard (see the comment there). A
// join has the same window (the target finishes between Join's Done
// check and the park) and the same poll closes it. Once a thread is
// parked it is counted — setState runs under schedMu, which every park
// takes — so a later release or finish reads a non-zero gauge.
// Wait/notify has no such window: MonitorWait holds schedMu across the
// monitor release AND the wait-set insertion, and a notifier must hold
// schedMu to read the wait set, so a notify can never fall between them.

// monStripeCount is the size of the striped monitor-lock table (power of
// two; the object's 8-bit stripe index is masked into it).
const monStripeCount = 64

// monStripe returns the stripe mutex guarding obj's Monitor word.
func (vm *VM) monStripe(obj *heap.Object) *sync.Mutex {
	return &vm.monStripes[obj.MonitorStripe()&(monStripeCount-1)]
}

// tryAcquireMonitor attempts to lock obj for t without blocking. It
// returns true on success (including recursive acquisition). Stripe
// only: the uncontended monitorenter fast path.
func (vm *VM) tryAcquireMonitor(t *Thread, obj *heap.Object) bool {
	m, mu := obj.Monitor(), vm.monStripe(obj)
	mu.Lock()
	defer mu.Unlock()
	switch m.Owner {
	case 0:
		m.Owner = t.id
		m.Count = 1
		return true
	case t.id:
		m.Count++
		return true
	default:
		return false
	}
}

// blockOnMonitor parks t until obj's monitor is free (attack A2 is exactly
// a thread parked here forever in the baseline VM).
func (vm *VM) blockOnMonitor(t *Thread, obj *heap.Object) {
	vm.schedMu.Lock()
	t.setState(StateBlockedMonitor)
	t.blockedOn = obj
	vm.schedMu.Unlock()
}

// releaseMonitor fully releases one recursion level of obj held by t;
// used by monitorexit and frame unwinding of synchronized methods.
func (vm *VM) releaseMonitor(t *Thread, obj *heap.Object) {
	m, mu := obj.Monitor(), vm.monStripe(obj)
	mu.Lock()
	freed := vm.releaseMonitorLocked(t, m)
	mu.Unlock()
	if freed {
		vm.notifyThreadsChanged()
	}
}

// releaseMonitorLocked is releaseMonitor under the stripe of m's object;
// it reports whether the monitor became free.
func (vm *VM) releaseMonitorLocked(t *Thread, m *heap.Monitor) bool {
	if m.Owner != t.id {
		// Unwinding a frame whose monitor was force-released (isolate
		// termination) — nothing to do.
		return false
	}
	m.Count--
	if m.Count <= 0 {
		m.Owner = 0
		m.Count = 0
		return true
	}
	return false
}

// monitorExitChecked implements the monitorexit bytecode with the
// IllegalMonitorStateException check. Stripe only: the uncontended
// monitorexit fast path.
func (vm *VM) monitorExitChecked(t *Thread, obj *heap.Object) (ok bool) {
	m, mu := obj.Monitor(), vm.monStripe(obj)
	mu.Lock()
	if m.Owner != t.id {
		mu.Unlock()
		return false
	}
	freed := vm.releaseMonitorLocked(t, m)
	mu.Unlock()
	if freed {
		vm.notifyThreadsChanged()
	}
	return true
}

// MonitorWait implements Object.wait(timeoutTicks): the calling thread
// must own the monitor; it releases it fully, parks, and re-acquires on
// wake, staging a void resume. timeoutTicks <= 0 waits until notified or
// interrupted. A pending interrupt returns ErrInterrupted with the monitor
// still held. schedMu
// is held across the monitor release and the wait-set insertion, so a
// racing notify (which requires schedMu) observes either a still-owned
// monitor or a fully registered waiter — never the gap between.
func (vm *VM) MonitorWait(t *Thread, obj *heap.Object, timeoutTicks int64) error {
	now := vm.NowTicks() // before schedMu: exact, and keeps the locks leaf-bound
	m, mu := obj.Monitor(), vm.monStripe(obj)
	vm.schedMu.Lock()
	mu.Lock()
	if m.Owner != t.id {
		mu.Unlock()
		vm.schedMu.Unlock()
		return fmt.Errorf("wait without ownership")
	}
	if t.takeInterruptLocked() {
		mu.Unlock()
		vm.schedMu.Unlock()
		return ErrInterrupted
	}
	t.savedLock = m.Count
	m.Owner = 0
	m.Count = 0
	mu.Unlock()
	t.setState(StateWaitingMonitor)
	t.waitingOn = obj
	if timeoutTicks > 0 {
		t.wakeAt = now + timeoutTicks
	} else {
		t.wakeAt = SleepForever
	}
	vm.addSleepGaugeLocked(t)
	vm.waiters[obj] = append(vm.waiters[obj], t)
	t.StageResumeVoid()
	vm.schedMu.Unlock()
	// Releasing the monitor may unblock threads parked on it.
	vm.notifyThreadsChanged()
	return nil
}

// MonitorNotify wakes one (or all) waiters of obj; woken threads move to
// the blocked-on-monitor state and re-acquire before returning from wait.
func (vm *VM) MonitorNotify(t *Thread, obj *heap.Object, all bool) error {
	m, mu := obj.Monitor(), vm.monStripe(obj)
	vm.schedMu.Lock()
	mu.Lock()
	owner := m.Owner
	mu.Unlock()
	// The ownership check stays exact after the stripe unlock: only t can
	// release a monitor t owns, and t is right here.
	if owner != t.id {
		vm.schedMu.Unlock()
		return fmt.Errorf("notify without ownership")
	}
	waiters := vm.waiters[obj]
	if len(waiters) == 0 {
		vm.schedMu.Unlock()
		return nil
	}
	n := 1
	if all {
		n = len(waiters)
	}
	woken := append([]*Thread(nil), waiters[:n]...)
	for _, w := range woken {
		vm.wakeWaiterLocked(w, obj)
	}
	rest := waiters[n:]
	if len(rest) == 0 {
		delete(vm.waiters, obj)
	} else {
		vm.waiters[obj] = append([]*Thread(nil), rest...)
	}
	vm.schedMu.Unlock()
	for _, w := range woken {
		vm.notifyUnparked(w)
	}
	return nil
}

// wakeWaiterLocked transitions a waiting thread to monitor
// re-acquisition. schedMu held.
func (vm *VM) wakeWaiterLocked(w *Thread, obj *heap.Object) {
	if w.State() != StateWaitingMonitor {
		return
	}
	vm.removeSleepGaugeLocked(w)
	w.setState(StateBlockedMonitor)
	w.blockedOn = obj
	w.waitingOn = nil
	w.wakeAt = 0
}

// removeWaiterLocked drops t from obj's wait set (timeout/interrupt
// paths). schedMu held.
func (vm *VM) removeWaiterLocked(t *Thread, obj *heap.Object) {
	waiters := vm.waiters[obj]
	for i, w := range waiters {
		if w == t {
			vm.waiters[obj] = append(waiters[:i], waiters[i+1:]...)
			break
		}
	}
	if len(vm.waiters[obj]) == 0 {
		delete(vm.waiters, obj)
	}
}

// addSleepGaugeLocked bumps the sleeping-threads gauge of the isolate the
// thread is currently executing in (attack A7 detection: "I-JVM inspects
// the current bundle of each thread and counts the number of sleeping
// threads in a bundle"). schedMu held.
func (vm *VM) addSleepGaugeLocked(t *Thread) {
	if t.cur == nil || t.sleepGauge != nil {
		return
	}
	t.cur.Account().SleepingThreads.Add(1)
	t.sleepGauge = t.cur
}

// removeSleepGaugeLocked undoes addSleepGaugeLocked. schedMu held.
func (vm *VM) removeSleepGaugeLocked(t *Thread) {
	if t.sleepGauge == nil {
		return
	}
	t.sleepGauge.Account().SleepingThreads.Add(-1)
	t.sleepGauge = nil
}
