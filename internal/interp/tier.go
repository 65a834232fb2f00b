package interp

import (
	"ijvm/internal/classfile"
	"ijvm/internal/core"
)

// This file holds the quantum-accounting bridge that lets a chain of
// closure-threaded blocks (closure.go) execute many guest instructions
// inside one engine step without disturbing any observable contract:
//
//   - instruction counts: every sub-instruction is charged through the
//     exact per-instruction sequence of the quantum routine
//     (RunThreadQuantum, the same under both drivers), so per-isolate
//     accounts, CPU sampling and the virtual clock end every step where
//     single-step execution would have them;
//   - quantum/budget boundaries: a block only executes compiled — as a
//     step's first block or as the next link of its chain — when the
//     whole block still fits in the remaining quantum (reserve);
//     otherwise the step ends and the instruction at pc executes alone on
//     the reference switch, so the boundary lands exactly where
//     single-step execution would put it. The drivers already clamp the
//     quantum to the remaining run budget, so budget exhaustion is covered
//     by the same check;
//   - safepoints: kill, shutdown and STW parking act only between engine
//     steps. A step retires at most maxStepSubs instructions whatever the
//     quantum, and nothing it inlines can reach a safepoint (only its
//     final — a real call or the instruction handed to the switch — can,
//     as the step's last act with the frame exact), so no
//     partially-applied block state is ever observable and the polls stay
//     a bounded number of instructions apart.
//
// The accountant is installed on the Thread (t.qa) only while the quantum
// routine is driving it; blocks bail to single-step execution when it is
// absent (host-driven stepping) or the block does not fit.

// quantumAcct is the instruction count of the running quantum, shared
// between the quantum routine and the closure blocks it dispatches. steps
// is the routine's own counter: it increments once per stepThread call
// (the step's final sub-instruction), and chargeSubs adds the
// sub-instructions the step inlined before it. published is how many of
// them the clock and the instruction total already hold — a sequential
// safepoint publishes mid-quantum (flushQuantum) — so steps − published
// is the virtual time still pending (NowTicks). spare and inl are
// block-local: spare is what the running block's call micros may retire
// in inlined leaves without the step passing the quantum or maxStepSubs,
// and inl what they did retire (a body and its return each), which
// runClosureBlock adds to the step's count after the block, before
// chargeSubs. It lives in the driver's SampleState, beside the batch and
// the sampling countdown it charges.
type quantumAcct struct {
	steps, limit, published int64
	spare, inl              int64
	// at is what the step retired before the running block. The rest is
	// what the step's migrating leaf calls (chargeCall) leave for
	// chargeSubs: charged is how many of the step's instructions the
	// sampling countdown already holds, away how many of them the callees
	// retired; mig is the callee of the calls not yet in the batch, calls
	// how many they are and migInstrs what they retired.
	at, charged, away int64
	mig               *core.Isolate
	calls, migInstrs  int64
	isolated          bool
	// callee is the target a call micro left for the step's final
	// sub-instruction (microCall) at site, or nil.
	callee *classfile.Method
	site   *callSite
}

// reserve reports whether extra inlined sub-instructions (on top of the
// final one the quantum routine charges) still fit in the quantum.
func (q *quantumAcct) reserve(extra int64) bool {
	return q.steps+extra < q.limit
}

// chargeSubs charges the k sub-instructions a step inlined, once, at the
// step's single exit, replicating the quantum routine's per-instruction
// accounting sequence in one arithmetically identical batched call:
// account notes batch through InstrBatch.NoteN and the CPU-sampling
// counter is folded modulo SampleEvery (floor((old+k)/every) samples,
// remainder kept), which is exactly what k unit increments with
// reset-at-threshold produce. A migrating leaf call charged its share of
// the step already, in order (chargeCall); what is left belongs to the
// isolate current at the exit. Inlined sub-instructions cannot migrate or
// finish the thread (only a step's final can, a real call included, and
// runClosureBlock charges before it; a migrating leaf restores the
// caller's isolate before its micro returns; the routine's own post-step
// charge covers the final itself), so reading t.cur here matches
// what the single-step loop would have read — and nothing can observe the
// intermediate counters mid-step (no safepoint, collection, throw, park or
// instruction-batch flush is reachable from a prefix micro; an allocation
// micro only notes bytes), so the batching is invisible to the
// differential oracle.
func (s *SampleState) chargeSubs(vm *VM, t *Thread, k int64) {
	if k <= 0 {
		return
	}
	s.steps += k
	if s.isolated {
		acct := t.cur.Account()
		if s.mig != nil {
			s.flushCalls(acct)
		}
		s.batch.NoteN(acct, k-s.away)
		s.sampleRun(vm, acct, k-s.charged)
		s.charged, s.away = 0, 0
	}
}

// sampleRun advances the CPU-sampling countdown by k consecutive
// instructions of acct, folded as k unit steps would: floor((old+k)/every)
// samples, remainder kept.
func (s *SampleState) sampleRun(vm *VM, acct *core.AccountCounters, k int64) {
	total := s.count + int(k)
	if every := vm.opts.SampleEvery; total >= every {
		acct.CPUSamples.Add(int64(total / every))
		total %= every
	}
	s.count = total
}

// chargeCall charges a migrating leaf call (closure.go callSite.enter)
// the way single-step execution does: the step's instructions before the
// invoke — the block's first off and whatever the chain and earlier leaves
// retired — to the caller, then the invoke and the body to the callee (inl
// instructions: as many as the body and its return); the return and the
// rest of the step go to the caller again when chargeSubs ends the step.
// Only the sampling countdown depends on that order, so it advances here,
// run by run; the instruction and call counts are sums, which the step
// hands to the batch once, at its exit (a call into a second callee in one
// step hands over the first one's first).
func (s *SampleState) chargeCall(vm *VM, caller, callee *core.Isolate, off, inl int64) {
	done := s.at + off + s.inl
	pre := done - s.charged
	s.charged = done + inl
	if s.mig != callee {
		if s.mig != nil {
			s.flushCalls(caller.Account())
		}
		s.mig = callee
	}
	s.calls++
	s.migInstrs += inl
	s.away += inl
	if total := s.count + int(pre+inl); total < vm.opts.SampleEvery {
		s.count = total
		return
	}
	s.sampleRun(vm, caller.Account(), pre)
	s.sampleRun(vm, callee.Account(), inl)
}

// flushCalls hands the pending migrating calls from the isolate whose
// account is from to the batch.
func (s *SampleState) flushCalls(from *core.AccountCounters) {
	s.batch.NoteCalls(from, s.mig.Account(), s.calls, s.migInstrs)
	s.mig, s.calls, s.migInstrs = nil, 0, 0
}

// noteCall counts one inter-isolate call (§3.1 migration) from the
// thread's previous isolate into to. Inside a quantum the count joins the
// driver's batch beside the instruction charges and is published at the
// same flush points; a host-side frame push (thread spawn) runs outside
// any quantum and publishes directly.
func (t *Thread) noteCall(from, to *core.Isolate) {
	if q := t.qa; q != nil {
		q.batch.NoteCall(from.Account(), to.Account())
		return
	}
	from.Account().InterBundleCallsOut.Add(1)
	to.Account().InterBundleCallsIn.Add(1)
}

// barrierOn is the per-quantum cached SATB barrier flag used by the
// closure store micros and the reference switch's stores in place of
// the heap's per-store atomic load. The flag is refreshed at every
// quantum start (both engines), on allocation-state acquisition, and
// after a sequential-engine world-stop (the only point where the barrier
// can arm or disarm mid-quantum on the executing goroutine); concurrent
// workers always end their quantum at a world-stop, so their next
// quantum re-reads the flag. A transiently stale ON is harmless (the
// heap drops SATB records when no cycle is open); a stale OFF cannot
// occur because arming happens only with the world stopped.
func (vm *VM) barrierOn(t *Thread) bool {
	if a := t.alloc; a != nil {
		return a.barrierOn
	}
	return vm.heap.BarrierActive()
}
