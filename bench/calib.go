package main

import (
	"math"
	"time"
)

// The recording host is a 2-CPU virtual machine whose neighbours slow it
// down by anything up to a factor of two, for minutes at a time (the
// kernel reports the stolen time). Medians inside a window cannot remove a
// slowdown that covers the whole window, but the ratio of two legs
// interleaved in one round stays within a few percent through such an
// episode. So every round also times a fixed reference kernel, and the
// durations of CPU-bound legs are scaled by nominal/measured kernel time:
// a run reports the time the work would have taken on the host at its
// nominal speed.
//
// The kernel is pure Go in this directory — a change to the VM cannot
// speed it up — and shaped like the thing measured: a switch-dispatched
// stack machine over an instruction array, so that what slows the
// interpreter (a busy SMT sibling, a cold cache after a steal) slows it
// about as much.

// refNominalSeconds is the kernel's median time on the recording host
// (Xeon @ 2.10GHz, KVM, 2 vCPUs) while nothing else ran. It is a constant
// so that runs, commits and hosts are scaled to the same speed.
const refNominalSeconds = 160e-6

const (
	refSteps = 60_000
	refReps  = 5
)

var refProgram = func() []uint8 {
	// push, push, add, store, load, dup, mul, xor, branch-back …
	p := make([]uint8, 64)
	for i := range p {
		p[i] = uint8((i*7 + 3) % 8)
	}
	return p
}()

var refSink int64

// refKernel interprets refSteps instructions of refProgram.
func refKernel() {
	var (
		stack [16]int64
		mem   [256]int64
		sp    = 4
		pc    int
		acc   int64 = 1
	)
	for i := 0; i < refSteps; i++ {
		op := refProgram[pc&63]
		pc++
		switch op {
		case 0:
			stack[sp&15] = acc
			sp++
		case 1:
			sp--
			acc += stack[sp&15]
		case 2:
			mem[acc&255] = acc
		case 3:
			acc ^= mem[(acc>>3)&255]
		case 4:
			acc = acc*31 + int64(i)
		case 5:
			if acc&1 == 0 {
				pc += 3
			}
		case 6:
			stack[(sp-1)&15] += acc
		default:
			acc = (acc << 1) | (acc >> 62 & 1)
		}
	}
	refSink += acc
}

// hostScale times the reference kernel and returns nominal/measured: the
// factor that turns a duration measured now into nominal-host time.
func hostScale() float64 {
	times := make([]float64, refReps)
	for i := range times {
		t0 := time.Now()
		refKernel()
		times[i] = time.Since(t0).Seconds()
	}
	return math.Max(0.1, math.Min(2, refNominalSeconds/median(times)))
}
