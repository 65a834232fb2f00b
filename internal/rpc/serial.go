package rpc

import (
	"fmt"
	"sync"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// SerialLink replicates the original link architecture — one dedicated
// server goroutine, a whole-call mutex, one channel round trip per call
// — with the GC-safe rooted iterative copier swapped in. It exists as
// the benchmark baseline the pipelined Link is measured against
// (bench/: rpc.serial_calls_per_s vs link_calls_per_s) and as the sync leg
// of the differential oracle; it must not be used concurrently with a
// Hub on the same VM (both would drive the sequential engine).
type SerialLink struct {
	vm     *interp.VM
	caller *core.Isolate
	callee *core.Isolate
	method *classfile.Method
	recv   heap.Value

	mu        sync.Mutex
	reqs      chan serialRequest
	done      chan struct{}
	closed    bool
	recvRoots *interp.HostRoots
}

type serialRequest struct {
	args  []heap.Value
	roots *interp.HostRoots
	reply chan serialReply
}

type serialReply struct {
	value heap.Value
	err   error
}

// NewSerialLink starts the server goroutine for calls from caller into
// callee's method on receiver recv (Void for static methods).
func NewSerialLink(vm *interp.VM, caller, callee *core.Isolate, m *classfile.Method, recv heap.Value) *SerialLink {
	l := &SerialLink{
		vm:     vm,
		caller: caller,
		callee: callee,
		method: m,
		recv:   recv,
		reqs:   make(chan serialRequest),
		done:   make(chan struct{}),
	}
	if recv.IsRef() && recv.R != nil {
		l.recvRoots = vm.NewHostRoots(callee)
		l.recvRoots.Add(recv.R)
	}
	go l.serve()
	return l
}

func (l *SerialLink) serve() {
	defer close(l.done)
	for req := range l.reqs {
		req.reply <- l.dispatch(req)
	}
}

func (l *SerialLink) dispatch(req serialRequest) serialReply {
	callArgs := req.args
	if !l.method.IsStatic() {
		callArgs = append([]heap.Value{l.recv}, req.args...)
	}
	v, th, err := l.vm.CallRoot(l.callee, l.method, callArgs, CallBudget)
	if err != nil {
		return serialReply{err: err}
	}
	if th.Failure() != nil {
		return serialReply{err: fmt.Errorf("rpc: remote exception: %s", th.FailureString())}
	}
	// Keep the result rooted until the caller-side copy completes.
	req.roots.AddValue(v)
	return serialReply{value: v}
}

// Call performs one inter-isolate call: copy-in, handoff to the server
// goroutine, execute, copy-out. Calls fully serialize on the link mutex,
// exactly like the architecture this baseline preserves.
func (l *SerialLink) Call(args []heap.Value) (heap.Value, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return heap.Value{}, ErrLinkClosed
	}
	roots := l.vm.NewCollectingRoots(l.callee, func() { l.vm.CollectGarbage(nil) })
	defer roots.Release()
	in := &copier{vm: l.vm, target: l.callee, roots: roots, budget: DefaultCopyBudget}
	// The source graph stays live across a copy-time collection in a batch
	// charged to the caller, whose graph it is (as Link.submit roots it): an
	// accounting collection inside the copy window must not bill it to the
	// callee.
	srcRoots := l.vm.NewHostRoots(l.caller)
	defer srcRoots.Release()
	for i := range args {
		srcRoots.AddValue(args[i])
	}
	copied := make([]heap.Value, len(args))
	var err error
	for i, a := range args {
		if copied[i], err = in.copyValue(a); err != nil {
			return heap.Value{}, err
		}
	}
	reply := make(chan serialReply, 1)
	l.reqs <- serialRequest{args: copied, roots: roots, reply: reply}
	rep := <-reply
	if rep.err != nil {
		return heap.Value{}, rep.err
	}
	return DeepCopyValue(l.vm, rep.value, l.caller)
}

// Close shuts the server goroutine down and waits for it to exit.
func (l *SerialLink) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.reqs)
	<-l.done
	if l.recvRoots != nil {
		l.recvRoots.Release()
	}
}
