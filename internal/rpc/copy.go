// Package rpc implements the inter-isolate communication baselines of
// Table 1:
//
//   - an Incommunicado-like link (MVM isolate communication): deep copy of
//     the argument object graph into the callee's space plus a thread
//     handoff — rebuilt here as an async, pipelined messaging layer (see
//     README.md);
//   - an RMI-like local call: full serialization of arguments and results
//     over a loopback TCP connection to a server goroutine.
//
// Both contrast with I-JVM's direct calls (thread migration, no copying),
// which are measured at the interpreter level by the workloads package.
package rpc

import (
	"errors"
	"fmt"

	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// DefaultCopyBudget bounds the objects one copy may materialize (or
// share) before it is rejected with ErrCopyBudget.
const DefaultCopyBudget = 1 << 16

// ErrCopyBudget is returned when a payload graph exceeds the link's copy
// budget; the caller sees it as the call's (or submission's) error.
var ErrCopyBudget = errors.New("rpc: copy budget exhausted")

// copier moves one value graph into target's space. It is GC-safe where
// the seed implementation was not, in three ways:
//
//   - Every copy is allocated through a HostRoots batch, so it is a GC
//     root from birth: the seed left copies unreachable between their
//     allocation and the eventual CallRoot, and any collection in that
//     window swept them.
//   - Destination slots are published with heap.StoreSlotBarriered and
//     source slots read with heap.LoadSlotRef, so a concurrent
//     incremental marker never reads a torn reference word (the seed's
//     raw dup.Elems[i] = cv stores raced the marker).
//   - Traversal is iterative over an explicit work stack with an object
//     budget, so a deep or adversarially large graph returns an error
//     instead of exhausting the Go stack.
//
// With srcIso set (zero-copy links), deeply immutable payloads are
// shared instead of copied: a string that is srcIso's canonical interned
// object is published into target's pool (first publisher wins), and a
// frozen array (heap.Freeze) is shared as-is, pinned via the heap's
// shared-pin table for its flight window.
//
// The copier does not lock payloads: the caller must guarantee the
// source graph is not concurrently mutated (the link contract — in-flight
// payloads are owned by the messaging layer until the future resolves).
type copier struct {
	vm     *interp.VM
	target *core.Isolate
	// srcIso enables zero-copy sharing of payloads owned by this isolate;
	// nil always copies.
	srcIso *core.Isolate
	// roots is the destination-side root batch; every materialized copy
	// and every shared object is added before any subsequent allocation.
	// Its creator gave it the collector an exhausted heap runs before the
	// one retry (interp.VM.NewCollectingRoots): the hub's for links, whose
	// engine may be running on another goroutine, a plain collection
	// charged to nobody for DeepCopyValue and the serial baseline.
	roots *interp.HostRoots

	budget int64
	copied int64
	memo   map[*heap.Object]*heap.Object
	pins   []*heap.Object
	stack  []copyTask
}

// copyTask is one allocated-but-unfilled copy: dst's slots still hold
// null and are filled (barriered) when the task is drained.
type copyTask struct {
	src, dst *heap.Object
}

// copyValue translates v and drains the work stack: on return the whole
// reachable graph has been copied (or shared) and every copy is rooted
// in c.roots.
func (c *copier) copyValue(v heap.Value) (heap.Value, error) {
	out, err := c.translate(v)
	if err != nil {
		return heap.Value{}, err
	}
	for len(c.stack) > 0 {
		task := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		slots, dst := task.src.Elems, task.dst.Elems
		for i := range slots {
			sv := slots[i]
			if sv.IsRef() {
				sv.R = heap.LoadSlotRef(&slots[i])
			}
			cv, err := c.translate(sv)
			if err != nil {
				return heap.Value{}, err
			}
			heap.StoreSlotBarriered(&dst[i], cv)
		}
	}
	return out, nil
}

// translate maps one value: scalars and null pass through, references
// resolve through the memo (cycles), are shared when immutable and
// zero-copy is on, or get a fresh rooted allocation plus a fill task.
func (c *copier) translate(v heap.Value) (heap.Value, error) {
	if !v.IsRef() || v.R == nil {
		return v, nil
	}
	if dup, ok := c.memo[v.R]; ok {
		return heap.RefVal(dup), nil
	}
	if c.memo == nil {
		c.memo = make(map[*heap.Object]*heap.Object)
	}
	src := v.R
	if err := c.charge(); err != nil {
		return heap.Value{}, err
	}
	if s, isStr := src.StringValue(); isStr {
		if c.srcIso != nil {
			if canon, ok := c.srcIso.InternedString(s); ok && canon == src {
				// Zero-copy: publish the caller's canonical string into the
				// target pool. First publisher wins; either way the pool now
				// roots a canonical object for s and the copy is skipped.
				shared := c.target.SetInternedString(s, src)
				c.roots.Add(shared)
				c.memo[src] = shared
				return heap.RefVal(shared), nil
			}
		}
		dup, err := c.vm.NewStringRooted(c.roots, s, c.target)
		if err != nil {
			return heap.Value{}, err
		}
		c.memo[src] = dup
		return heap.RefVal(dup), nil
	}
	if src.IsArray() {
		if c.srcIso != nil && src.Frozen() {
			// Zero-copy: a frozen array's graph is deeply immutable, so the
			// object itself crosses the boundary. The shared pin keeps it a
			// creator-charged root for the flight window even across
			// incremental cycle boundaries; c.roots covers exact collections.
			c.vm.Heap().PinShared(src)
			c.pins = append(c.pins, src)
			c.roots.Add(src)
			c.memo[src] = src
			return heap.RefVal(src), nil
		}
		dup, err := c.vm.AllocArrayRooted(c.roots, src.Class, len(src.Elems), c.target)
		if err != nil {
			return heap.Value{}, err
		}
		c.memo[src] = dup
		c.stack = append(c.stack, copyTask{src: src, dst: dup})
		return heap.RefVal(dup), nil
	}
	if src.Native() != nil {
		return heap.Value{}, fmt.Errorf("rpc: cannot copy native-payload object of class %s", src.Class.Name)
	}
	dup, err := c.vm.AllocObjectRooted(c.roots, src.Class, c.target)
	if err != nil {
		return heap.Value{}, err
	}
	c.memo[src] = dup
	c.stack = append(c.stack, copyTask{src: src, dst: dup})
	return heap.RefVal(dup), nil
}

func (c *copier) charge() error {
	c.copied++
	if c.copied > c.budget {
		return ErrCopyBudget
	}
	return nil
}

// abandon releases the copier's roots and pins after a failed copy; the
// half-built graph becomes garbage for the next collection.
func (c *copier) abandon() {
	c.roots.Release()
	for _, o := range c.pins {
		c.vm.Heap().UnpinShared(o)
	}
	c.pins = nil
}

// DeepCopyValue copies a value graph into the target isolate's space:
// objects are re-allocated (charged to target), fields and array
// elements copied iteratively, cycles preserved via a memo table. This
// is the parameter-copy obligation that isolate-based communication
// models impose and I-JVM avoids (§1: "copying parameters implies
// modifying legacy bundles ... Since the OSGi platform uses
// communication between bundles heavily, using RPCs would induce a non
// negligible overhead").
//
// The returned graph is released from its transient GC roots before
// returning: the caller must root it (or hand it to a thread) before the
// next collection, exactly as with any host-side allocation. Links keep
// their copies rooted end-to-end instead; prefer them for anything
// beyond one-shot copies.
func DeepCopyValue(vm *interp.VM, v heap.Value, target *core.Isolate) (heap.Value, error) {
	c := &copier{
		vm:     vm,
		target: target,
		roots:  vm.NewCollectingRoots(target, func() { vm.CollectGarbage(nil) }),
		budget: DefaultCopyBudget,
	}
	// Root the source too: the collection on the retry path must not
	// sweep a source graph the caller holds only from host code.
	if v.IsRef() && v.R != nil {
		c.roots.Add(v.R)
	}
	out, err := c.copyValue(v)
	c.roots.Release()
	for _, o := range c.pins {
		vm.Heap().UnpinShared(o)
	}
	if err != nil {
		return heap.Value{}, err
	}
	return out, nil
}
