package heap

import "fmt"

// This file is the zero-copy handoff facility of the RPC layer, the
// mesh frontends and the snapshot machinery: frozen (deeply immutable)
// arrays.
//
// A frozen array is deeply immutable: every element is a scalar, a
// string, or another frozen array. Freezing is a one-way, host-side
// operation (there is no guest surface and no thaw); the interpreter's
// array-store paths reject stores into a frozen array with a
// guest-visible exception. Because nothing can mutate a frozen graph,
// two isolates can share it by reference without violating the copy
// semantics of isolate links — the accounting collector charges it to
// the first isolate that traces it, exactly like any other shared
// object. A snapshot capture freezes nothing itself; it shares by
// pointer only the arrays a host froze before.
//
// The heap keeps no root table for such payloads. A shared payload is in
// neither isolate's reachable graph while it sits in a link's request
// queue or a snapshot; the host that holds it roots it in a root set
// charged to the object's creator (the interpreter's shared HostRoots
// batches), which the caller passes in ahead of the isolate-ordered sets.

// Freeze marks an array graph deeply immutable. It validates that every
// element reachable from o is a scalar, a string, or an array, then sets
// the frozen bit on every array in the graph (cycles are fine). An
// object with fields or a non-string native payload anywhere in the
// graph fails the whole freeze with no bits set.
//
// Freeze must be called while the graph is quiescent (no concurrent
// guest mutation): it is a host-side handoff-preparation step, not a
// synchronization primitive.
func Freeze(o *Object) error {
	if o == nil || !o.IsArray() {
		return fmt.Errorf("heap: Freeze requires an array")
	}
	stack := []*Object{o}
	seen := map[*Object]bool{o: true}
	order := []*Object{o}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range a.Elems {
			r := a.Elems[i].R
			if r == nil {
				continue
			}
			if _, isStr := r.StringValue(); isStr {
				continue
			}
			if !r.IsArray() {
				return fmt.Errorf("heap: cannot freeze: element %d of %s references mutable %s",
					i, a.Class.Name, r.Class.Name)
			}
			if !seen[r] {
				seen[r] = true
				stack = append(stack, r)
				order = append(order, r)
			}
		}
	}
	for _, a := range order {
		a.setFlag(flagFrozen)
	}
	return nil
}

// Frozen reports whether the object is a frozen (deeply immutable)
// array. The interpreter's array-store paths consult it to reject
// mutation.
func (o *Object) Frozen() bool { return o.hasFlag(flagFrozen) }
