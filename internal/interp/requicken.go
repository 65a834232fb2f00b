package interp

import (
	"fmt"

	"ijvm/internal/core"
)

// SetIsolationMode flips the VM between Shared (baseline JVM) and
// Isolated (I-JVM) semantics at a safepoint, re-quickening every live
// frame onto the new mode's prepared forms. The intended direction is
// Shared -> Isolated — boot the platform on the cheap baseline fast
// paths, then arm isolation, accounting and termination once untrusted
// bundles load; the reverse flip is accepted only while at most one
// isolate exists.
//
// The protocol runs entirely inside one stop-the-world section:
//
//  1. World.SetMode publishes the new mode (atomically — admin
//     goroutines may read it concurrently outside the section).
//  2. The heap's per-isolate allocation tracking is armed or disarmed
//     to match (Shared mode models the baseline JVM's lack of
//     accounting; objects allocated before arming stay uncounted).
//  3. The VM's dispatch table and prepared-form cache index switch to
//     the new mode's quickenings.
//  4. Every live frame holding a prepared body is re-quickened: the two
//     mode quickenings are instruction-for-instruction aligned (one
//     PInstr per original instruction), so the frame's pc, locals and
//     operand stack carry over unchanged — only the dispatch targets
//     (and the field-slot caches, which start cold) differ. Adopted
//     closure-tier programs are dropped (deopt): they bind the old
//     form's caches; the new form re-promotes on its own heat.
//
// Stale Shared-mode ResolvedMirror pool caches need no invalidation:
// after the flip the Isolated tables (and the Isolated branches of the
// reference switch path) never consult them, and a later flip back to
// Shared mode can only happen with the single isolate those caches
// described.
//
// Like CollectGarbage and KillIsolate, the call must come from a host
// goroutine while no sequential run is in progress, from guest/native
// code on the executing goroutine, or under the concurrent scheduler's
// installed safepointer.
func (vm *VM) SetIsolationMode(mode core.Mode) error {
	if mode == vm.world.Mode() {
		return nil
	}
	var err error
	vm.withWorldStopped(func() {
		if err = vm.world.SetMode(mode); err != nil {
			return
		}
		vm.heap.SetAllocTracking(mode == core.ModeIsolated)
		vm.opts.Mode = mode
		vm.pmode = pmodeIndex(mode)
		vm.ptable = handlerTable(mode)
		// A sequential quantum may be mid-flight (guest/native-context
		// flip): make its hoisted mode flag refresh on the next step so
		// accounting switches with the semantics.
		vm.seqModeFlip = true
		for _, t := range vm.Threads() {
			if t.Done() {
				continue
			}
			for _, f := range t.frames {
				if f.pcode == nil {
					continue
				}
				p := vm.preparedCode(f.method)
				if p == nil {
					// Preparation is deterministic; a body quickened under
					// one mode must quicken under the other.
					err = fmt.Errorf("interp: re-quicken of %s failed", f.method.QualifiedName())
					return
				}
				f.pcode = p
				f.hot = nil // deopt: closure programs bind one form's caches
			}
		}
	})
	return err
}
