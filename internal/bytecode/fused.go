package bytecode

import "sync/atomic"

// Superinstruction indices.
//
// The preparation pass fuses common quickened sequences into
// superinstructions by rewriting ONLY the head instruction's handler index
// (PInstr.H) to one of the Fused* values below. The follower instructions
// keep their original form — operands, pool refs and field slots are all
// untouched — so branch targets that land in the middle of a fused
// group, exception-handler entries, and re-quickening of live frames all
// keep working with no control-flow analysis: any entry at a follower pc
// simply executes the original single instruction. Fused handlers read
// follower operands from PCode.Instrs[pc+1..].
//
// Shapes split into two families:
//
//   - full-inline: every sub-instruction is non-throwing and cannot reach a
//     safepoint, so the handler executes the whole group and returns nil
//     (the engine loop's own +1 charge covers the final sub);
//   - delegated-final: the non-throwing prefix is inlined, then the group's
//     last instruction — which may throw, allocate, invoke, or flip the
//     isolation mode — is dispatched through the live handler table with
//     the frame in exactly the state the unfused engine would have.
//
// Handler indices start well above the opcode range (NumOpcodes < 80).
const FusedBase uint8 = 200

const (
	// Full-inline shapes.
	FusedLLOpStore  uint8 = FusedBase + iota // load; load; pure int op; store
	FusedLCOpStore                           // load; iconst; pure int op; store
	FusedLLOp                                // load; load; pure int op
	FusedLCOp                                // load; iconst; pure int op
	FusedLLCmpBr                             // load; load; if_icmpXX
	FusedLCCmpBr                             // load; iconst; if_icmpXX
	FusedIncGoto                             // iinc; goto
	FusedConstStore                          // iconst; store

	// Delegated-final shapes.
	FusedLLThen       // load; load; <delegated final>   (e.g. idiv, putfield)
	FusedLCThen       // load; iconst; <delegated final>
	FusedLThen        // load; <delegated final>         (e.g. getfield, invokevirtual)
	FusedGetFieldThen // getfield (guarded inline); invokevirtual/invokespecial

	fusedEnd // sentinel; keep last
)

// NumFused is the number of superinstruction indices.
const NumFused = int(fusedEnd - FusedBase)

// IsFused reports whether a PInstr handler index denotes a superinstruction
// head rather than a plain opcode.
func IsFused(h uint8) bool {
	return h >= FusedBase && h < fusedEnd
}

// FusedWidth returns the number of original instructions covered by the
// superinstruction, or 0 if h is not a superinstruction index.
func FusedWidth(h uint8) int {
	switch h {
	case FusedLLOpStore, FusedLCOpStore:
		return 4
	case FusedLLOp, FusedLCOp, FusedLLCmpBr, FusedLCCmpBr, FusedLLThen, FusedLCThen:
		return 3
	case FusedIncGoto, FusedConstStore, FusedLThen, FusedGetFieldThen:
		return 2
	}
	return 0
}

var fusedNames = map[uint8]string{
	FusedLLOpStore:    "fused_ll_op_store",
	FusedLCOpStore:    "fused_lc_op_store",
	FusedLLOp:         "fused_ll_op",
	FusedLCOp:         "fused_lc_op",
	FusedLLCmpBr:      "fused_ll_cmp_br",
	FusedLCCmpBr:      "fused_lc_cmp_br",
	FusedIncGoto:      "fused_inc_goto",
	FusedConstStore:   "fused_const_store",
	FusedLLThen:       "fused_ll_then",
	FusedLCThen:       "fused_lc_then",
	FusedLThen:        "fused_l_then",
	FusedGetFieldThen: "fused_getfield_then",
}

// FusedName returns the mnemonic for a superinstruction index, or "" if h
// is not one.
func FusedName(h uint8) string {
	return fusedNames[h]
}

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

// Heat returns the accumulated activation heat.
func (ts *TierState) Heat() int64 {
	return ts.heat.Load()
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
