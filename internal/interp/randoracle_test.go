package interp_test

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
)

// This file is the randomized differential oracle for the quickened,
// vtable-dispatched engine AND the incremental collector: a seeded
// generator produces small *verified* programs exercising virtual calls
// (mono- and polymorphic receivers, a depth-3 hierarchy with partial
// overriding, a subclass defined by another loader than its parent, an
// interface-typed site, ill-typed and null receivers — every shape the
// VTable guard must either serve or hand to dispatch by name exactly as
// the seed switch does), static cross-isolate calls,
// branches, monitors, guest exceptions (caught and uncaught), array
// traffic, allocation/GC-heavy churn (the small oracle heap forces
// GC-on-pressure collections mid-run), synchronized-heavy shapes
// (synchronized methods nested in explicit monitor sections), stores
// into aging object graphs (long-lived receivers and a persistent array
// whose reference slots are overwritten every iteration — the write
// barrier's diet), cross-isolate reference churn (peer-allocated
// objects retained then dropped by the main isolate), and string
// interning under GC pressure (Ldc identity must survive collections),
// and objects that own a cold record (locked, hashed, string-holding)
// beside zero-length arrays in one static-rooted graph, which the host
// then pushes through snapshot → clone, rpc.DeepCopyValue and a frozen
// zero-copy link call (coldGraphTrips), static loops inside <clinit> and
// on one class's statics from two isolates, a thread that interrupts
// itself before it sleeps, joins and waits, and calls the closure tier
// inlines (leaves: an 8-receiver megamorphic site, receiver getters and
// setters, an empty void body, a static leaf whose class initializes per
// isolate, and a leaf at the frame-depth limit).
//
// Every program is replayed under {closure-threaded blocks over the
// reference switch (the default), seed switch} × {Shared, Isolated} ×
// {exact (the reference collector: pressure and explicit collections
// only), incremental (paced: threshold-opened cycles whose mark strides
// interleave with mutator quanta under an armed barrier)}:
//
//   - the exact runs must be byte-identical across dispatch engines on
//     EVERYTHING, including GCActivations: the collection points
//     coincide.
//   - the paced runs must be byte-identical to each other across
//     dispatch engines, and byte-identical to the exact runs on outcome,
//     output, instructions, clock, CPU samples, allocation byte
//     accounts and final post-GC reachability — only GCActivations may
//     differ (background cycles collect ahead of the pressure points,
//     which is their purpose), so that one column is masked for the
//     cross-collector comparison.

// oracleFragKind enumerates the loop-body building blocks the generator
// composes.
type oracleFragKind int

const (
	fragArith oracleFragKind = iota
	fragVirtualMono
	fragVirtualPoly
	fragCrossStatic
	fragMonitor
	fragCatchDiv
	fragCatchNull
	fragArray
	fragSpecial
	// fragAllocChurn allocates a fresh receiver object per iteration and
	// drops it (allocation-heavy garbage: under the small oracle heap
	// this drives GC-on-pressure collections mid-run, exercising the
	// shard-local allocation domains and the batched byte accounting).
	fragAllocChurn
	// fragArrayChurn allocates a sized array per iteration, writes one
	// slot and drops it (byte-heavy garbage).
	fragArrayChurn
	// fragSyncCall invokes a synchronized virtual method (monitor
	// acquired on frame entry, released on return) and nests an explicit
	// monitorenter/exit on a second receiver inside the same iteration —
	// the synchronized-heavy shape on the striped monitor table.
	fragSyncCall
	// fragAgingStore overwrites a reference field on a long-lived
	// receiver every iteration (old graph edges die while the graph
	// ages) — the putfield deletion-barrier shape.
	fragAgingStore
	// fragAgingArray overwrites one slot of a persistent array with a
	// fresh object every iteration — the aastore deletion-barrier shape
	// plus allocation churn into an aging graph.
	fragAgingArray
	// fragCrossChurn stores a peer-isolate-allocated object into the
	// persistent array (cross-isolate reference retained for one
	// iteration, then overwritten) — cross-isolate reference churn
	// through collections.
	fragCrossChurn
	// fragIntern loads interned string literals and mixes their identity
	// (two Ldc of one literal must stay ==, across every collection)
	// into the accumulator — interning under GC.
	fragIntern
	// fragAllocBurst drops ~6 KB of array garbage per iteration — the
	// burst sized so programs containing it cross the paced collector's
	// occupancy threshold several times mid-run (≥2 incremental cycles).
	fragAllocBurst
	// fragDeepVirtual calls through the depth-3 chain H0 <- H1 <- H2 <- H3,
	// whose levels override a random subset of the inherited methods: a
	// site typed at H0 (or at H1, for the method H1 introduces) sees
	// receivers of two levels.
	fragDeepVirtual
	// fragCrossLoader calls a site typed at the peer loader's PBase on a
	// main-loader subclass (XSub) or on a peer-allocated PBase: the
	// overridden method stays in the main isolate, the inherited one
	// migrates the thread into the peer — through one table slot.
	fragCrossLoader
	// fragIface calls an Impl through a site typed at the interface it
	// declares by name: the receiver is no subclass of the resolved
	// method's class.
	fragIface
	// fragIllTyped calls the Base-typed site on an instance of an
	// unrelated class: Rogue declares the same name+descriptor (and a
	// decoy method at Base.f's slot index), Mute does not (caught
	// NullPointerException).
	fragIllTyped
	// fragNullRecv calls on a null receiver (caught).
	fragNullRecv
	// fragColdObject gives a receiver everything that lives in a cold
	// record or beside it: inside its own monitor it is hashed (the
	// deterministic identity hash is mixed into the accumulator), handed
	// an interned string in its link field, and parked in the static
	// keep array next to a fresh zero-length array — so the graph the
	// host trips walk holds a locked, hashed, string-holding object and
	// a slot vector with no slots.
	fragColdObject
	// fragZeroArray parks a zero-length array in the keep array and
	// reads its length back.
	fragZeroArray
	// fragClinitStatic reads ora/Tab's statics and bumps one: the first
	// access in an isolate runs Tab's <clinit>, a read-modify-write loop
	// over Tab's own statics while the accessing thread initializes it.
	fragClinitStatic
	// fragSharedStatic updates peer/Svc's static from the main isolate's
	// code, then calls Svc.g, which updates it from the peer: one class
	// shared through delegation, one mirror per isolate under I-JVM (one
	// in all under the baseline), each initialized by Svc's <clinit> loop.
	fragSharedStatic
	// fragInterrupt interrupts the running thread before each of a
	// forever sleep, a join on itself and a wait on a receiver it holds
	// the monitor of: each finds the interrupt pending, throws
	// InterruptedException on entry instead of parking, and is caught.
	fragInterrupt
	// fragMegaLeaf calls f through one site on eight receiver classes
	// (ora/L0..L7), each f a leaf: the megamorphic site whose every target
	// is inlined.
	fragMegaLeaf
	// fragFieldLeaf sets and reads a receiver's int field through setter
	// and getter leaves, stores a fresh array into its reference field
	// through a setter leaf (a barrier record under an open cycle), reads
	// it back and calls an empty void leaf.
	fragFieldLeaf
	// fragStaticLeaf calls peer/SLeaf.s, a static leaf whose class runs a
	// <clinit> loop, directly (across loaders: a migrating leaf under
	// I-JVM) and through peer/Svc.gs (same loader), each inlined once the
	// calling isolate's mirror is initialized.
	fragStaticLeaf
	// fragDeepLeaf recurses until the next call is a leaf at the frame
	// limit's last slot (even iterations) or one past it, where the leaf
	// call throws StackOverflowError (caught).
	fragDeepLeaf
	// fragArrayLeaf calls peer/Svc.alen, a cross-bundle leaf taking the
	// length of its array parameter, on a fresh array — or on null, when
	// arrIdx == arrLen, so the parameter guard fails and the real call
	// throws NullPointerException in the peer (caught).
	fragArrayLeaf
	numFragKinds
)

// oracleFrag is one loop-body fragment. Fields are interpreted per kind.
type oracleFrag struct {
	kind    oracleFragKind
	op      int   // arith operator selector
	c       int64 // immediate constant
	r1, r2  int   // receiver selectors (< numImpls)
	divisor int64 // fragCatchDiv: 0 forces the caught exception
	arrLen  int64 // fragArray
	arrIdx  int64 // fragArray: may be out of bounds (caught)
}

// oracleProgram is a fully generated program, independent of any VM so
// the same spec can be materialized into the four configurations.
type oracleProgram struct {
	seed       int64
	numImpls   int
	implKind   []int   // per-impl body shape (0..2)
	implConst  []int64 // per-impl constant
	loopN      int64
	frags      []oracleFrag
	uncaughtAt int // index of a fragment whose divisor is zeroed WITHOUT a handler; -1 if none
	// chainMask[l] selects which of a, b, c, d level l+1 of the H chain
	// overrides (bits 0..3; H1 always declares d, which it introduces).
	chainMask [3]int
	// templateLoaded puts the main classes in an isolate-less template
	// loader the main isolate delegates to (the gateway's layout) instead
	// of the isolate's own loader (a bundle's). Only a template-loaded
	// isolate can be snapshotted and cloned, so these programs also make
	// the clone and link trips of coldGraphTrips. Isolated mode only.
	templateLoaded bool
	// tabN is the iteration count of ora/Tab's <clinit> loop.
	tabN int64
}

// genOracleProgram derives a program deterministically from seed.
func genOracleProgram(seed int64) oracleProgram {
	r := rand.New(rand.NewSource(seed))
	p := oracleProgram{
		seed:       seed,
		numImpls:   1 + r.Intn(4),
		loopN:      int64(3 + r.Intn(40)),
		uncaughtAt: -1,
	}
	for k := 0; k < p.numImpls; k++ {
		p.implKind = append(p.implKind, r.Intn(3))
		p.implConst = append(p.implConst, int64(r.Intn(201)-100))
	}
	nfrags := 2 + r.Intn(7)
	for j := 0; j < nfrags; j++ {
		f := oracleFrag{
			kind:    oracleFragKind(r.Intn(int(numFragKinds))),
			op:      r.Intn(6),
			c:       int64(r.Intn(199) - 99),
			r1:      r.Intn(p.numImpls),
			r2:      r.Intn(p.numImpls),
			divisor: int64(r.Intn(5)), // 0 in ~20% of div fragments
			arrLen:  int64(1 + r.Intn(4)),
		}
		f.arrIdx = int64(r.Intn(int(f.arrLen) + 1)) // == arrLen in ~25%: caught OOB
		p.frags = append(p.frags, f)
	}
	// A few percent of programs terminate with an uncaught guest
	// exception to exercise unwinding and thread failure on both paths.
	if r.Intn(25) == 0 {
		p.uncaughtAt = r.Intn(len(p.frags))
	}
	for l := range p.chainMask {
		p.chainMask[l] = r.Intn(16)
	}
	p.templateLoaded = r.Intn(2) == 0
	p.tabN = int64(1 + r.Intn(60))
	return p
}

// oraKeepSlots sizes ora/Main's static keep array: slots 0-1 take the
// cold objects, 2-3 the zero-length arrays.
const oraKeepSlots = 4

// oraDepth is the oracle VMs' MaxFrameDepth.
const oraDepth = 64

const (
	oraBase  = "ora/Base"
	oraSvc   = "peer/Svc"
	oraMain  = "ora/Main"
	oraIface = "ora/IFace"
	oraRogue = "ora/Rogue"
	oraMute  = "ora/Mute"
	oraXSub  = "ora/XSub"
	oraPBase = "peer/PBase"
	oraTab   = "ora/Tab"
	oraSLeaf = "peer/SLeaf"
)

func oraLeaf(j int) string { return fmt.Sprintf("ora/L%d", j) }

// oraSvcClinitN is the iteration count of peer/Svc's <clinit> loop.
const oraSvcClinitN = 12

// staticLoopClinit emits a <clinit> that stores n in class's static n and
// then folds 0..n-1 into its static sum, reading n back every iteration.
func staticLoopClinit(class string, n int64) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) {
		a.Const(n).PutStatic(class, "n")
		a.Const(0).IStore(0)
		a.Label("loop").ILoad(0).GetStatic(class, "n").IfICmpGe("done")
		a.GetStatic(class, "sum").Const(31).IMul().ILoad(0).IAdd().Const(0xFFFF).IAnd().PutStatic(class, "sum")
		a.IInc(0, 1).Goto("loop")
		a.Label("done").Return()
	}
}

func oraImpl(k int) string { return fmt.Sprintf("ora/Impl%d", k) }

func oraChain(level int) string { return fmt.Sprintf("ora/H%d", level) }

// chainMethods are the H chain's virtual methods; d is introduced by H1.
var chainMethods = [4]string{"a", "b", "c", "d"}

// oracleChainClasses builds H0..H3. Each body mixes its level and method
// index into the argument, so the result tells which declaration ran.
func oracleChainClasses(p oracleProgram, defaultInit func(string) func(*bytecode.Assembler)) []*classfile.Class {
	body := func(level, mi int) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ILoad(1).Const(int64(level*16 + mi + 1)).IAdd().Const(0xFFFF).IAnd().IReturn()
		}
	}
	var out []*classfile.Class
	for level := 0; level < 4; level++ {
		super := classfile.ObjectClassName
		if level > 0 {
			super = oraChain(level - 1)
		}
		b := classfile.NewClass(oraChain(level)).Super(super).
			Method(classfile.InitName, "()V", 0, defaultInit(super))
		for mi, name := range chainMethods {
			declares := false
			switch {
			case level == 0:
				declares = mi < 3
			case level == 1 && mi == 3:
				declares = true
			default:
				declares = p.chainMask[level-1]&(1<<mi) != 0
			}
			if declares {
				b.Method(name, "(I)I", 0, body(level, mi))
			}
		}
		out = append(out, b.MustBuild())
	}
	return out
}

// emitArith emits the selected binary operator (division-free; division
// is covered by fragCatchDiv where the exception is expected).
func emitArith(a *bytecode.Assembler, op int) {
	switch op {
	case 0:
		a.IAdd()
	case 1:
		a.ISub()
	case 2:
		a.IMul()
	case 3:
		a.IXor()
	case 4:
		a.IAnd()
	default:
		a.IOr()
	}
}

// oracleMainClasses builds the main-isolate classes of p: the receiver
// hierarchy and the generated entry point.
func oracleMainClasses(p oracleProgram) []*classfile.Class {
	defaultInit := func(super string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		}
	}
	base := classfile.NewClass(oraBase).
		Field("v", classfile.KindInt).
		Field("link", classfile.KindRef).
		Method(classfile.InitName, "()V", 0, defaultInit(classfile.ObjectClassName)).
		Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).Const(1).IAdd().IReturn()
		}).
		Method("p", "(I)I", 0, func(a *bytecode.Assembler) {
			a.ILoad(1).Const(3).IMul().IReturn()
		}).
		Method("sf", "(I)I", classfile.FlagSynchronized, func(a *bytecode.Assembler) {
			// Synchronized: the frame holds the receiver's monitor while
			// it reads and writes the inherited field.
			a.ALoad(0).ILoad(1).PutField(oraBase, "v")
			a.ALoad(0).GetField(oraBase, "v").Const(5).IAdd().IReturn()
		}).
		Method("get", "()I", 0, func(a *bytecode.Assembler) { a.ALoad(0).GetField(oraBase, "v").IReturn() }).
		Method("set", "(I)V", 0, func(a *bytecode.Assembler) { a.ALoad(0).ILoad(1).PutField(oraBase, "v").Return() }).
		Method("getLink", "()Ljava/lang/Object;", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(oraBase, "link").AReturn()
		}).
		Method("setLink", "(Ljava/lang/Object;)V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).ALoad(1).PutField(oraBase, "link").Return()
		}).
		Method("nop", "()V", 0, func(a *bytecode.Assembler) { a.Return() }).
		MustBuild()
	classes := []*classfile.Class{base}
	for k := 0; k < p.numImpls; k++ {
		kind, c := p.implKind[k], p.implConst[k]
		classes = append(classes, classfile.NewClass(oraImpl(k)).Super(oraBase).
			Implements(oraIface).
			Method(classfile.InitName, "()V", 0, defaultInit(oraBase)).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				switch kind {
				case 0: // pure arithmetic
					a.ILoad(1).Const(c).IAdd().IReturn()
				case 1: // reads the inherited field
					a.ILoad(1).ALoad(0).GetField(oraBase, "v").IAdd().Const(c).IXor().IReturn()
				default: // writes the inherited field
					a.ALoad(0).ILoad(1).PutField(oraBase, "v")
					a.ILoad(1).Const(c).ISub().IReturn()
				}
			}).MustBuild())
	}

	for j := 0; j < 8; j++ {
		k, reads := int64(j+1), j%2 == 1
		classes = append(classes, classfile.NewClass(oraLeaf(j)).Super(oraBase).
			Method(classfile.InitName, "()V", 0, defaultInit(oraBase)).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1)
				if reads {
					a.ALoad(0).GetField(oraBase, "v").IXor()
				}
				a.Const(k).IAdd().Const(0xFFFF).IAnd().IReturn()
			}).MustBuild())
	}
	classes = append(classes, oracleChainClasses(p, defaultInit)...)
	classes = append(classes,
		classfile.NewClass(oraIface).SetFlags(classfile.FlagInterface|classfile.FlagAbstract).
			RawMethod("f", "(I)I", classfile.FlagAbstract, nil).MustBuild(),
		// z occupies the slot index Base.f has in Base's table, so a
		// dispatch that trusted the index alone would run z.
		classfile.NewClass(oraRogue).
			Method(classfile.InitName, "()V", 0, defaultInit(classfile.ObjectClassName)).
			Method("z", "(I)I", 0, func(a *bytecode.Assembler) {
				a.Const(-1).IReturn()
			}).
			Method("f", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(77).IXor().IReturn()
			}).MustBuild(),
		classfile.NewClass(oraMute).
			Method(classfile.InitName, "()V", 0, defaultInit(classfile.ObjectClassName)).
			Method("z", "(I)I", 0, func(a *bytecode.Assembler) {
				a.Const(-2).IReturn()
			}).MustBuild(),
		// XSub's parent is defined by the peer loader: h is overridden
		// here, k is inherited (and runs in the peer isolate).
		classfile.NewClass(oraXSub).Super(oraPBase).
			Method(classfile.InitName, "()V", 0, defaultInit(oraPBase)).
			Method("h", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(9).IAdd().IReturn()
			}).MustBuild(),
		classfile.NewClass(oraTab).
			StaticField("n", classfile.KindInt).
			StaticField("sum", classfile.KindInt).
			Method(classfile.ClinitName, "()V", classfile.FlagStatic, staticLoopClinit(oraTab, p.tabN)).MustBuild(),
	)

	recvSlot := func(r int) int { return 3 + r }
	tmpSlot := 3 + p.numImpls
	graphSlot := tmpSlot + 1
	chainSlot := func(level int) int { return graphSlot + 1 + level }
	rogueSlot := chainSlot(4)
	muteSlot := rogueSlot + 1
	xsubSlot := muteSlot + 1
	leavesSlot := xsubSlot + 1
	newInto := func(a *bytecode.Assembler, class string, slot int) {
		a.New(class).Dup().InvokeSpecial(class, classfile.InitName, "()V").AStore(slot)
	}
	main := classfile.NewClass(oraMain).
		StaticField("keep", classfile.KindRef).
		// deep(k) recurses k times, then calls the leaf sq.
		Method("sq", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(3).IMul().IReturn()
		}).
		Method("deep", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).IfNe("rec")
			a.Const(7).InvokeStatic(oraMain, "sq", "(I)I").IReturn()
			a.Label("rec").ILoad(0).Const(1).ISub().InvokeStatic(oraMain, "deep", "(I)I").IReturn()
		}).
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(oraKeepSlots).NewArray("").PutStatic(oraMain, "keep")
			for k := 0; k < p.numImpls; k++ {
				a.New(oraImpl(k)).Dup().
					InvokeSpecial(oraImpl(k), classfile.InitName, "()V").
					AStore(recvSlot(k))
			}
			// The persistent graph array: its slots age across the whole
			// loop and are overwritten by the aging/cross-churn
			// fragments, so old references die mid-run (and mid-cycle
			// under the paced incremental collector).
			a.Const(4).NewArray("").AStore(graphSlot)
			for level := 0; level < 4; level++ {
				newInto(a, oraChain(level), chainSlot(level))
			}
			newInto(a, oraRogue, rogueSlot)
			newInto(a, oraMute, muteSlot)
			newInto(a, oraXSub, xsubSlot)
			a.Const(8).NewArray("").AStore(leavesSlot)
			for j := 0; j < 8; j++ {
				a.ALoad(leavesSlot).Const(int64(j)).New(oraLeaf(j)).Dup().
					InvokeSpecial(oraLeaf(j), classfile.InitName, "()V").ArrayStore()
			}
			a.ILoad(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop")
			a.ILoad(2).Const(p.loopN).IfICmpGe("done")
			for j, f := range p.frags {
				s := fmt.Sprintf("s%d", j)
				h := fmt.Sprintf("h%d", j)
				after := fmt.Sprintf("a%d", j)
				switch f.kind {
				case fragArith:
					a.ILoad(1)
					if f.op%2 == 0 {
						a.Const(f.c)
					} else {
						a.ILoad(2)
					}
					emitArith(a, f.op)
					a.IStore(1)
				case fragVirtualMono:
					a.ALoad(recvSlot(f.r1)).ILoad(1).
						InvokeVirtual(oraBase, "f", "(I)I").IStore(1)
				case fragVirtualPoly:
					// Data-dependent receiver: one call site sees several
					// classes, driving the site mono -> poly (-> mega with
					// enough impls across fragments).
					a.ILoad(2).Const(1).IAnd().IfEq(s)
					a.ALoad(recvSlot(f.r1)).Goto(after)
					a.Label(s).ALoad(recvSlot(f.r2))
					a.Label(after).ILoad(1).
						InvokeVirtual(oraBase, "f", "(I)I").IStore(1)
				case fragCrossStatic:
					a.ILoad(1).InvokeStatic(oraSvc, "g", "(I)I").IStore(1)
				case fragMonitor:
					a.ALoad(recvSlot(f.r1)).MonitorEnter()
					a.ILoad(1).Const(f.c).IAdd().IStore(1)
					a.ALoad(recvSlot(f.r1)).MonitorExit()
				case fragCatchDiv:
					a.Label(s).ILoad(1).Const(f.divisor).IDiv().IStore(1).Goto(after)
					a.Label(h).Pop().ILoad(1).Const(7).IAdd().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, "java/lang/ArithmeticException")
				case fragCatchNull:
					a.Label(s).Null().AThrow()
					a.Label(h).Pop().ILoad(1).Const(11).IXor().IStore(1)
					a.Handler(s, h, h, "java/lang/NullPointerException")
				case fragArray:
					a.Const(f.arrLen).NewArray("").AStore(tmpSlot)
					a.Label(s).ALoad(tmpSlot).Const(f.arrIdx).ILoad(1).ArrayStore().Goto(after)
					a.Label(h).Pop().ILoad(1).Const(13).IAdd().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, "java/lang/ArrayIndexOutOfBoundsException")
					safe := f.arrIdx % f.arrLen
					a.ALoad(tmpSlot).Const(safe).ArrayLoad().IStore(1)
				case fragSpecial:
					a.ALoad(recvSlot(f.r1)).ILoad(1).
						InvokeSpecial(oraBase, "p", "(I)I").IStore(1)
				case fragAllocChurn:
					// Fresh object per iteration, dropped immediately:
					// allocation-heavy garbage for the GC-on-pressure path.
					a.New(oraImpl(f.r1)).Dup().
						InvokeSpecial(oraImpl(f.r1), classfile.InitName, "()V").
						AStore(tmpSlot)
					a.ALoad(tmpSlot).ILoad(1).
						InvokeVirtual(oraBase, "f", "(I)I").IStore(1)
					a.Null().AStore(tmpSlot)
				case fragArrayChurn:
					// Sized array per iteration (up to ~2 KB), one store,
					// dropped.
					a.Const(f.arrLen * 64).NewArray("").AStore(tmpSlot)
					a.ALoad(tmpSlot).Const(f.arrLen).ILoad(1).ArrayStore()
					a.ALoad(tmpSlot).Const(f.arrLen).ArrayLoad().IStore(1)
					a.Null().AStore(tmpSlot)
				case fragSyncCall:
					// Synchronized method call nested inside an explicit
					// monitor section on a second receiver.
					a.ALoad(recvSlot(f.r2)).MonitorEnter()
					a.ALoad(recvSlot(f.r1)).ILoad(1).
						InvokeVirtual(oraBase, "sf", "(I)I").IStore(1)
					a.ALoad(recvSlot(f.r2)).MonitorExit()
				case fragAgingStore:
					// Age the receiver graph: overwrite r1.link with a
					// fresh object (the old link, when present, dies).
					a.ALoad(recvSlot(f.r1)).
						New(oraImpl(f.r2)).Dup().
						InvokeSpecial(oraImpl(f.r2), classfile.InitName, "()V").
						PutField(oraBase, "link")
					a.ILoad(1).Const(f.c).IXor().IStore(1)
				case fragAgingArray:
					// Overwrite one persistent array slot with a fresh
					// object; the previous occupant becomes garbage.
					a.ALoad(graphSlot).Const(f.arrIdx%4).
						New(oraImpl(f.r1)).Dup().
						InvokeSpecial(oraImpl(f.r1), classfile.InitName, "()V").
						ArrayStore()
					a.ILoad(1).Const(3).IAdd().IStore(1)
				case fragCrossChurn:
					// A peer-allocated object is retained in the graph
					// array for one iteration, then overwritten: cross-
					// isolate references churn through collections.
					a.ALoad(graphSlot).Const((f.arrIdx+1)%4).
						ILoad(1).InvokeStatic(oraSvc, "mk", "(I)Ljava/lang/Object;").
						ArrayStore()
					a.ILoad(1).Const(f.c).IAdd().IStore(1)
				case fragIntern:
					// Two Ldc of one literal must be the same object —
					// interning survives every collector configuration
					// and every collection.
					lit := fmt.Sprintf("ora-lit-%d", f.op%3)
					eq := fmt.Sprintf("ieq%d", j)
					a.Str(lit).Str(lit).IfACmpEq(eq)
					a.ILoad(1).Const(4242).IXor().IStore(1) // interning broken
					a.Label(eq).ILoad(1).Const(f.c + 1).IAdd().IStore(1)
				case fragAllocBurst:
					// Six 128-slot arrays (~6 KB) dropped per iteration.
					for b := 0; b < 6; b++ {
						a.Const(128).NewArray("").AStore(tmpSlot)
					}
					a.Null().AStore(tmpSlot)
					a.ILoad(1).Const(f.c).ISub().IStore(1)
				case fragDeepVirtual:
					// d exists from H1 down; a, b, c from H0.
					typed, mi, lo := oraChain(0), f.op%3, 0
					if f.op >= 3 {
						typed, mi, lo = oraChain(1), 3, 1
					}
					l1, l2 := lo+f.r1%(4-lo), lo+f.r2%(4-lo)
					a.ILoad(2).Const(1).IAnd().IfEq(s)
					a.ALoad(chainSlot(l1)).Goto(after)
					a.Label(s).ALoad(chainSlot(l2))
					a.Label(after).ILoad(1).
						InvokeVirtual(typed, chainMethods[mi], "(I)I").IStore(1)
				case fragCrossLoader:
					method := "h"
					if f.op%2 == 1 {
						method = "k"
					}
					a.ILoad(2).Const(1).IAnd().IfEq(s)
					a.ALoad(xsubSlot).Goto(after)
					a.Label(s).InvokeStatic(oraSvc, "mkp", "()Ljava/lang/Object;")
					a.Label(after).ILoad(1).
						InvokeVirtual(oraPBase, method, "(I)I").IStore(1)
				case fragIface:
					a.ALoad(recvSlot(f.r1)).ILoad(1).
						InvokeVirtual(oraIface, "f", "(I)I").IStore(1)
				case fragIllTyped:
					slot := rogueSlot
					if f.op%2 == 1 {
						slot = muteSlot
					}
					a.Label(s).ALoad(slot).ILoad(1).
						InvokeVirtual(oraBase, "f", "(I)I").IStore(1).Goto(after)
					a.Label(h).Pop().ILoad(1).Const(17).IAdd().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, "java/lang/NullPointerException")
				case fragNullRecv:
					a.Label(s).Null().ILoad(1).
						InvokeVirtual(oraBase, "f", "(I)I").IStore(1).Goto(after)
					a.Label(h).Pop().ILoad(1).Const(19).IXor().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, "java/lang/NullPointerException")
				case fragColdObject:
					recv := recvSlot(f.r1)
					a.ALoad(recv).MonitorEnter()
					a.ILoad(1).ALoad(recv).
						InvokeVirtual(classfile.ObjectClassName, "hashCode", "()I").
						Const(0xFF).IAnd().IAdd().IStore(1)
					a.ALoad(recv).Str(fmt.Sprintf("ora-cold-%d", f.op%3)).PutField(oraBase, "link")
					a.GetStatic(oraMain, "keep").Const(int64(f.r1 % 2)).ALoad(recv).ArrayStore()
					a.GetStatic(oraMain, "keep").Const(int64(2 + f.r2%2)).Const(0).NewArray("").ArrayStore()
					a.ALoad(recv).MonitorExit()
				case fragZeroArray:
					a.GetStatic(oraMain, "keep").Const(2 + f.arrIdx%2).Const(0).NewArray("").ArrayStore()
					a.ILoad(1).GetStatic(oraMain, "keep").Const(2 + f.arrIdx%2).ArrayLoad().
						ArrayLength().IAdd().Const(f.c).IXor().IStore(1)
				case fragClinitStatic:
					a.ILoad(1).GetStatic(oraTab, "sum").IXor().Const(f.c).IAdd().IStore(1)
					a.GetStatic(oraTab, "n").Const(1).IAdd().PutStatic(oraTab, "n")
				case fragSharedStatic:
					a.GetStatic(oraSvc, "s").ILoad(1).Const(0xFF).IAnd().IAdd().PutStatic(oraSvc, "s")
					a.ILoad(1).GetStatic(oraSvc, "sum").IXor().GetStatic(oraSvc, "s").IAdd().IStore(1)
					a.ILoad(1).Const(0xFFFF).IAnd().InvokeStatic(oraSvc, "g", "(I)I").IStore(1)
				case fragInterrupt:
					self := func() {
						a.InvokeStatic(interp.ClassThread, "currentThread", "()Ljava/lang/Thread;")
					}
					recv := recvSlot(f.r1)
					blocking := []func(){
						func() { a.Const(0).InvokeStatic(interp.ClassThread, "sleep", "(I)V") },
						func() { self(); a.InvokeVirtual(interp.ClassThread, "join", "()V") },
						func() { a.ALoad(recv).InvokeVirtual(classfile.ObjectClassName, "wait", "()V") },
					}
					a.ALoad(recv).MonitorEnter()
					for k, park := range blocking {
						try, caught, next := fmt.Sprintf("it%d_%d", j, k), fmt.Sprintf("ic%d_%d", j, k), fmt.Sprintf("in%d_%d", j, k)
						self()
						a.InvokeVirtual(interp.ClassThread, "interrupt", "()V")
						a.Label(try)
						park()
						a.Goto(next)
						a.Label(caught).Pop().ILoad(1).Const(int64(k+1) * f.c).IAdd().IStore(1)
						a.Label(next)
						a.Handler(try, caught, caught, interp.ClassInterruptedException)
					}
					a.ALoad(recv).MonitorExit()
				case fragMegaLeaf:
					a.ALoad(leavesSlot).ILoad(2).ILoad(1).IAdd().Const(f.c&0xFF).IAdd().Const(7).IAnd().ArrayLoad().
						ILoad(1).InvokeVirtual(oraBase, "f", "(I)I").IStore(1)
				case fragFieldLeaf:
					recv := recvSlot(f.r1)
					a.ALoad(recv).ILoad(1).Const(f.c&0xFF).IXor().InvokeVirtual(oraBase, "set", "(I)V")
					a.ILoad(1).ALoad(recvSlot(f.r2)).InvokeVirtual(oraBase, "get", "()I").IAdd().IStore(1)
					a.ALoad(recv).Const(f.arrLen).NewArray("").InvokeVirtual(oraBase, "setLink", "(Ljava/lang/Object;)V")
					a.ALoad(recvSlot(f.r2)).InvokeVirtual(oraBase, "getLink", "()Ljava/lang/Object;").IfNull(s)
					a.IInc(1, 3)
					a.Label(s).ALoad(recv).InvokeVirtual(oraBase, "nop", "()V")
				case fragStaticLeaf:
					a.ILoad(1).InvokeStatic(oraSLeaf, "s", "(I)I").
						InvokeStatic(oraSvc, "gs", "(I)I").Const(f.c).IXor().IStore(1)
				case fragArrayLeaf:
					if f.arrIdx == f.arrLen {
						a.Null()
					} else {
						a.Const(f.arrLen).NewArray("")
					}
					a.AStore(tmpSlot)
					a.Label(s).ALoad(tmpSlot).ILoad(1).InvokeStatic(oraSvc, "alen", "(Ljava/lang/Object;I)I").IStore(1).Goto(after)
					a.Label(h).Pop().ILoad(1).Const(17).IXor().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, "java/lang/NullPointerException")
					a.Null().AStore(tmpSlot)
				case fragDeepLeaf:
					a.Label(s).ILoad(2).Const(1).IAnd().Const(oraDepth-3).IAdd().
						InvokeStatic(oraMain, "deep", "(I)I").ILoad(1).IXor().IStore(1).Goto(after)
					a.Label(h).Pop().ILoad(1).Const(29).IXor().IStore(1)
					a.Label(after)
					a.Handler(s, h, h, interp.ClassStackOverflowError)
				}
			}
			a.IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()

	// The uncaught-exception variant divides by zero outside any handler
	// on the last loop iteration.
	if p.uncaughtAt >= 0 {
		main = classfile.NewClass(oraMain).
			StaticField("keep", classfile.KindRef).
			Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).Const(0).IDiv().IReturn()
			}).MustBuild()
	}
	return append(classes, main)
}

// oraclePeerClasses builds the peer classes (a foreign isolate under
// I-JVM, a plain second loader under the baseline).
func oraclePeerClasses() []*classfile.Class {
	return []*classfile.Class{
		classfile.NewClass(oraPBase).
			Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
				a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
			}).
			Method("h", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(5).IXor().IReturn()
			}).
			Method("k", "(I)I", 0, func(a *bytecode.Assembler) {
				a.ILoad(1).Const(2).IAdd().IReturn()
			}).MustBuild(),
		classfile.NewClass(oraSvc).
			StaticField("s", classfile.KindInt).
			StaticField("n", classfile.KindInt).
			StaticField("sum", classfile.KindInt).
			Method(classfile.ClinitName, "()V", classfile.FlagStatic, staticLoopClinit(oraSvc, oraSvcClinitN)).
			Method("g", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.GetStatic(oraSvc, "s").ILoad(0).IAdd().
					Dup().PutStatic(oraSvc, "s").IReturn()
			}).
			// mk allocates in the PEER isolate (the executing thread
			// migrates for the static call), so the returned object's
			// creator-charged bytes land on the peer while the main
			// isolate retains the reference — the cross-isolate churn
			// shape of the GC oracle.
			Method("mk", "(I)Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Const(8).NewArray("").AReturn()
			}).
			Method("mkp", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.New(oraPBase).Dup().
					InvokeSpecial(oraPBase, classfile.InitName, "()V").AReturn()
			}).
			// gs calls the static leaf SLeaf.s from SLeaf's own loader.
			Method("gs", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).InvokeStatic(oraSLeaf, "s", "(I)I").IReturn()
			}).
			// alen is a leaf guarded on its array parameter.
			Method("alen", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ALoad(0).ArrayLength().ILoad(1).IAdd().Const(0xFFFF).IAnd().IReturn()
			}).
			// id is the callee of the host's frozen zero-copy link call.
			Method("id", "(Ljava/lang/Object;)Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ALoad(0).AReturn()
			}).MustBuild(),
		classfile.NewClass(oraSLeaf).
			StaticField("n", classfile.KindInt).
			StaticField("sum", classfile.KindInt).
			Method(classfile.ClinitName, "()V", classfile.FlagStatic, staticLoopClinit(oraSLeaf, 5)).
			Method("s", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.ILoad(0).Const(5).IMul().Const(0xFFFF).IAnd().IReturn()
			}).MustBuild(),
	}
}

// oracleDispatch selects the execution engine of one run. Both must
// produce byte-identical traces: instruction totals, clock, CPU samples,
// per-isolate byte accounts, GC activations and post-GC reachability —
// the closure-threaded tier's blocks and combined group micros charge
// every covered instruction exactly as the seed switch retires it.
type oracleDispatch int

const (
	// dispSeed is the reference: the unquickened checked switch
	// interpreter (DisablePrepare).
	dispSeed oracleDispatch = iota
	// dispClosure is the default engine: every prepared method carries
	// its closure program from its first call, so the whole program
	// executes through closure-threaded blocks and combined group micros,
	// with single steps on the reference switch at quantum boundaries,
	// deopt shapes (exceptions inside compiled regions, caught and
	// uncaught) and delegated finals.
	dispClosure
)

// newVM builds the VM of one run on the engine d selects.
func (d oracleDispatch) newVM(o interp.Options) *interp.VM {
	switch d {
	case dispSeed:
		return newSeedVM(o)
	}
	return interp.NewVM(o)
}

// oracleGC selects the collector configuration of one run.
type oracleGC int

const (
	// gcExact is the reference collector (GCThresholdPercent -1): no
	// background cycles, every collection a monolithic stop-the-world
	// pass at its trigger point.
	gcExact oracleGC = iota
	// gcIncPaced opens cycles at 50% occupancy and marks 32 units per
	// quantum boundary, so mark strides interleave with mutator quanta
	// under an armed write barrier — the configuration that actually
	// exercises SATB records deterministically.
	gcIncPaced
)

func (g oracleGC) options() (thresholdPct, stride int) {
	if g == gcExact {
		return -1, 0
	}
	return 50, 32
}

// oracleTrace is the full comparison surface of one run.
type oracleTrace struct {
	result  int64
	failure string
	output  string
	total   int64
	clock   int64
	// trips is what the host-side trips of the keep graph produced
	// (coldGraphTrips): fingerprints of the clone and of the deep copy,
	// the zero-copy verdict, or the error that stopped a trip.
	trips string
	// name -> {Instructions, CPUSamples, AllocatedObjects,
	// AllocatedBytes, LiveObjects, LiveBytes, GCActivations,
	// InterBundleCallsIn, InterBundleCallsOut} (live figures post-GC: the
	// heap-reachable result surface; GCActivations proves the
	// GC-on-pressure collection points are identical; the call counts
	// prove every dispatch migrates exactly where the seed switch does).
	perIsolate map[string][9]int64
	// incCycles and barrierRecords are collector diagnostics (excluded
	// from diff): the oracle asserts the paced configuration actually
	// ran incremental cycles with live barrier traffic.
	incCycles      int64
	barrierRecords int64
}

// maskGCActivations returns a copy of the trace with the GCActivations
// column zeroed — the one quantity background cycles are allowed to
// change relative to the exact reference.
func (a oracleTrace) maskGCActivations() oracleTrace {
	out := a
	out.perIsolate = make(map[string][9]int64, len(a.perIsolate))
	for k, v := range a.perIsolate {
		v[6] = 0
		out.perIsolate[k] = v
	}
	return out
}

func (a oracleTrace) diff(b oracleTrace) string {
	switch {
	case a.result != b.result:
		return fmt.Sprintf("result %d != %d", a.result, b.result)
	case a.failure != b.failure:
		return fmt.Sprintf("failure %q != %q", a.failure, b.failure)
	case a.output != b.output:
		return fmt.Sprintf("output %q != %q", a.output, b.output)
	case a.total != b.total:
		return fmt.Sprintf("total instructions %d != %d", a.total, b.total)
	case a.clock != b.clock:
		return fmt.Sprintf("clock %d != %d", a.clock, b.clock)
	case a.trips != b.trips:
		return fmt.Sprintf("keep-graph trips %q != %q", a.trips, b.trips)
	case len(a.perIsolate) != len(b.perIsolate):
		return fmt.Sprintf("isolate count %d != %d", len(a.perIsolate), len(b.perIsolate))
	}
	for iso, av := range a.perIsolate {
		bv, ok := b.perIsolate[iso]
		if !ok {
			return fmt.Sprintf("isolate %s missing", iso)
		}
		if av != bv {
			return fmt.Sprintf("isolate %s {instr, samples, allocObj, allocB, liveObj, liveB, gcActs, callsIn, callsOut} %v != %v", iso, av, bv)
		}
	}
	return ""
}

// runOracleProgram materializes and executes p under one configuration.
func runOracleProgram(t *testing.T, p oracleProgram, mode core.Mode, disp oracleDispatch, gc oracleGC) oracleTrace {
	t.Helper()
	// The small heap limit makes the alloc/array-churn fragments hit
	// GC-on-pressure collections mid-run (and, under the paced config,
	// open ≥2 incremental cycles), so the oracle also proves the
	// collection points, the per-isolate byte accounts and the post-GC
	// reachability identical across dispatch and collector
	// configurations.
	pct, stride := gc.options()
	opts := interp.Options{
		Mode:               mode,
		HeapLimit:          32 << 10,
		MaxFrameDepth:      oraDepth,
		GCThresholdPercent: pct,
		GCMarkStride:       stride,
	}
	vm := disp.newVM(opts)
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	peerLoader := iso.Loader()
	var peer *core.Isolate
	if mode == core.ModeIsolated {
		peer, err = vm.NewIsolate("peer")
		if err != nil {
			t.Fatal(err)
		}
		peerLoader = peer.Loader()
	} else {
		peerLoader = vm.Registry().NewLoader("peer")
	}
	if err := peerLoader.DefineAll(oraclePeerClasses()); err != nil {
		t.Fatal(err)
	}
	mainLoader := iso.Loader()
	cloneable := p.templateLoaded && peer != nil
	if cloneable {
		mainLoader = vm.Registry().NewLoader("template")
		iso.Loader().AddDelegate(mainLoader)
	}
	mainLoader.AddDelegate(peerLoader)
	if err := mainLoader.DefineAll(oracleMainClasses(p)); err != nil {
		t.Fatal(err)
	}
	c, err := iso.Loader().Lookup(oraMain)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	arg := p.seed % 97
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 5_000_000)
	if err != nil {
		t.Fatalf("seed %d mode %v dispatch %d gc %d: host error: %v", p.seed, mode, disp, gc, err)
	}
	trips := coldGraphTrips(t, vm, iso, peer, c, cloneable)
	// The terminal collection is exact under every configuration
	// (heap.Collect abandons an open cycle), so the post-GC live
	// figures below are the heap-reachable ground truth.
	vm.CollectGarbage(nil)
	tr := oracleTrace{
		result:         v.I,
		failure:        th.FailureString(),
		output:         vm.Output(),
		total:          vm.TotalInstructions(),
		clock:          vm.Clock(),
		trips:          trips,
		perIsolate:     make(map[string][9]int64),
		incCycles:      vm.Heap().IncrementalCycles(),
		barrierRecords: vm.Heap().BarrierRecords(),
	}
	for _, s := range vm.Snapshots() {
		tr.perIsolate[s.IsolateName] = [9]int64{
			s.Instructions, s.CPUSamples,
			s.AllocatedObjects, s.AllocatedBytes,
			s.LiveObjects, s.LiveBytes,
			s.GCActivations,
			s.InterBundleCallsIn, s.InterBundleCallsOut,
		}
	}
	return tr
}

// graphShape hashes the canonical shape of everything reachable from v:
// class names, array-ness, slot counts, scalars, string payloads and the
// aliasing structure (visit-order numbering) — what a copy must preserve
// and object identity must not influence.
func graphShape(v heap.Value) uint64 {
	h := fnv.New64a()
	seen := make(map[*heap.Object]int)
	var walk func(v heap.Value)
	walk = func(v heap.Value) {
		o := v.R
		if o == nil {
			fmt.Fprintf(h, "v%d:%d:%x;", v.Kind, v.I, v.F)
			return
		}
		if n, ok := seen[o]; ok {
			fmt.Fprintf(h, "@%d;", n)
			return
		}
		seen[o] = len(seen)
		if s, ok := o.StringValue(); ok {
			fmt.Fprintf(h, "%s=%q;", o.Class.Name, s)
			return
		}
		fmt.Fprintf(h, "%s/%v[%d]{", o.Class.Name, o.IsArray(), len(o.Elems))
		for _, sv := range o.Elems {
			walk(sv)
		}
		fmt.Fprint(h, "}")
	}
	walk(v)
	return h.Sum64()
}

// coldGraphTrips pushes the program's static keep graph — cold-record
// objects holding strings, zero-length arrays, nulls — through the three
// host paths that rebuild or share object graphs, after the guest run and
// (under the paced collector) possibly beside an open mark cycle:
//
//   - CaptureSnapshot → CloneIsolate: the clone's reachability
//     fingerprint must equal the template's;
//   - rpc.DeepCopyValue into the peer: same shape, no shared mutable
//     node, and the copies carry no lock or hash of their originals;
//   - a frozen array of the graph's strings and zero-length arrays
//     through a ZeroCopy link: it arrives by pointer and the handoff pin
//     is dropped.
//
// The returned summary joins the trace, so every number in it is compared
// across dispatch engines and collector configurations; the clones and
// copies stay live (pinned) and so also show in the per-isolate accounts.
// Only a template-loaded isolate can be cloned (oracleProgram.templateLoaded);
// the other programs make the deep-copy trip alone.
func coldGraphTrips(t *testing.T, vm *interp.VM, iso, peer *core.Isolate, main *classfile.Class, cloneable bool) string {
	t.Helper()
	keepField, err := main.LookupStaticField("keep")
	if err != nil {
		t.Fatal(err)
	}
	var keep heap.Value
	for _, e := range vm.World().MirrorEntries(iso) {
		if e.Class == main {
			keep = e.Mirror.Statics[keepField.Slot]
		}
	}
	if keep.R == nil { // the uncaught-exception variant never allocates it
		return "no keep graph"
	}
	target := iso
	if peer != nil {
		target = peer
	}
	dup, err := rpc.DeepCopyValue(vm, keep, target)
	if err != nil {
		return "deep copy: " + err.Error()
	}
	vm.Pin(target.ID(), dup.R)
	if got, want := graphShape(dup), graphShape(keep); got != want {
		t.Fatalf("deep copy has shape %x, the keep graph %x", got, want)
	}
	var frozenElems []heap.Value
	cold, zero := 0, 0
	for i, sv := range keep.R.Elems {
		o, d := sv.R, dup.R.Elems[i].R
		if o == nil {
			continue
		}
		if d == o {
			t.Fatalf("keep[%d]: the deep copy shares a mutable node", i)
		}
		if d.IdentityHash() != 0 || d.Monitor().Owner != 0 {
			t.Fatalf("keep[%d]: the copy inherited hash %d / owner %d", i, d.IdentityHash(), d.Monitor().Owner)
		}
		if o.IsArray() {
			zero++
			frozenElems = append(frozenElems, sv)
			continue
		}
		cold++
		if o.IdentityHash() == 0 {
			t.Fatalf("keep[%d]: the cold object lost its identity hash", i)
		}
		// ora/Base.link: the interned string, unless an aging-store
		// fragment has overwritten it with a receiver since.
		if link := o.Elems[1]; link.R != nil {
			if _, isStr := link.R.StringValue(); isStr {
				frozenElems = append(frozenElems, link)
			}
		}
	}
	summary := fmt.Sprintf("cold=%d zero=%d copy=%x", cold, zero, graphShape(dup))
	if !cloneable {
		return summary
	}

	// Host-path allocation does not collect on exhaustion: its caller owns
	// that decision (HostRoots.alloc). Under the exact collector the small
	// heap may still hold garbage the paced one has already swept, so a
	// trip that runs out of memory collects once and retries — whether it
	// succeeds must not depend on the collector configuration.
	retryOOM := func(f func() error) error {
		err := f()
		if errors.Is(err, heap.ErrOutOfMemory) {
			vm.CollectGarbage(nil)
			err = f()
		}
		return err
	}
	snap, err := vm.CaptureSnapshot(iso, interp.SnapshotOptions{})
	if err != nil {
		return summary + " capture: " + err.Error()
	}
	defer snap.Release()
	var clone *core.Isolate
	if err := retryOOM(func() (err error) {
		clone, err = vm.CloneIsolate(snap, "clone")
		return err
	}); err != nil {
		return summary + " clone: " + err.Error()
	}
	if got, want := vm.ReachabilityFingerprint(clone), vm.ReachabilityFingerprint(iso); got != want {
		t.Fatalf("clone fingerprint %x, template %x", got, want)
	}
	summary += fmt.Sprintf(" clone=%x", vm.ReachabilityFingerprint(clone))

	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	roots := vm.NewHostRoots(iso)
	defer roots.Release()
	var payload *heap.Object
	if err := retryOOM(func() (err error) {
		payload, err = vm.AllocArrayRooted(roots, objClass, len(frozenElems)+1, iso)
		return err
	}); err != nil {
		return summary + " payload: " + err.Error()
	}
	copy(payload.Elems, frozenElems)
	payload.Elems[len(frozenElems)] = heap.IntVal(int64(len(frozenElems)))
	if err := heap.Freeze(payload); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	svc, err := peer.Loader().Lookup(oraSvc)
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.LookupMethod("id", "(Ljava/lang/Object;)Ljava/lang/Object;")
	if err != nil {
		t.Fatal(err)
	}
	hub := rpc.NewHub(vm)
	defer hub.Close()
	link, err := hub.NewLink(iso, peer, id, heap.Value{}, rpc.LinkOptions{ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	batchesBefore := vm.HostRootBatches()
	fut, err := link.CallAsync([]heap.Value{heap.RefVal(payload)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fut.Wait()
	if err != nil {
		return summary + " call: " + err.Error()
	}
	if got.R != payload {
		t.Fatal("the frozen payload was copied")
	}
	fut.Release()
	if n := vm.HostRootBatches() - batchesBefore; n != 0 {
		t.Fatalf("%d host root batches leaked by the zero-copy call", n)
	}
	return summary + fmt.Sprintf(" frozen=%x", graphShape(got))
}

// TestRandomizedDifferentialOracle replays >= 500 generated programs
// across {seed switch, closure-threaded} × {Shared, Isolated} ×
// {exact, incremental-paced} and demands:
//
//   - byte-identical traces (GCActivations included) between the two
//     dispatch engines under the exact reference collector;
//   - byte-identical traces between the two dispatch engines under the
//     paced incremental collector (its GC schedule is deterministic at
//     quantum boundaries);
//   - byte-identical everything-but-GCActivations between the paced
//     runs and the reference (background cycles move the collection
//     points; outcome, accounts and final reachability must not move);
//   - that the paced configuration really ran ≥2 incremental cycles
//     with live SATB barrier traffic on a healthy fraction of programs
//     (no silent degeneration to stop-the-world).
func TestRandomizedDifferentialOracle(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 60
	}
	multiCycle, barrierHits, coldTrips := 0, 0, 0
	for i := 0; i < n; i++ {
		seed := int64(i)*2654435761 + 99991
		p := genOracleProgram(seed)
		for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			ref := runOracleProgram(t, p, mode, dispSeed, gcExact)
			if d := ref.diff(runOracleProgram(t, p, mode, dispClosure, gcExact)); d != "" {
				t.Fatalf("program %d (seed %d) mode %v exact: the closure tier diverges from seed dispatch: %s",
					i, seed, mode, d)
			}
			pacedSeed := runOracleProgram(t, p, mode, dispSeed, gcIncPaced)
			if d := pacedSeed.diff(runOracleProgram(t, p, mode, dispClosure, gcIncPaced)); d != "" {
				t.Fatalf("program %d (seed %d) mode %v paced: the closure tier diverges from seed dispatch: %s",
					i, seed, mode, d)
			}
			if d := ref.maskGCActivations().diff(pacedSeed.maskGCActivations()); d != "" {
				t.Fatalf("program %d (seed %d) mode %v: incremental(paced) diverges from the exact reference beyond GCActivations: %s",
					i, seed, mode, d)
			}
			if pacedSeed.incCycles >= 2 {
				multiCycle++
			}
			if pacedSeed.barrierRecords > 0 {
				barrierHits++
			}
			var cold, zero int
			if fmt.Sscanf(pacedSeed.trips, "cold=%d zero=%d", &cold, &zero); cold > 0 && zero > 0 &&
				strings.Contains(pacedSeed.trips, "frozen=") {
				coldTrips++
			}
		}
	}
	// Sized so the alloc bursts drive ≥2 incremental cycles mid-run on a
	// meaningful share of programs, with real barrier records — the
	// paced dimension must not silently degenerate.
	if multiCycle < n/10 {
		t.Fatalf("only %d/%d paced runs saw >=2 incremental cycles", multiCycle, 2*n)
	}
	if barrierHits == 0 {
		t.Fatal("no paced run recorded a single SATB barrier record")
	}
	// A cold-record object and a zero-length array in one graph must
	// have made all three host trips on a fair number of programs.
	if coldTrips < n/25 {
		t.Fatalf("only %d/%d programs sent a cold object and a zero-length array through clone, deep copy and the frozen call", coldTrips, n)
	}
}
