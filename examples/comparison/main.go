// Comparison: the same two-bundle scenario executed twice — once on the
// baseline VM (ModeShared, the paper's Sun JVM column) and once on I-JVM
// (ModeIsolated) — printing what each VM lets the malicious bundle do.
// This is the paper's core thesis in one runnable program:
//
//   - a static variable the victim depends on (attack A1): shared on the
//     baseline, duplicated per isolate under I-JVM;
//   - interned strings (§3.5): identical objects across bundles on the
//     baseline, distinct under I-JVM (== breaks, equals works);
//   - resource accounting: non-existent on the baseline, per-bundle under
//     I-JVM.
//
// Run it with:
//
//	go run ./examples/comparison
package main

import (
	"fmt"
	"os"

	"ijvm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "comparison:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, mode := range []ijvm.Mode{ijvm.ModeShared, ijvm.ModeIsolated} {
		label := "baseline JVM (shared)"
		if mode == ijvm.ModeIsolated {
			label = "I-JVM (isolated)"
		}
		fmt.Printf("== %s\n", label)
		if err := scenario(mode); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Println()
	}
	return nil
}

func scenario(mode ijvm.Mode) error {
	vm, err := ijvm.New(ijvm.Options{Mode: mode})
	if err != nil {
		return err
	}
	victim, err := vm.NewIsolate("victim")
	if err != nil {
		return err
	}
	malice, err := vm.NewIsolate("malice")
	if err != nil {
		return err
	}

	// The victim publishes a static config value its code depends on.
	const cn = "victim/Config"
	victimClass := ijvm.NewClass(cn).
		StaticField("setting", ijvm.KindInt).
		Method(ijvm.ClinitName, "()V", ijvm.FlagStatic, func(a *ijvm.Asm) {
			a.Const(42).PutStatic(cn, "setting").Return()
		}).
		Method("read", "()I", ijvm.FlagStatic|ijvm.FlagPublic, func(a *ijvm.Asm) {
			a.GetStatic(cn, "setting").IReturn()
		}).MustBuild()
	if err := victim.Define(victimClass); err != nil {
		return err
	}
	malice.Wire(victim)

	// The malicious bundle overwrites the victim's static (attack A1)
	// and compares an interned string literal against the victim's.
	maliceClass := ijvm.NewClass("malice/Tamper").
		Method("tamper", "()V", ijvm.FlagStatic|ijvm.FlagPublic, func(a *ijvm.Asm) {
			a.Const(-1).PutStatic(cn, "setting").Return()
		}).MustBuild()
	if err := malice.Define(maliceClass); err != nil {
		return err
	}

	before, _, err := victim.Call(cn, "read", nil)
	if err != nil {
		return err
	}
	if _, _, err := malice.Call("malice/Tamper", "tamper", nil); err != nil {
		return err
	}
	after, _, err := victim.Call(cn, "read", nil)
	if err != nil {
		return err
	}
	fmt.Printf("  victim's static before/after the attack: %d / %d", before.I, after.I)
	if after.I != before.I {
		fmt.Println("   <-- corrupted")
	} else {
		fmt.Println("   <-- attacker only wrote its own mirror copy")
	}

	// String identity across bundles (§3.5).
	v1, err := vm.Inner().InternString(nil, victim.Core(), "shared-literal")
	if err != nil {
		return err
	}
	m1, err := vm.Inner().InternString(nil, malice.Core(), "shared-literal")
	if err != nil {
		return err
	}
	fmt.Printf("  \"shared-literal\" == across bundles: %v (equals always works)\n", v1 == m1)

	// Accounting.
	vm.GC(nil)
	if mode == ijvm.ModeIsolated {
		for _, iso := range []*ijvm.Isolate{victim, malice} {
			s := iso.Snapshot()
			fmt.Printf("  account[%s]: %d instructions, %d bytes live\n",
				s.IsolateName, s.Instructions, s.LiveBytes)
		}
	} else {
		fmt.Println("  accounts: none — the baseline cannot attribute anything per bundle")
	}
	return nil
}
