// Command ijvm assembles and runs a .jasm program (see internal/textasm
// for the format) under either the baseline (shared) VM or I-JVM
// (isolated) semantics.
//
// Usage:
//
//	ijvm [-mode shared|isolated] [-class demo/Main] [-method run] \
//	     [-n 0] [-budget 100000000] [-stats] program.jasm
//
// The entry method must be static with descriptor ()I, ()V, (I)I or
// (I)V; -n supplies the integer argument when one is declared.
package main

import (
	"flag"
	"fmt"
	"os"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
	"ijvm/internal/textasm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ijvm:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("ijvm", flag.ContinueOnError)
	mode := fs.String("mode", "isolated", "vm mode: shared (baseline JVM) or isolated (I-JVM)")
	className := fs.String("class", "", "entry class (default: first class in the program)")
	methodName := fs.String("method", "run", "entry method name")
	n := fs.Int64("n", 0, "integer argument for (I)I / (I)V entry methods")
	budget := fs.Int64("budget", 100_000_000, "instruction budget (0 = unlimited)")
	stats := fs.Bool("stats", false, "print per-isolate resource statistics after the run")
	dump := fs.Bool("dump", false, "print the assembled program back as .jasm and exit")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one .jasm file, got %d args", fs.NArg())
	}

	vmMode, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	classes, err := textasm.Parse(string(src))
	if err != nil {
		return fmt.Errorf("assemble %s: %w", fs.Arg(0), err)
	}
	if *dump {
		fmt.Print(textasm.Print(classes))
		return nil
	}

	vm := interp.NewVM(interp.Options{Mode: vmMode})
	if err := syslib.Install(vm); err != nil {
		return err
	}
	iso, err := vm.NewIsolate("main")
	if err != nil {
		return err
	}
	if err := iso.Loader().DefineAll(classes); err != nil {
		return err
	}

	entryClass := classes[0]
	if *className != "" {
		entryClass, err = iso.Loader().Lookup(*className)
		if err != nil {
			return err
		}
	}
	m, args, err := resolveEntry(entryClass, *methodName, *n)
	if err != nil {
		return err
	}

	v, th, err := vm.CallRoot(iso, m, args, *budget)
	if err != nil {
		return err
	}
	if out := vm.Output(); out != "" {
		fmt.Print(out)
	}
	if th.Failure() != nil {
		return fmt.Errorf("uncaught exception: %s", th.FailureString())
	}
	if m.Desc.Return != classfile.KindVoid {
		fmt.Printf("%s.%s => %s\n", entryClass.Name, m.Name, v.String())
	}
	if *stats {
		vm.CollectGarbage(nil)
		for _, s := range vm.Snapshots() {
			fmt.Printf("isolate %d (%s): instrs=%d cpuSamples=%d allocBytes=%d liveBytes=%d threads=%d gcs=%d\n",
				s.IsolateID, s.IsolateName, s.Instructions, s.CPUSamples,
				s.AllocatedBytes, s.LiveBytes, s.ThreadsCreated, s.GCActivations)
		}
	}
	return nil
}

// resolveEntry finds the entry method and builds its argument list.
func resolveEntry(c *classfile.Class, name string, n int64) (*classfile.Method, []heap.Value, error) {
	for _, desc := range []string{"()I", "()V", "(I)I", "(I)V"} {
		m, err := c.LookupMethod(name, desc)
		if err != nil {
			continue
		}
		if !m.IsStatic() {
			return nil, nil, fmt.Errorf("entry method %s must be static", m.QualifiedName())
		}
		if m.Desc.NumParams() == 1 {
			return m, []heap.Value{heap.IntVal(n)}, nil
		}
		return m, nil, nil
	}
	return nil, nil, fmt.Errorf("no static entry method %s with descriptor ()I, ()V, (I)I or (I)V in %s", name, c.Name)
}
