// Command osgidemo reproduces §4.1's motivation experiment: the Felix
// paint-demo analogue, where the drawing area and the shapes are separate
// bundles and a single shape drag from the upper-left to the bottom-right
// of the canvas produces roughly two hundred inter-bundle calls.
//
// With -workers N the drag runs on the concurrent isolate scheduler: one
// drag thread per shape, shapes dragged in parallel across N workers,
// with the per-isolate result table printed afterwards.
//
// Usage:
//
//	osgidemo [-mode shared|isolated] [-steps 200] [-shapes 3] [-workers 0]
//	         [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "osgidemo:", err)
		os.Exit(1)
	}
}

func run(argv []string) error {
	fs := flag.NewFlagSet("osgidemo", flag.ContinueOnError)
	mode := fs.String("mode", "isolated", "vm mode: shared or isolated")
	steps := fs.Int64("steps", 200, "drag steps (one inter-bundle call each)")
	nShapes := fs.Int("shapes", 3, "number of shape bundles")
	workers := fs.Int("workers", 0, "run the drag on the concurrent isolate scheduler with this many workers (0 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the drag to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(argv); err != nil {
		return err
	}
	vmMode, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			mf, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "osgidemo: memprofile:", err)
				return
			}
			defer mf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "osgidemo: memprofile:", err)
			}
		}()
	}
	vm := interp.NewVM(interp.Options{Mode: vmMode})
	if err := syslib.Install(vm); err != nil {
		return err
	}
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return err
	}

	// Shape bundles: each exports a shape service the canvas drags.
	shapeNames := make([]string, 0, *nShapes)
	for i := 0; i < *nShapes; i++ {
		name := fmt.Sprintf("shape%d", i)
		b, err := fw.Install(shapeManifest(name), shapeClasses(name))
		if err != nil {
			return err
		}
		if _, err := fw.Start(b); err != nil {
			return err
		}
		shapeNames = append(shapeNames, name)
	}

	// The canvas bundle imports every shape package.
	canvas, err := fw.Install(canvasManifest(shapeNames), canvasClasses(shapeNames))
	if err != nil {
		return err
	}
	if _, err := fw.Start(canvas); err != nil {
		return err
	}

	// Drag each shape across the canvas.
	canvasClass, err := canvas.Loader().Lookup("paint/Canvas")
	if err != nil {
		return err
	}
	var checksum int64
	if *workers > 0 {
		// Concurrent drag: one thread per shape, executed by the isolate
		// scheduler — each drag migrates between the canvas shard and its
		// shape's shard on every move() call.
		dragOneM, err := canvasClass.LookupMethod("dragOne", "(II)I")
		if err != nil {
			return err
		}
		var threads []*interp.Thread
		for i := 0; i < *nShapes; i++ {
			th, err := vm.SpawnThread(fmt.Sprintf("drag%d", i), canvas.Isolate(), dragOneM,
				[]heap.Value{heap.IntVal(int64(i)), heap.IntVal(*steps)})
			if err != nil {
				return err
			}
			threads = append(threads, th)
		}
		start := time.Now()
		res := sched.Run(vm, *workers, 0)
		elapsed := time.Since(start)
		for i, th := range threads {
			if th.Failure() != nil {
				return fmt.Errorf("drag %d failed: %s", i, th.FailureString())
			}
			checksum += th.Result().I
		}
		fmt.Printf("Paint demo (%s mode, %d workers): dragged %d shapes for %d steps; checksum %d\n",
			vmMode, *workers, *nShapes, *steps, checksum)
		fmt.Printf("%d instructions in %v (%.1f Minstr/s)\n\nPer-isolate run results:\n",
			res.Instructions, elapsed, float64(res.Instructions)/1e6/elapsed.Seconds())
		for _, ir := range res.PerIsolate {
			fmt.Printf("  %-10s instructions=%-10d killed=%-5v threads-left=%d\n",
				ir.Name, ir.Instructions, ir.Killed, ir.ThreadsRemaining)
		}
	} else {
		dragM, err := canvasClass.LookupMethod("dragAll", "(I)I")
		if err != nil {
			return err
		}
		total, th, err := vm.CallRoot(canvas.Isolate(), dragM, []heap.Value{heap.IntVal(*steps)}, 0)
		if err != nil {
			return err
		}
		if th.Failure() != nil {
			return fmt.Errorf("drag failed: %s", th.FailureString())
		}
		checksum = total.I
		fmt.Printf("Paint demo (%s mode): dragged %d shapes for %d steps; checksum %d\n",
			vmMode, *nShapes, *steps, checksum)
	}
	if vmMode == core.ModeIsolated {
		fmt.Println("\nInter-bundle calls observed per bundle (the §4.1 measurement):")
		for _, b := range fw.Bundles() {
			acc := b.Isolate().Account()
			fmt.Printf("  %-10s in=%-6d out=%-6d\n", b.Name(), acc.InterBundleCallsIn.Load(), acc.InterBundleCallsOut.Load())
		}
		fmt.Printf("\nA full drag makes ~%d inter-bundle calls per shape — the reason\n", *steps)
		fmt.Println("OSGi needs direct-call-speed communication (Table 1).")
	} else {
		fmt.Println("Baseline mode: no isolates, so no per-bundle call accounting exists.")
	}
	return nil
}

func shapeManifest(name string) osgi.Manifest {
	return osgi.Manifest{
		Name:      name,
		Version:   "1.0.0",
		Exports:   []string{"shapes/" + name},
		Activator: "shapes/" + name + "/Activator",
	}
}

// shapeClasses builds one shape bundle: a Shape service with a move(dx)
// callback, registered under svc/<name>.
func shapeClasses(name string) []*classfile.Class {
	pkg := "shapes/" + name
	shapeName := pkg + "/Shape"
	actName := pkg + "/Activator"
	shape := classfile.NewClass(shapeName).
		Field("x", classfile.KindInt).
		Field("y", classfile.KindInt).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		// move(d): one drag step — the inter-bundle call the canvas makes.
		Method("move", "(I)I", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).ALoad(0).GetField(shapeName, "x").ILoad(1).IAdd().PutField(shapeName, "x")
			a.ALoad(0).ALoad(0).GetField(shapeName, "y").ILoad(1).IAdd().PutField(shapeName, "y")
			a.ALoad(0).GetField(shapeName, "x").ALoad(0).GetField(shapeName, "y").IAdd().IReturn()
		}).MustBuild()
	activator := classfile.NewClass(actName).
		Method("start", "(Lijvm/osgi/BundleContext;)V", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).Str("svc/" + name)
			a.New(shapeName).Dup().InvokeSpecial(shapeName, classfile.InitName, "()V")
			a.InvokeVirtual("ijvm/osgi/BundleContext", "registerService", "(Ljava/lang/String;Ljava/lang/Object;)V")
			a.Return()
		}).MustBuild()
	return []*classfile.Class{shape, activator}
}

func canvasManifest(shapeNames []string) osgi.Manifest {
	imports := make([]string, len(shapeNames))
	for i, n := range shapeNames {
		imports[i] = "shapes/" + n
	}
	return osgi.Manifest{
		Name:      "canvas",
		Version:   "1.0.0",
		Imports:   imports,
		Activator: "paint/Activator",
	}
}

// canvasClasses builds the drawing-area bundle: on start it looks every
// shape service up; dragAll(steps) drags each shape step by step.
func canvasClasses(shapeNames []string) []*classfile.Class {
	const cn = "paint/Canvas"
	canvas := classfile.NewClass(cn).
		StaticField("shapes", classfile.KindRef).
		Method("install", "(Lijvm/osgi/BundleContext;)V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(int64(len(shapeNames))).NewArray("").PutStatic(cn, "shapes")
			for i, n := range shapeNames {
				a.GetStatic(cn, "shapes").Const(int64(i))
				a.ALoad(0).Str("svc/"+n).
					InvokeVirtual("ijvm/osgi/BundleContext", "getService", "(Ljava/lang/String;)Ljava/lang/Object;")
				a.ArrayStore()
			}
			a.Return()
		}).
		// dragOne(i, steps): drag a single shape — the unit the concurrent
		// scheduler runs one thread (and shard handoff chain) per shape on.
		Method("dragOne", "(II)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(2) // step
			a.Const(0).IStore(3) // sum
			a.Label("steps")
			a.ILoad(2).ILoad(1).IfICmpGe("done")
			a.GetStatic(cn, "shapes").ILoad(0).ArrayLoad()
			a.Const(1).InvokeVirtual(shapeClassOf(shapeNames[0]), "move", "(I)I").IStore(3)
			a.IInc(2, 1).Goto("steps")
			a.Label("done")
			a.ILoad(3).IReturn()
		}).
		Method("dragAll", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// for each shape: for (s = 0; s < steps; s++) sum = shape.move(1)
			a.Const(0).IStore(1) // shape index
			a.Const(0).IStore(3) // sum
			a.Label("shapes")
			a.ILoad(1).GetStatic(cn, "shapes").ArrayLength().IfICmpGe("done")
			a.Const(0).IStore(2) // step
			a.Label("steps")
			a.ILoad(2).ILoad(0).IfICmpGe("next")
			a.GetStatic(cn, "shapes").ILoad(1).ArrayLoad()
			a.Const(1).InvokeVirtual(shapeClassOf(shapeNames[0]), "move", "(I)I").IStore(3)
			a.IInc(2, 1).Goto("steps")
			a.Label("next")
			a.IInc(1, 1).Goto("shapes")
			a.Label("done")
			a.ILoad(3).IReturn()
		}).MustBuild()
	activator := classfile.NewClass("paint/Activator").
		Method("start", "(Lijvm/osgi/BundleContext;)V", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeStatic(cn, "install", "(Lijvm/osgi/BundleContext;)V").Return()
		}).MustBuild()
	return []*classfile.Class{canvas, activator}
}

func shapeClassOf(name string) string { return "shapes/" + name + "/Shape" }
