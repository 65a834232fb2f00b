package interp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ijvm/internal/attacks"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
	paper "ijvm/internal/workloads"
)

var updateLeafGolden = flag.Bool("update-leaf-golden", false, "rewrite testdata/leaf_verdicts.golden")

// leafGoldenFile pins what preparation makes of every method of a fixed
// class corpus: the number of call sites the closure program compiles and,
// for an inlinable leaf, its form (LeafVerdictForTest).
const leafGoldenFile = "testdata/leaf_verdicts.golden"

// TestLeafVerdictsGolden prepares every method of the workloads' class
// sets, of every class the attack suite installs, of the randomized
// oracle's classes (one program holding every fragment kind, and the
// oracle's first programs) and of the leaf tests' shape classes, and
// compares each verdict with the golden file. Refresh the file with
// `go test ./internal/interp -run TestLeafVerdictsGolden -update-leaf-golden`
// only for a change that means to move a verdict.
func TestLeafVerdictsGolden(t *testing.T) {
	var lines []string
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	add := func(set string, classes []*classfile.Class) {
		for _, c := range classes {
			lines = append(lines, verdictLines(t, vm, set, c)...)
		}
	}
	for _, s := range paper.SpecJVM98() {
		add("spec/"+s.Name, s.Classes())
	}
	add("service", paper.ServiceClasses())
	add("caller", paper.CallerClasses())
	add("intra", paper.IntraCallClasses())
	add("alloc", paper.AllocClasses())
	add("static", paper.StaticAccessClasses())
	add("gateway", paper.GatewayClasses())

	// The attack suite's bundles: every class a run links, read off the VMs
	// it builds.
	var vms []*interp.VM
	attacks.TestHookNewVM = func(v *interp.VM) { vms = append(vms, v) }
	for _, a := range append(attacks.All(), attacks.Extensions()...) {
		if _, err := a.Run(core.ModeIsolated); err != nil {
			attacks.TestHookNewVM = nil
			t.Fatalf("attack %s: %v", a.ID, err)
		}
	}
	attacks.TestHookNewVM = nil
	for i, v := range vms {
		reg := v.Registry()
		for id := 0; id < reg.NumClasses(); id++ {
			if c := reg.ClassByStaticsID(id); c != nil && !c.IsSystem() {
				lines = append(lines, verdictLines(t, v, fmt.Sprintf("attack vm%d", i), c)...)
			}
		}
	}

	every := genOracleProgram(1)
	every.frags = nil
	for k := oracleFragKind(0); k < numFragKinds; k++ {
		every.frags = append(every.frags, oracleFrag{kind: k, op: int(k) % 6, c: int64(k)*7 - 30,
			r1: int(k) % every.numImpls, r2: int(k+1) % every.numImpls, divisor: 2, arrLen: 3, arrIdx: 1})
	}
	every.uncaughtAt = -1
	add("oracle every-kind", oracleMainClasses(every))
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("oracle %d", i), oracleMainClasses(genOracleProgram(int64(i)*2654435761+99991)))
	}
	add("oracle peer", oraclePeerClasses())

	add("leaf", leafClasses())
	add("shapes", shapeClasses())
	add("sitecache", append(siteCacheCallee(), siteCacheCaller()))

	got := strings.Join(lines, "\n") + "\n"
	if *updateLeafGolden {
		if err := os.MkdirAll(filepath.Dir(leafGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(leafGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(leafGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("verdict line %d differs:\n got %s\nwant %s", i+1, gl, wl)
			}
		}
	}
}

// verdictLines prepares every method of c with code on vm and reports one
// line per method, sorted.
func verdictLines(t *testing.T, vm *interp.VM, set string, c *classfile.Class) []string {
	t.Helper()
	var out []string
	for _, m := range c.Methods {
		if m.Code == nil {
			continue
		}
		verdict := "unprepared"
		if p := vm.PreparedCodeForTest(m); p != nil {
			verdict = interp.LeafVerdictForTest(p)
		}
		out = append(out, fmt.Sprintf("%s: %s.%s%s %s", set, c.Name, m.Name, m.Desc.Raw(), verdict))
	}
	sort.Strings(out)
	return out
}
