package osgi

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ijvm/internal/core"
)

// Shell is the framework's management console — the analogue of the Felix
// shell bundle from the paper's base configuration. It executes textual
// commands against the framework: listing bundles and services, dumping
// the per-isolate resource accounts (the administrator's §4.3 dashboard),
// killing misbehaving bundles, and forcing collections.
type Shell struct {
	fw *Framework
}

// NewShell creates a shell bound to a framework.
func NewShell(fw *Framework) *Shell { return &Shell{fw: fw} }

// Execute runs one command line and writes its output to w. Unknown
// commands return an error; the error is also suitable for display.
func (s *Shell) Execute(w io.Writer, line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		return s.help(w)
	case "bundles", "lb":
		return s.bundles(w)
	case "services":
		return s.services(w)
	case "stats":
		return s.stats(w)
	case "threads":
		return s.threads(w)
	case "precise":
		return s.precise(w)
	case "mem":
		return s.mem(w)
	case "gc":
		s.fw.vm.CollectGarbage(s.fw.isolate0)
		_, err := fmt.Fprintln(w, "collection complete")
		return err
	case "start", "stop", "kill", "uninstall":
		if len(args) != 1 {
			return fmt.Errorf("%s requires a bundle name", cmd)
		}
		return s.lifecycle(w, cmd, args[0])
	case "detect":
		return s.detect(w)
	case "shutdown":
		s.fw.Shutdown()
		_, err := fmt.Fprintln(w, "platform shutdown requested")
		return err
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (s *Shell) help(w io.Writer) error {
	_, err := fmt.Fprint(w, `commands:
  bundles | lb        list bundles and their states
  services            list registered services and owners
  stats               per-isolate resource accounts (runs a GC first)
  threads             list VM threads with state and current isolate
  precise             exact per-isolate memory (shared objects counted per sharer)
  mem                 heap and metadata memory footprint, linked classes and loaders
  gc                  force an accounting collection
  start <bundle>      start a bundle
  stop <bundle>       stop a bundle
  kill <bundle>       terminate a bundle's isolate (I-JVM mode)
  uninstall <bundle>  remove a stopped bundle
  detect              run the DoS detectors with default thresholds
  shutdown            stop the platform
  help                this text
`)
	return err
}

func (s *Shell) bundles(w io.Writer) error {
	fmt.Fprintf(w, "%-4s %-24s %-10s %-10s %s\n", "ID", "NAME", "VERSION", "STATE", "ISOLATE")
	for _, b := range s.fw.Bundles() {
		isoState := "-"
		if b.iso != nil {
			isoState = b.iso.State().String()
		}
		fmt.Fprintf(w, "%-4d %-24s %-10s %-10s %s\n",
			b.ID(), b.Name(), b.manifest.Version, b.State(), isoState)
	}
	return nil
}

func (s *Shell) services(w io.Writer) error {
	names := s.fw.registry.Names()
	if len(names) == 0 {
		_, err := fmt.Fprintln(w, "no services registered")
		return err
	}
	fmt.Fprintf(w, "%-28s %s\n", "SERVICE", "OWNER")
	for _, name := range names {
		owner := "?"
		if b := s.fw.registry.OwnerOf(name); b != nil {
			owner = b.Name()
		}
		fmt.Fprintf(w, "%-28s %s\n", name, owner)
	}
	return nil
}

func (s *Shell) stats(w io.Writer) error {
	snaps := s.fw.AdminSnapshot()
	fmt.Fprintf(w, "%-20s %-9s %10s %10s %8s %6s %6s %8s %8s\n",
		"ISOLATE", "STATE", "LIVE-B", "ALLOC-B", "CPU-SMP", "THRD", "GCS", "IO-R", "IO-W")
	for _, snap := range snaps {
		fmt.Fprintf(w, "%-20s %-9s %10d %10d %8d %6d %6d %8d %8d\n",
			snap.IsolateName, snap.State, snap.LiveBytes, snap.AllocatedBytes,
			snap.CPUSamples, snap.ThreadsCreated, snap.GCActivations,
			snap.IOBytesRead, snap.IOBytesWritten)
	}
	return nil
}

func (s *Shell) threads(w io.Writer) error {
	fmt.Fprintf(w, "%-5s %-28s %-10s %-18s %s\n", "ID", "NAME", "STATE", "ISOLATE", "FRAMES")
	for _, t := range s.fw.vm.Threads() {
		if t.Done() {
			continue
		}
		isoName := "-"
		if iso := t.CurrentIsolate(); iso != nil {
			isoName = iso.Name()
		}
		fmt.Fprintf(w, "%-5d %-28s %-10s %-18s %d\n", t.ID(), t.Name(), t.State(), isoName, t.Depth())
	}
	return nil
}

// precise runs the exact (rejected-by-the-paper, on-demand here)
// accounting pass: shared objects are charged to every isolate that
// reaches them.
func (s *Shell) precise(w io.Writer) error {
	stats := s.fw.vm.PreciseAccounting()
	fmt.Fprintf(w, "%-20s %10s %10s %10s\n", "ISOLATE", "OBJECTS", "BYTES", "SHARED-B")
	for _, iso := range s.fw.vm.World().Isolates() {
		st := stats[iso.ID()]
		if st == nil {
			continue
		}
		fmt.Fprintf(w, "%-20s %10d %10d %10d\n", iso.Name(), st.Objects, st.Bytes, st.SharedBytes)
	}
	return nil
}

func (s *Shell) mem(w io.Writer) error {
	s.fw.vm.CollectGarbage(nil)
	h := s.fw.vm.Heap()
	fmt.Fprintf(w, "heap:      %d / %d bytes (%d objects)\n", h.Used(), h.Limit(), h.NumObjects())
	fmt.Fprintf(w, "metadata:  %d bytes (mirrors, string pools, accounts)\n",
		s.fw.vm.World().StructFootprint())
	fmt.Fprintf(w, "footprint: %d bytes\n", s.fw.vm.MemoryFootprint())
	// Classes are never unloaded: a tenant that defined its own leaves them
	// linked when it goes, and this line is where that shows.
	reg := s.fw.vm.Registry()
	fmt.Fprintf(w, "classes:   %d linked, %d loaders\n", reg.NumClasses(), reg.NumLoaders())
	return nil
}

func (s *Shell) lifecycle(w io.Writer, cmd, name string) error {
	b := s.fw.BundleByName(name)
	if b == nil {
		return fmt.Errorf("no bundle named %q", name)
	}
	switch cmd {
	case "start":
		if _, err := s.fw.Start(b); err != nil {
			return err
		}
	case "stop":
		if _, err := s.fw.Stop(b); err != nil {
			return err
		}
	case "kill":
		if err := s.fw.KillBundle(b); err != nil {
			return err
		}
		// Let staged termination exceptions drain.
		s.fw.vm.Run(1_000_000)
	case "uninstall":
		if err := s.fw.Uninstall(b); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%s %s: now %s\n", cmd, name, b.State())
	return nil
}

func (s *Shell) detect(w io.Writer) error {
	findings := s.fw.DetectOffenders(defaultShellThresholds())
	if len(findings) == 0 {
		_, err := fmt.Fprintln(w, "no findings")
		return err
	}
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Rule < findings[j].Rule })
	for _, f := range findings {
		fmt.Fprintln(w, " ", f.String())
	}
	return nil
}

func defaultShellThresholds() core.Thresholds {
	return core.DefaultThresholds()
}
