package osgi_test

import (
	"regexp"
	"strings"
	"testing"

	"ijvm/internal/core"
	"ijvm/internal/osgi"
)

func shellEnv(t *testing.T) (*osgi.Framework, *osgi.Shell) {
	t.Helper()
	f := newFramework(t, core.ModeIsolated)
	if _, err := osgi.InstallAndStart(f, osgi.FelixConfig()); err != nil {
		t.Fatal(err)
	}
	return f, osgi.NewShell(f)
}

func execute(t *testing.T, s *osgi.Shell, cmd string) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Execute(&sb, cmd); err != nil {
		t.Fatalf("%q: %v", cmd, err)
	}
	return sb.String()
}

func TestShellBundlesAndServices(t *testing.T) {
	_, s := shellEnv(t)
	out := execute(t, s, "bundles")
	for _, want := range []string{"administration", "shell", "repository", "ACTIVE"} {
		if !strings.Contains(out, want) {
			t.Errorf("bundles output missing %q:\n%s", want, out)
		}
	}
	out = execute(t, s, "services")
	if !strings.Contains(out, "svc/administration") {
		t.Errorf("services output missing registration:\n%s", out)
	}
}

func TestShellStatsAndMem(t *testing.T) {
	_, s := shellEnv(t)
	out := execute(t, s, "stats")
	if !strings.Contains(out, "osgi-framework") || !strings.Contains(out, "LIVE-B") {
		t.Errorf("stats output:\n%s", out)
	}
	out = execute(t, s, "mem")
	if !strings.Contains(out, "heap:") || !strings.Contains(out, "footprint:") || !regexp.MustCompile(`classes:   [1-9]\d* linked, [1-9]\d* loaders`).MatchString(out) {
		t.Errorf("mem output:\n%s", out)
	}
	out = execute(t, s, "precise")
	if !strings.Contains(out, "SHARED-B") {
		t.Errorf("precise output:\n%s", out)
	}
	out = execute(t, s, "threads")
	if !strings.Contains(out, "STATE") {
		t.Errorf("threads output:\n%s", out)
	}
	execute(t, s, "gc")
}

func TestShellLifecycleAndKill(t *testing.T) {
	f, s := shellEnv(t)
	out := execute(t, s, "kill shell")
	if !strings.Contains(out, "kill shell") {
		t.Errorf("kill output:\n%s", out)
	}
	b := f.BundleByName("shell")
	if !b.Isolate().Killed() {
		t.Fatal("shell bundle not killed")
	}
	out = execute(t, s, "bundles")
	if !strings.Contains(out, "killed") && !strings.Contains(out, "disposed") {
		t.Errorf("killed state not shown:\n%s", out)
	}
	// Errors for unknown bundles and commands.
	var sb strings.Builder
	if err := s.Execute(&sb, "kill nosuch"); err == nil {
		t.Fatal("kill of unknown bundle accepted")
	}
	if err := s.Execute(&sb, "frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := s.Execute(&sb, ""); err != nil {
		t.Fatal("empty line must be a no-op")
	}
	execute(t, s, "help")
	execute(t, s, "detect")
}
