package main

import (
	"strings"
	"testing"
)

func TestShellScriptMode(t *testing.T) {
	err := run([]string{"-c", "bundles; services; stats; mem; detect; kill shell; bundles"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShellEquinoxConfig(t *testing.T) {
	if err := run([]string{"-config", "equinox", "-c", "bundles"}); err != nil {
		t.Fatal(err)
	}
}

func TestShellSharedMode(t *testing.T) {
	// Baseline mode: the platform boots, but kill is unavailable; the
	// shell surfaces the error without crashing.
	if err := run([]string{"-mode", "shared", "-c", "bundles; kill shell"}); err != nil {
		t.Fatal(err)
	}
}

func TestShellBadConfig(t *testing.T) {
	err := run([]string{"-config", "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown config") {
		t.Fatalf("err = %v", err)
	}
}

func TestShellBadMode(t *testing.T) {
	err := run([]string{"-mode", "bogus", "-c", "mem"})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("err = %v", err)
	}
}
