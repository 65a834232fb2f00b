package main

import (
	"strings"
	"testing"
)

func TestLimitsTable(t *testing.T) {
	if err := run([]string{"-limits"}); err != nil {
		t.Fatal(err)
	}
}

func TestQoSTable(t *testing.T) {
	if testing.Short() {
		t.Skip("three SLO legs skipped in -short mode")
	}
	if err := run([]string{"-qos"}); err != nil {
		t.Fatal(err)
	}
}

func TestFlagValidation(t *testing.T) {
	err := run([]string{})
	if err == nil || !strings.Contains(err.Error(), "at least one") {
		t.Fatalf("err = %v", err)
	}
	// The tables bench/ reports are gone, and so are their flags.
	for _, gone := range []string{"-table1", "-fig1", "-fig2", "-fig3", "-serve", "-reps=1"} {
		if err := run([]string{gone, "-limits"}); err == nil {
			t.Errorf("%s accepted", gone)
		}
	}
}
