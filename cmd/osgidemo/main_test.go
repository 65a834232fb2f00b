package main

import (
	"strings"
	"testing"
)

func TestPaintDemoBothModes(t *testing.T) {
	if err := run([]string{"-steps", "10", "-shapes", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "shared", "-steps", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestPaintDemoBadMode(t *testing.T) {
	err := run([]string{"-mode", "bogus", "-steps", "10"})
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("err = %v", err)
	}
}
