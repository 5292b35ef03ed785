package main

import (
	"strings"
	"testing"
)

func TestTubesimEndToEnd(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-seed", "7"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"TUBE Optimizer serving prices",
		"published rewards",
		"user1 TIP traffic",
		"user2 moved by TDP",
		"GUI pulls: 13", // initial pull + one per closed period
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

// TestTubesimScaled exercises the -users/-periods flags end to end: a
// five-user, six-period testbed reported over the wire ingestion
// path, with one GUI pull per period plus the initial pull.
func TestTubesimScaled(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-seed", "3", "-users", "5", "-periods", "6"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"testbed: 5 users, 6 periods",
		"aggregate TIP traffic",
		"GUI pulls: 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestTubesimBadAddr(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-addr", "256.0.0.1:99999"}, &sb); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestTubesimBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-users", "0"},
		{"-periods", "1"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
