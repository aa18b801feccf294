package emu_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mfup/internal/loops"
	"mfup/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace_sha256.txt")

const goldenPath = "testdata/trace_sha256.txt"

// goldenKernels is the pinned set: the 14 scalar kernels at their
// paper-default and maximum loop lengths, then the 9 vector codings.
func goldenKernels(t *testing.T) (labels []string, ks []*loops.Kernel) {
	t.Helper()
	for _, k := range loops.All() {
		_, maxN, err := loops.Bounds(k.Number)
		if err != nil {
			t.Fatal(err)
		}
		big, err := loops.Scaled(k.Number, maxN)
		if err != nil {
			t.Fatal(err)
		}
		labels = append(labels, fmt.Sprintf("lfk%02d/n=%d", k.Number, k.N), fmt.Sprintf("lfk%02d/n=%d", k.Number, maxN))
		ks = append(ks, k, big)
	}
	for _, k := range loops.VectorKernels() {
		labels = append(labels, fmt.Sprintf("lfk%02dv/n=%d", k.Number, k.N))
		ks = append(ks, k)
	}
	return labels, ks
}

// TestTraceGolden pins every built-in trace byte for byte: the SHA-256
// of its trace.WriteBinary encoding must match the committed digest.
// Any emulator change that alters a dynamic trace — an op, an address,
// a branch outcome, the op count — fails here. Regenerate with
// `go test ./internal/emu -run TestTraceGolden -update` only for a
// deliberate change to the kernels or the trace format.
func TestTraceGolden(t *testing.T) {
	labels, ks := goldenKernels(t)
	var got strings.Builder
	for i, k := range ks {
		tr, err := k.Trace()
		if err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		h := sha256.New()
		if err := trace.WriteBinary(h, tr); err != nil {
			t.Fatalf("%s: %v", labels[i], err)
		}
		fmt.Fprintf(&got, "%x %s %d\n", h.Sum(nil), labels[i], tr.Len())
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d traces, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trace %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
