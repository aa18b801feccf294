package core_test

import (
	"strings"
	"testing"

	"mfup/internal/core"
	"mfup/internal/machdef"
	"mfup/internal/trace"
)

// basicKinds are the §3 organizations in Table 1 order: increasing
// execution overlap.
var basicKinds = []string{"simple", "serialmem", "nonseg", "cray"}

// mustNew builds the machine of the given kind, failing the test if
// the configuration is rejected.
func mustNew(tb testing.TB, kind string, cfg core.Config) core.Machine {
	tb.Helper()
	m, err := core.New(kind, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// mustRun runs tr on m with no limits, failing the test on a
// simulation error.
func mustRun(tb testing.TB, m core.Machine, tr *trace.Trace) core.Result {
	tb.Helper()
	r, err := m.RunChecked(tr, core.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestNewBuildsEveryMachdefKind pins core.New and machdef to one
// machine vocabulary: every kind a machine definition can name builds
// through core.New at M11BR5 (with machdef's defaults for width,
// RUU size and stations) as its own family.
func TestNewBuildsEveryMachdefKind(t *testing.T) {
	want := map[string]string{
		"simple":     "Simple",
		"serialmem":  "SerialMemory",
		"nonseg":     "NonSegmented",
		"cray":       "CRAY-like",
		"scoreboard": "Scoreboard",
		"tomasulo":   "Tomasulo(4 stations/unit)",
		"multi":      "MultiIssue(1,N-Bus)",
		"ooo":        "MultiIssueOOO(1,N-Bus)",
		"ruu":        "RUU(1 units, 50 entries, N-Bus)",
		"vector":     "Vector",
	}
	kinds := machdef.Kinds()
	if len(kinds) != len(want) {
		t.Errorf("machdef has %d kinds %v, this test knows %d", len(kinds), kinds, len(want))
	}
	for _, kind := range kinds {
		spec, err := machdef.Canonicalize(machdef.Spec{Kind: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if cfg.Name() != "M11BR5" {
			t.Fatalf("%s: machdef defaults give %s, want M11BR5", kind, cfg.Name())
		}
		m, err := core.New(kind, cfg)
		if err != nil {
			t.Errorf("core.New(%q): %v", kind, err)
			continue
		}
		if m.Name() != want[kind] {
			t.Errorf("core.New(%q) built %q, want %q", kind, m.Name(), want[kind])
		}
	}
}

// TestNewRejectsUnknownKinds: kind names are exact. Callers that
// accept other spellings (mfusim, machdef) normalize before calling.
func TestNewRejectsUnknownKinds(t *testing.T) {
	for _, kind := range []string{"", "hal9000", "CRAY", "Cray", " cray", "basic"} {
		m, err := core.New(kind, core.M11BR5)
		if err == nil {
			t.Errorf("core.New(%q) built %s, want an error", kind, m.Name())
			continue
		}
		if !strings.Contains(err.Error(), "unknown machine") {
			t.Errorf("core.New(%q) = %v, want an unknown machine error", kind, err)
		}
	}
}
