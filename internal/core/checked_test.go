package core

import (
	"errors"
	"os"
	"testing"
	"time"

	"mfup/internal/asm"
	"mfup/internal/bus"
	"mfup/internal/emu"
	"mfup/internal/simerr"
	"mfup/internal/trace"
)

// livelockTrace loads, assembles, and traces the committed watchdog
// fixture: a loop whose iterations form one long serial dependence
// chain through memory (see testdata/livelock.cal).
func livelockTrace(t *testing.T) *trace.Trace {
	t.Helper()
	src, err := os.ReadFile("../../testdata/livelock.cal")
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	p, err := asm.Assemble("livelock", string(src))
	if err != nil {
		t.Fatalf("assembling fixture: %v", err)
	}
	tr, err := emu.New(0).Run(p)
	if err != nil {
		t.Fatalf("tracing fixture: %v", err)
	}
	return tr
}

// mustNew builds the machine of the given kind, failing the test if
// the configuration is rejected.
func mustNew(tb testing.TB, kind string, cfg Config) Machine {
	tb.Helper()
	m, err := New(kind, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// mustRun runs tr on m with no limits, failing the test on a
// simulation error.
func mustRun(tb testing.TB, m Machine, tr *trace.Trace) Result {
	tb.Helper()
	r, err := m.RunChecked(tr, Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// everyMachine returns one instance of every machine model under cfg.
func everyMachine(t testing.TB, cfg Config) []Machine {
	w := cfg.WithIssue(2, bus.BusN)
	return []Machine{
		mustNew(t, "simple", cfg),
		mustNew(t, "serialmem", cfg),
		mustNew(t, "nonseg", cfg),
		mustNew(t, "cray", cfg),
		mustNew(t, "scoreboard", cfg),
		mustNew(t, "tomasulo", cfg),
		mustNew(t, "multi", w),
		mustNew(t, "ooo", w),
		mustNew(t, "ruu", w.WithRUU(10)),
		mustNew(t, "vector", cfg),
	}
}

// TestCycleBudgetFiresOnEveryMachine: the committed livelock fixture
// must terminate via the watchdog on every machine model, with a
// structured error naming the machine, the trace, and the cycle.
func TestCycleBudgetFiresOnEveryMachine(t *testing.T) {
	tr := livelockTrace(t)
	const budget = 500
	for _, m := range everyMachine(t, M11BR5) {
		_, err := m.RunChecked(tr, Limits{MaxCycles: budget})
		if err == nil {
			t.Errorf("%s: ran to completion under a %d-cycle budget", m.Name(), budget)
			continue
		}
		var serr *SimError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error type %T, want *SimError", m.Name(), err)
			continue
		}
		if serr.Kind != simerr.KindCycleBudget {
			t.Errorf("%s: kind %v, want KindCycleBudget", m.Name(), serr.Kind)
		}
		if serr.Machine != m.Name() {
			t.Errorf("%s: error names machine %q", m.Name(), serr.Machine)
		}
		if serr.Trace != tr.Name {
			t.Errorf("%s: error names trace %q, want %q", m.Name(), serr.Trace, tr.Name)
		}
		if serr.Cycle <= budget {
			t.Errorf("%s: reported cycle %d, want > %d", m.Name(), serr.Cycle, budget)
		}
	}
}

// TestStallWatchdogFiresOnCycleSteppedMachines: under an enormous
// memory latency the cycle-stepped machines spin through empty cycles
// waiting for far-future completions; the no-forward-progress
// watchdog must cut them off with a snapshot of the stuck
// instructions.
func TestStallWatchdogFiresOnCycleSteppedMachines(t *testing.T) {
	tr := livelockTrace(t)
	cfg := Config{MemLatency: 1 << 26, BranchLatency: 5}
	w := cfg.WithIssue(2, bus.BusN)
	const stall = 10_000
	for _, m := range []Machine{
		mustNew(t, "tomasulo", cfg),
		mustNew(t, "ooo", w),
		mustNew(t, "ruu", w.WithRUU(10)),
	} {
		_, err := m.RunChecked(tr, Limits{StallCycles: stall})
		if err == nil {
			t.Errorf("%s: no stall under 2^26-cycle memory latency", m.Name())
			continue
		}
		var serr *SimError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error type %T, want *SimError", m.Name(), err)
			continue
		}
		if serr.Kind != simerr.KindStall {
			t.Errorf("%s: kind %v, want KindStall (%v)", m.Name(), serr.Kind, serr)
		}
		if serr.Machine != m.Name() || serr.Trace != tr.Name {
			t.Errorf("%s: error names (%q, %q)", m.Name(), serr.Machine, serr.Trace)
		}
		if len(serr.InFlight) == 0 {
			t.Errorf("%s: stall error carries no in-flight snapshot", m.Name())
		}
	}
}

// TestDeadlineFires: an already-expired wall-clock deadline aborts a
// checked run with KindDeadline.
func TestDeadlineFires(t *testing.T) {
	tr := livelockTrace(t)
	m := mustNew(t, "cray", M11BR5)
	_, err := m.RunChecked(tr, Limits{Deadline: time.Now().Add(-time.Second)})
	var serr *SimError
	if !errors.As(err, &serr) || serr.Kind != simerr.KindDeadline {
		t.Fatalf("RunChecked with expired deadline = %v, want KindDeadline", err)
	}
}

// TestLimitsDoNotChangeHealthyRuns: on every machine a healthy run
// gives the same Result unlimited, again on the reused machine, and
// under the production defaults, which must not fire. This is the
// healthy-path byte-identity guarantee at the Result level.
func TestLimitsDoNotChangeHealthyRuns(t *testing.T) {
	tr := livelockTrace(t)
	for _, cfg := range BaseConfigs() {
		for _, m := range everyMachine(t, cfg) {
			want := mustRun(t, m, tr)
			if got := mustRun(t, m, tr); got != want {
				t.Errorf("%s %s: rerun %+v != first run %+v", m.Name(), cfg.Name(), got, want)
			}
			// The production defaults must not fire on a healthy run.
			got2, err := m.RunChecked(tr, DefaultLimits())
			if err != nil {
				t.Errorf("%s %s: DefaultLimits fired on a healthy run: %v", m.Name(), cfg.Name(), err)
			} else if got2 != want {
				t.Errorf("%s %s: DefaultLimits changed the result: %+v != %+v", m.Name(), cfg.Name(), got2, want)
			}
		}
	}
}

// TestNewRejectsBadConfigs: New returns an error (instead of
// panicking) on an invalid configuration for every machine family.
func TestNewRejectsBadConfigs(t *testing.T) {
	bad := Config{MemLatency: 0, BranchLatency: 5}
	zeroUnits := Config{MemLatency: 11, BranchLatency: 5, IssueUnits: 0}
	for _, c := range []struct {
		name, kind string
		cfg        Config
	}{
		{"basic bad latency", "cray", bad},
		{"basic bad kind", "basic", M11BR5},
		{"scoreboard", "scoreboard", bad},
		{"tomasulo", "tomasulo", bad},
		{"multi zero units", "multi", zeroUnits},
		{"ooo zero units", "ooo", zeroUnits},
		{"ruu size < units", "ruu", M11BR5.WithIssue(4, bus.BusN).WithRUU(2)},
		{"vector bad latency", "vector", bad},
		{"multi bad interlink", "multi", M11BR5.WithIssue(2, bus.Kind(99))},
	} {
		if m, err := New(c.kind, c.cfg); err == nil {
			t.Errorf("%s: no error (got machine %v)", c.name, m.Name())
		}
	}
}
