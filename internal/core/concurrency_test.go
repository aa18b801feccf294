package core

import (
	"sync"
	"testing"

	"mfup/internal/bus"
	"mfup/internal/loops"
)

// TestSharedTraceConcurrentMachines exercises the package's
// concurrency contract under the race detector: one Trace (and its
// prepared decode cache, initialized lazily by whichever machine gets
// there first) shared by many machine instances running concurrently.
// Every concurrent run must report the same cycle count as a serial
// run of the same model.
func TestSharedTraceConcurrentMachines(t *testing.T) {
	tr := loops.All()[0].SharedTrace()
	cfg := M11BR5
	makers := []func() Machine{
		func() Machine { return mustNew(t, "cray", cfg) },
		func() Machine { return mustNew(t, "multi", cfg.WithIssue(4, bus.BusN)) },
		func() Machine { return mustNew(t, "ooo", cfg.WithIssue(4, bus.Bus1)) },
		func() Machine { return mustNew(t, "scoreboard", cfg) },
		func() Machine { return mustNew(t, "tomasulo", cfg) },
		func() Machine { return mustNew(t, "ruu", cfg.WithIssue(2, bus.BusN).WithRUU(20)) },
	}
	want := make([]Result, len(makers))
	for i, mk := range makers {
		want[i] = mustRun(t, mk(), tr)
	}

	const repeats = 4
	got := make([]Result, len(makers)*repeats)
	var wg sync.WaitGroup
	for rep := 0; rep < repeats; rep++ {
		for i, mk := range makers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := mk().RunChecked(tr, Limits{})
				if err != nil {
					t.Error(err)
				}
				got[rep*len(makers)+i] = r
			}()
		}
	}
	wg.Wait()

	for rep := 0; rep < repeats; rep++ {
		for i := range makers {
			g := got[rep*len(makers)+i]
			if g != want[i] {
				t.Errorf("machine %d rep %d: concurrent result %+v != serial %+v", i, rep, g, want[i])
			}
		}
	}
}

// TestMachineReusableAfterRun checks the other half of the contract:
// a single machine instance, used serially, is reusable — Run resets
// all state, so back-to-back runs agree.
func TestMachineReusableAfterRun(t *testing.T) {
	tr := loops.All()[0].SharedTrace()
	cfg := M5BR2
	machines := []Machine{
		mustNew(t, "simple", cfg),
		mustNew(t, "multi", cfg.WithIssue(2, bus.BusN)),
		mustNew(t, "ooo", cfg.WithIssue(2, bus.BusN)),
		mustNew(t, "scoreboard", cfg),
		mustNew(t, "tomasulo", cfg),
		mustNew(t, "ruu", cfg.WithIssue(1, bus.BusN).WithRUU(10)),
	}
	for _, m := range machines {
		first := mustRun(t, m, tr)
		second := mustRun(t, m, tr)
		if first != second {
			t.Errorf("%s: repeated runs differ: %+v then %+v", m.Name(), first, second)
		}
	}
}
