package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"mfup/internal/serve"
)

func TestStreamsDeterministicPerSeed(t *testing.T) {
	a, b, c := coldStream(7), coldStream(7), coldStream(8)
	if len(a) != coldJobs+coldSweeps {
		t.Fatalf("stream has %d items, want %d", len(a), coldJobs+coldSweeps)
	}
	same := func(x, y []coldItem) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave two different jobs_cold streams")
	}
	if same(a, c) {
		t.Error("seeds 7 and 8 gave the same jobs_cold stream")
	}

	jobs := universeJobs()
	p1, b1 := cachedPool(7, jobs)
	p2, b2 := cachedPool(7, jobs)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("the same seed gave two different pools")
		}
		for v := range b1[i] {
			if !bytes.Equal(b1[i][v], b2[i][v]) {
				t.Fatalf("the same seed gave two different spellings of pool key %d", i)
			}
		}
	}
}

func TestColdStreamNeverRepeatsAKey(t *testing.T) {
	jobs, sweeps := universeJobs(), universeSweeps()
	keys := make(map[string]int)
	for i, j := range jobs {
		c, err := serve.Canonicalize(j.wire())
		if err != nil {
			t.Fatalf("universe job %d does not canonicalize: %v", i, err)
		}
		k := serve.Key(c)
		if prev, dup := keys[k]; dup {
			t.Fatalf("universe jobs %d and %d share key %.12s", prev, i, k)
		}
		keys[k] = i
	}
	sweepKeys := make(map[string]int)
	for i, s := range sweeps {
		c, err := s.wire().Canonicalize()
		if err != nil {
			t.Fatalf("universe sweep %d does not canonicalize: %v", i, err)
		}
		k := c.Key()
		if prev, dup := sweepKeys[k]; dup {
			t.Fatalf("universe sweeps %d and %d share key %.12s", prev, i, k)
		}
		sweepKeys[k] = i
	}

	seenJob, seenSweep := make([]bool, len(jobs)), make([]bool, len(sweeps))
	for n, it := range coldStream(3) {
		seen := seenJob
		if it.sweep {
			seen = seenSweep
		}
		if seen[it.index] {
			t.Fatalf("submission %d repeats universe member %+v", n, it)
		}
		seen[it.index] = true
		if (n%sweepEvery == sweepEvery-1) != it.sweep {
			t.Fatalf("submission %d: sweep=%v breaks the one-in-%d share", n, it.sweep, sweepEvery)
		}
	}
}

func TestRespellingsCanonicalizeIntoThePool(t *testing.T) {
	jobs := universeJobs()
	pool, bodies := cachedPool(11, jobs)
	distinct := make(map[string]bool)
	for i, j := range pool {
		c, err := serve.Canonicalize(jobs[j].wire())
		if err != nil {
			t.Fatal(err)
		}
		want := serve.Key(c)
		for v, body := range bodies[i] {
			distinct[string(body)] = true
			var spec serve.JobSpec
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatalf("pool key %d spelling %d: %v: %s", i, v, err, body)
			}
			rc, err := serve.Canonicalize(spec)
			if err != nil {
				t.Fatalf("pool key %d spelling %d: %v: %s", i, v, err, body)
			}
			if got := serve.Key(rc); got != want {
				t.Fatalf("pool key %d spelling %d canonicalizes to %.12s, want %.12s: %s", i, v, got, want, body)
			}
		}
	}
	if len(distinct) < len(pool)*respellings*9/10 {
		t.Errorf("only %d distinct bodies for %d spellings: respelling barely varies", len(distinct), len(pool)*respellings)
	}
}

func TestUniverseDigestsCommitted(t *testing.T) {
	if _, err := loadUniverse(); err != nil {
		t.Fatal(err)
	}
	if g, err := readGolden("tables.sha256"); err != nil || len(g) != 64 {
		t.Fatalf("tables golden digest %q, %v", g, err)
	}
}

// TestTailPercentile pins the tail rule at its boundaries: the tail is
// the highest nearest rank up to p90's with at least ten samples
// strictly beyond it, never below the median's.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, rank, beyond int
	}{
		{1, 1, 0},
		{19, 10, 9}, // too few for ten beyond: the median, with 9 beyond
		{20, 10, 10},
		{25, 15, 10}, // a tables window: p60
		{99, 89, 10}, // p90's rank ceil(89.1) = 90 would leave 9
		{100, 90, 10},
		{101, 91, 10}, // rank ceil(90.9) = 91 leaves 10
		{1000000, 900000, 100000},
	} {
		r, _ := tailRank(c.n)
		if r != c.rank {
			t.Errorf("n=%d: got rank %d, want %d", c.n, r, c.rank)
		}
		if beyond := c.n - r; beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond rank %d, want %d", c.n, beyond, r, c.beyond)
		}
	}
	xs := []float64{1, 2, 3, 4}
	if got := percentile(xs, 0.5); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %g, want 2", got)
	}
	if got := percentile(xs, 0.99); got != 4 {
		t.Errorf("nearest-rank p99 of 1..4 = %g, want 4", got)
	}
}

// fakeWorkload's warm-up ops are slow and its timed ops fast, so any
// warm-up op that leaked into a window would show in the tail.
type fakeWorkload struct {
	warm  atomic.Bool
	timed atomic.Int64
}

func (f *fakeWorkload) clients() int { return 2 }
func (f *fakeWorkload) warmup() error {
	for i := 0; i < 12; i++ {
		f.op(0, nil, 0)
	}
	f.warm.Store(true)
	return nil
}
func (f *fakeWorkload) op(c int, tr *tracer, parent int64) outcome {
	if !f.warm.Load() {
		time.Sleep(30 * time.Millisecond)
		return passed
	}
	f.timed.Add(1)
	time.Sleep(time.Millisecond)
	return passed
}
func (f *fakeWorkload) close() error { return nil }

func TestWarmupStaysOutOfTheWindow(t *testing.T) {
	f := &fakeWorkload{}
	values := map[string]float64{}
	res, err := untraced(options{workload: "fake", seconds: 0.3}, f, values)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Attempted) != f.timed.Load() {
		t.Errorf("window counted %d ops, but %d ran after warm-up", res.Attempted, f.timed.Load())
	}
	if values["op_tail_ms"] >= 30 || values["op_p50_ms"] >= 30 {
		t.Errorf("a 30 ms warm-up op reached the percentiles: p50 %g ms, tail %g ms", values["op_p50_ms"], values["op_tail_ms"])
	}
}

// finiteWorkload has ops ops to send, then is exhausted.
type finiteWorkload struct{ left atomic.Int64 }

func (f *finiteWorkload) clients() int  { return 3 }
func (f *finiteWorkload) warmup() error { return nil }
func (f *finiteWorkload) op(c int, tr *tracer, parent int64) outcome {
	if f.left.Add(-1) < 0 {
		return exhausted
	}
	time.Sleep(time.Millisecond)
	return passed
}
func (f *finiteWorkload) close() error { return nil }

// TestExhaustedStreamClosesTheWindow: running out of ops ends the
// window early, and counts no op, passed or failed, that was not sent.
func TestExhaustedStreamClosesTheWindow(t *testing.T) {
	f := &finiteWorkload{}
	f.left.Store(40)
	s := closedLoop(f, "finite", 10*time.Second, nil)
	if s.attempted != 40 || s.failed != 0 {
		t.Errorf("window counted %d ops (%d failed), want 40 (0 failed)", s.attempted, s.failed)
	}
	if s.elapsed > 5*time.Second {
		t.Errorf("window ran %v after the workload was exhausted", s.elapsed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50}, // overlaps ID 2
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "c", Start: 62, End: 66},
		{ID: 6, Parent: 1, Name: "b", Start: 95, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 100 - 40 - 10 - 5, "a": 20 + 30, "b": 6 + 25, "c": 4}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %s %s %s", i, m, d.name, d.unit, d.better)
			}
		}
	}
}
