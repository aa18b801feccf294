package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"mfup/internal/dse"
	"mfup/internal/machdef"
	"mfup/internal/serve"
)

// The daemon workloads draw their requests from two fixed universes:
// coldJobs single-simulation jobs and coldSweeps design-space sweeps.
// The universes do not depend on the seed, so the result digest of
// every member can be committed (testdata/*.digests); a run's seed
// only picks the order in which it visits them, so no run ever
// repeats a content key, and any seed's stream is checkable.
//
// The mix of jobs_cold follows the daemon's recorded load where the
// repository has one, and a measured split of op time where it has
// not. Each run prints the split: per class its ops, its shares of the
// ops and of the op time, and its percentiles, then which classes the
// ops around the median and beyond p90 come from. Twenty 30 s runs on
// two vCPUs, at 100-133 ops/s, ranged over:
//
//	class    ops      op time   p50             what runs
//	job      71-74%   63-66%    11.5-15.5 ms    3-4 kernels at lengths 10-130
//	vector   8-10%    <0.5%     0.2-0.3 ms      paper lengths, shared traces
//	extrap   8-10%    21-23%    37-50 ms        1-2 kernels past the layout
//	sweep    10%      13-14%    19-26 ms        6-point pruned sweep
//
//	ops between p40 and p60: 90-94% job, 6-9% sweep
//	ops beyond p90:          53-62% extrap, 30-35% job, 9-14% sweep
//
// The shares and sizes are set so:
//
//   - Sweeps are one submission in sweepEvery = 10, mfuload's
//     documented sweep mix (-sweeps 10).
//   - mfuload's jobs carry no extrapolation, so its share is set on the
//     split above: extrapolated jobs and sweeps, the classes whose
//     layers op_tail_ms is meant to follow, make up about a fifth of
//     the ops. Then op_p50_ms and the means behind ops_per_s and
//     cpu_ms_per_op stay with the regular jobs, which carry two thirds
//     of the op time, and the ops beyond p90 are mostly heavy ones.
//   - Jobs run 3-4 kernels each, so that simulation dominates a
//     regular job: its 11-15 ms dwarf a loopback round trip
//     (http.overhead_us, 40-60 µs in the traced runs) and a journal
//     append (cache.put_us, about 3 µs). mfuload's 1-2 kernel jobs
//     serve its soak, where the point is the cache, not simulation.
//
// The stream is exactly sweepEvery*coldSweeps long, so the mix is the
// same over all of it; a window that reaches its end closes early
// instead of changing what it measures. Those runs used 3000-4000
// items, at most two fifths of the stream.
const (
	coldSweeps   = 1024
	sweepEvery   = 10
	coldJobs     = (sweepEvery - 1) * coldSweeps
	universeSeed = 0x6d667562 // fixed: the universes are part of the benchmark's definition
)

// Loop lengths of universe jobs: a regular job's lies in
// [minScale, maxScale], within every kernel's memory layout (kernel 8
// builds up to 130); an extrapolated job's is above extrapScaleMin,
// past every layout (the longest is 4000). Extrapolation costs the
// same at any length past the layout (EXPERIMENTS.md, steady-state
// extrapolation), so the upper end of the range does not matter.
const (
	minScale       = 10
	maxScale       = 130
	extrapScaleMin = 4001
)

// extrapEvery picks the job slots that ask for a loop length beyond
// their kernels' memory layout, so the daemon closes them through the
// steady-state extrapolator: one in extrapEvery. Slots that fall on
// the vector machine stay at paper lengths, so one job in ten, 9% of
// the submissions, extrapolates.
const extrapEvery = 8

var (
	// jobLoops are the kernels a regular job draws from. Kernels 2 and
	// 4 only build at lengths of a special form (powers of two,
	// multiples of five), which would push ordinary lengths into
	// extrapolation they cannot do.
	jobLoops = []int{1, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	// vectorLoops are the jobLoops with a vector coding; the vector
	// machine drops kernels without one.
	vectorLoops = []int{1, 3, 7, 8, 9, 10, 12}
	// extrapLoops have a detectable steady state at their longest
	// buildable length, so lengths beyond it can be closed analytically.
	extrapLoops = []int{3, 5, 10, 11, 12}
)

// jobSpec is one universe job in canonical spelling: the fields a
// content key depends on, with defaults spelled out.
type jobSpec struct {
	Kind     string
	Mem, Br  int
	Units    int
	Bus      string
	RUU      int
	Stations int
	Loops    []int // sorted, distinct
	Scale    int
}

func (j jobSpec) loopList() string {
	parts := make([]string, len(j.Loops))
	for i, n := range j.Loops {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ",")
}

// wire returns the job as the daemon's JobSpec.
func (j jobSpec) wire() serve.JobSpec {
	return serve.JobSpec{
		Machine: serve.MachineSpec{Kind: j.Kind, Mem: j.Mem, Br: j.Br, Units: j.Units,
			Bus: j.Bus, RUU: j.RUU, Stations: j.Stations},
		Workload: serve.WorkloadSpec{Loops: j.loopList()},
		Scale:    j.Scale,
	}
}

// body is the job's request body in its plain spelling.
func (j jobSpec) body() []byte {
	b, err := json.Marshal(j.wire())
	if err != nil {
		panic(err) // a struct of strings and ints always marshals
	}
	return b
}

func isMulti(kind string) bool { return kind == "multi" || kind == "ooo" || kind == "ruu" }

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// pickLoops draws k distinct kernels from pool, sorted.
func pickLoops(r *rand.Rand, pool []int, k int) []int {
	p := append([]int(nil), pool...)
	r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
	out := p[:k]
	sort.Ints(out)
	return out
}

// universeJobs builds the fixed job universe. Jobs cycle through all
// ten machine kinds, each at a seeded loop length (except on the vector
// machine, which runs only the paper lengths); every extrapEvery-th
// job not on the vector machine asks for a loop length past its
// kernels' memory layout. Duplicates are
// redrawn, so every member has its own content key.
func universeJobs() []jobSpec {
	r := rand.New(rand.NewSource(universeSeed))
	kinds := machdef.Kinds()
	seen := make(map[string]bool)
	out := make([]jobSpec, 0, coldJobs)
	for len(out) < coldJobs {
		i := len(out)
		j := jobSpec{Kind: kinds[i%len(kinds)], Mem: 3 + r.Intn(12), Br: 1 + r.Intn(6)}
		if isMulti(j.Kind) {
			j.Units = pick(r, []int{1, 2, 4})
			buses := []string{"nbus", "1bus", "xbar"}
			if j.Kind == "ruu" {
				buses = buses[:2]
				j.RUU = 10 * (1 + r.Intn(10))
			}
			j.Bus = pick(r, buses)
		}
		if j.Kind == "tomasulo" {
			j.Stations = 2 + r.Intn(7)
		}
		switch {
		case i%extrapEvery == extrapEvery-1 && j.Kind != "vector":
			j.Loops = pickLoops(r, extrapLoops, 1+r.Intn(2))
			j.Scale = extrapScaleMin + r.Intn(36000)
		case j.Kind == "vector":
			// The vector codings exist only at the paper lengths, so
			// these jobs run the daemon's shared traces.
			j.Loops = pickLoops(r, vectorLoops, 2+r.Intn(4))
		default:
			j.Loops = pickLoops(r, jobLoops, 3+r.Intn(2))
			j.Scale = minScale + r.Intn(maxScale-minScale+1)
		}
		id := fmt.Sprint(j)
		if seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, j)
	}
	return out
}

// sweepSpec is one universe sweep: a small width-by-bus grid over one
// base machine, on the scalar kernels at one loop length, pruned by
// the queueing model.
type sweepSpec struct {
	Kind    string
	Mem, Br int
	Scale   int
}

func (s sweepSpec) wire() dse.SweepSpec {
	return dse.SweepSpec{
		Base: machdef.Spec{Kind: s.Kind, Mem: s.Mem, Br: s.Br},
		Axes: map[string]dse.Axis{
			"width": {Ints: []int{1, 2, 4}},
			"bus":   {Strs: []string{"nbus", "1bus"}},
		},
		Loops: "scalar",
		Scale: s.Scale,
		Prune: &dse.PruneSpec{},
	}
}

func (s sweepSpec) body() []byte {
	b, err := json.Marshal(s.wire())
	if err != nil {
		panic(err) // maps of slices of strings and ints always marshal
	}
	return b
}

// universeSweeps builds the fixed sweep universe.
func universeSweeps() []sweepSpec {
	r := rand.New(rand.NewSource(universeSeed + 1))
	seen := make(map[sweepSpec]bool)
	out := make([]sweepSpec, 0, coldSweeps)
	for len(out) < coldSweeps {
		s := sweepSpec{
			Kind:  pick(r, []string{"multi", "ooo", "ruu"}),
			Mem:   pick(r, []int{5, 8, 11}),
			Br:    pick(r, []int{2, 3, 5}),
			Scale: 10 + r.Intn(51),
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// coldItem is one jobs_cold submission: a universe job or sweep.
type coldItem struct {
	sweep bool
	index int // into universeJobs or universeSweeps
}

// coldClasses are the classes of jobs_cold submission, lightest first.
var coldClasses = []string{"job", "vector", "extrap", "sweep"}

// class names the item's class: a sweep, an extrapolated job, a job
// on the vector machine (paper lengths), or a regular job.
func (it coldItem) class(u *universe) string {
	if it.sweep {
		return "sweep"
	}
	switch j := u.jobs[it.index]; {
	case j.Scale > maxScale:
		return "extrap"
	case j.Kind == "vector":
		return "vector"
	}
	return "job"
}

// coldStream is the seeded jobs_cold submission order: a permutation
// of each universe, interleaved so that every sweepEvery-th submission
// is a sweep. It is exhausted after every member has been sent once.
func coldStream(seed int64) []coldItem {
	r := rand.New(rand.NewSource(seed))
	jobs, sweeps := r.Perm(coldJobs), r.Perm(coldSweeps)
	out := make([]coldItem, 0, coldJobs+coldSweeps)
	for len(jobs) > 0 {
		for _, i := range jobs[:sweepEvery-1] {
			out = append(out, coldItem{index: i})
		}
		out = append(out, coldItem{sweep: true, index: sweeps[0]})
		jobs, sweeps = jobs[sweepEvery-1:], sweeps[1:]
	}
	return out
}

// poolSize is how many distinct keys the cached workloads revisit.
const poolSize = 256

// respellings is how many spellings of each pool key are sent.
const respellings = 4

// cachedPool picks the seeded pool of universe jobs the cached
// workloads revisit, and respellings differently spelled request
// bodies for each: the daemon must canonicalize every one of them
// back to the pool key.
func cachedPool(seed int64, universe []jobSpec) (pool []int, bodies [][][]byte) {
	r := rand.New(rand.NewSource(seed))
	pool = r.Perm(len(universe))[:poolSize]
	bodies = make([][][]byte, len(pool))
	for i, u := range pool {
		for v := 0; v < respellings; v++ {
			bodies[i] = append(bodies[i], respell(r, universe[u]))
		}
	}
	return pool, bodies
}

// respell writes j as a request body the daemon must canonicalize:
// fields in a random order, the kind in random case, the loop list
// permuted with a repeat, defaults sometimes omitted, parameters the
// machine ignores sometimes added, and cost knobs that stay out of the
// key sometimes set.
func respell(r *rand.Rand, j jobSpec) []byte {
	type field struct {
		name string
		val  any
	}
	coin := func() bool { return r.Intn(2) == 0 }
	kind := []byte(j.Kind)
	for i := range kind {
		if coin() {
			kind[i] = byte(unicode.ToUpper(rune(kind[i])))
		}
	}
	mach := []field{{"kind", string(kind)}}
	if j.Mem != 11 || coin() {
		mach = append(mach, field{"mem", j.Mem})
	}
	if j.Br != 5 || coin() {
		mach = append(mach, field{"br", j.Br})
	}
	if isMulti(j.Kind) {
		if j.Units != 1 || coin() {
			mach = append(mach, field{"units", j.Units})
		}
		if j.Bus != "nbus" || coin() {
			mach = append(mach, field{"bus", j.Bus})
		}
		if j.Kind == "ruu" && (j.RUU != 50 || coin()) {
			mach = append(mach, field{"ruu", j.RUU})
		}
	} else if coin() {
		mach = append(mach, field{"ruu", 40}) // ignored by non-RUU machines
	}
	if j.Kind == "tomasulo" {
		if j.Stations != 4 || coin() {
			mach = append(mach, field{"stations", j.Stations})
		}
	} else if coin() {
		mach = append(mach, field{"stations", 6}) // ignored by all but Tomasulo
	}

	ls := append([]int(nil), j.Loops...)
	ls = append(ls, ls[r.Intn(len(ls))])
	r.Shuffle(len(ls), func(a, b int) { ls[a], ls[b] = ls[b], ls[a] })
	parts := make([]string, len(ls))
	for i, n := range ls {
		parts[i] = strconv.Itoa(n)
	}
	top := []field{
		{"machine", mach},
		{"workload", []field{{"loops", strings.Join(parts, ",")}}},
		{"scale", j.Scale},
	}
	if coin() {
		top = append(top, field{"timeout_ms", 60000 + r.Intn(60000)})
	}
	if coin() {
		top = append(top, field{"extrapolate", true})
	}

	var buf bytes.Buffer
	var write func(fs []field)
	write = func(fs []field) {
		r.Shuffle(len(fs), func(a, b int) { fs[a], fs[b] = fs[b], fs[a] })
		buf.WriteByte('{')
		for i, f := range fs {
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%q:", f.name)
			if sub, ok := f.val.([]field); ok {
				write(sub)
				continue
			}
			b, err := json.Marshal(f.val)
			if err != nil {
				panic(err) // strings, ints and bools always marshal
			}
			buf.Write(b)
		}
		buf.WriteByte('}')
	}
	write(top)
	return buf.Bytes()
}
