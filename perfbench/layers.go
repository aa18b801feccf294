package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"mfup/internal/asm"
	"mfup/internal/cluster"
	"mfup/internal/core"
	"mfup/internal/dse"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/machdef"
	"mfup/internal/serve"
	"mfup/internal/tables"
	"mfup/internal/trace"
)

// layerSuite measures each layer directly, timing and counting calls
// into its public functions from here. Every section is a root span
// "layer.<name>" whose children are the timed calls. The service and
// router sections share a small in-process cluster: two memory-only
// daemons behind a cluster.Router.
type layerSuite struct {
	o   options
	tr  *tracer
	dir string // the run's own directory

	u       *universe
	daemons []*daemon
	router  *cluster.Router
	rl      *listener

	checks, failed int
}

// check counts one correctness check of the suite.
func (ls *layerSuite) check(ok bool, format string, args ...any) {
	ls.checks++
	if !ok {
		ls.failed++
		fmt.Printf("layer check failed: "+format+"\n", args...)
	}
}

func (ls *layerSuite) run(values map[string]float64) error {
	for _, sec := range []struct {
		name string
		fn   func(root int64, v map[string]float64) error
	}{
		{"tables", ls.tables},
		{"sim", ls.sim},
		{"limits", ls.limits},
		{"tracegen", ls.traceGen},
		{"extrap", ls.extrap},
		{"dse", ls.dse},
		{"journal", ls.journal},
		{"service", ls.service},
	} {
		root := ls.tr.begin("layer."+sec.name, 0)
		err := sec.fn(root, values)
		ls.tr.end(root)
		if err != nil {
			return fmt.Errorf("layer suite, %s: %w", sec.name, err)
		}
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perCall times n calls of fn in batches and returns the median
// per-call time of the batches: single sub-microsecond calls are
// below the clock's useful resolution.
func perCall(batches, n int, fn func(i int)) time.Duration {
	ds := make([]float64, batches)
	for b := range ds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		ds[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(ds))
}

// tables times each table's regeneration at mfutables' default
// parallelism (median of three rounds), and counts the allocations of
// Tables 7 and 8 in the last round.
func (ls *layerSuite) tables(root int64, v map[string]float64) error {
	tables.SetParallel(0)
	const rounds = 3
	var per [9][]float64
	for r := 0; r < rounds; r++ {
		for n := 1; n <= 8; n++ {
			var (
				t   *tables.Table
				err error
			)
			m0 := mallocs()
			d := ls.tr.do(tableSpans[n], root, func(int64) { t, err = tables.Get(n) })
			m1 := mallocs()
			if err != nil {
				return err
			}
			ls.check(t.ErrorSummary() == "", "table %d: %s", n, t.ErrorSummary())
			per[n] = append(per[n], msOf(d))
			if r == rounds-1 && n >= 7 {
				v[fmt.Sprintf("tables.t%d_mallocs", n)] = float64(m1 - m0)
			}
		}
	}
	for n := 1; n <= 8; n++ {
		v[tableSpans[n]+"_ms"] = median(per[n])
	}
	return nil
}

// sharedTraces returns the 14 kernels' shared traces.
func sharedTraces() []*trace.Trace {
	var ts []*trace.Trace
	for _, k := range loops.All() {
		ts = append(ts, k.SharedTrace())
	}
	return ts
}

// simMinTime is how long each machine kind is timed over the 14
// shared traces, in whole passes.
const simMinTime = 150 * time.Millisecond

// sim measures each machine model's throughput in simulated
// instructions per host second, and the allocations per run of the
// two out-of-order models.
func (ls *layerSuite) sim(root int64, v map[string]float64) error {
	ts := sharedTraces()
	for _, kind := range machdef.Kinds() {
		spec, err := machdef.Canonicalize(machdef.Spec{Kind: kind})
		if err != nil {
			return err
		}
		m, err := spec.New()
		if err != nil {
			return err
		}
		var instr int64
		var runErr error
		pass := func() {
			for _, t := range ts {
				r, err := m.RunChecked(t, core.Limits{})
				if err != nil && runErr == nil {
					runErr = err
				}
				instr += r.Instructions
			}
		}
		m0 := mallocs()
		pass()
		if kind == "ruu" || kind == "ooo" {
			v["sim."+kind+".mallocs_per_run"] = float64(mallocs()-m0) / float64(len(ts))
		}
		instr = 0
		id := ls.tr.begin("sim."+kind, root)
		t0 := time.Now()
		for time.Since(t0) < simMinTime {
			pass()
		}
		el := time.Since(t0)
		ls.tr.end(id)
		if runErr != nil {
			return fmt.Errorf("%s: %w", kind, runErr)
		}
		v["sim."+kind+".minstr_per_s"] = float64(instr) / el.Seconds() / 1e6
	}
	return nil
}

// limits times the §4 bounds (both WAW modes) over the 14 traces.
func (ls *layerSuite) limits(root int64, v map[string]float64) error {
	ts := sharedTraces()
	lat := core.M11BR5.Latencies()
	var ds []float64
	for r := 0; r < 5; r++ {
		d := ls.tr.do("limits.Compute", root, func(int64) {
			for _, t := range ts {
				limits.Compute(t, lat, limits.Pure)
				limits.Compute(t, lat, limits.Serial)
			}
		})
		ds = append(ds, msOf(d))
	}
	v["limits.ms"] = median(ds)
	return nil
}

// traceGen times trace generation for the 14 kernels at paper
// lengths, from fresh kernel builds so no cache is warm: assembling
// each program's disassembly, emulating it, decoding the trace,
// detecting its period, and a fresh kernel's first SharedTrace. Each
// figure is the median over passes of the sum over kernels.
func (ls *layerSuite) traceGen(root int64, v map[string]float64) error {
	const passes = 3
	var asmMS, emuMS, prepMS, periodMS, sharedMS, allocMB []float64
	for p := 0; p < passes; p++ {
		var dAsm, dEmu, dPrep, dPeriod, dShared time.Duration
		var alloc uint64
		for _, base := range loops.All() {
			k, err := loops.Scaled(base.Number, base.N)
			if err != nil {
				return err
			}
			src := k.Program().Disassemble()
			var aerr error
			dAsm += ls.tr.do("asm.Assemble", root, func(int64) { _, aerr = asm.Assemble(k.Name, src) })
			if aerr != nil {
				return fmt.Errorf("%s: %w", k, aerr)
			}

			var t *trace.Trace
			var rerr error
			a0 := totalAlloc()
			dEmu += ls.tr.do("emu.Run", root, func(int64) {
				m := k.NewMachine()
				if t, rerr = m.Run(k.Program()); rerr == nil {
					rerr = k.Validate(m)
				}
			})
			alloc += totalAlloc() - a0
			if rerr != nil {
				return fmt.Errorf("%s: %w", k, rerr)
			}
			ls.check(t.Len() == base.SharedTrace().Len(), "%s: fresh trace has %d ops, shared %d", k, t.Len(), base.SharedTrace().Len())

			dPrep += ls.tr.do("trace.Prepare", root, func(int64) { trace.Prepare(t) })
			prep := t.Prepared()
			dPeriod += ls.tr.do("trace.Period", root, func(int64) { prep.Period() })

			fresh, err := loops.Scaled(base.Number, base.N)
			if err != nil {
				return err
			}
			dShared += ls.tr.do("loops.SharedTrace", root, func(int64) { fresh.SharedTrace() })
		}
		asmMS = append(asmMS, msOf(dAsm))
		emuMS = append(emuMS, msOf(dEmu))
		prepMS = append(prepMS, msOf(dPrep))
		periodMS = append(periodMS, msOf(dPeriod))
		sharedMS = append(sharedMS, msOf(dShared))
		allocMB = append(allocMB, float64(alloc)/1e6/float64(len(loops.All())))
	}
	v["asm.assemble_ms"] = median(asmMS)
	v["emu.trace_ms"] = median(emuMS)
	v["trace.prepare_ms"] = median(prepMS)
	v["trace.period_ms"] = median(periodMS)
	v["trace.shared_ms"] = median(sharedMS)
	v["emu.alloc_mb"] = median(allocMB)
	return nil
}

// extrapScale is the loop length the extrapolation section asks for:
// well past every extrapolatable kernel's memory layout.
const extrapScale = 20000

// extrap runs every machine kind on each extrapolatable kernel at
// extrapScale, with the surplus iterations virtual, and reports the
// time per run and how many runs the engine closed analytically.
func (ls *layerSuite) extrap(root int64, v map[string]float64) error {
	var runs []float64
	engaged, attempted := 0, 0
	for _, n := range extrapLoops {
		k, extra, err := loops.ForScale(n, extrapScale)
		if err != nil {
			return err
		}
		vw, err := loops.VirtualWindows(k, extra)
		if err != nil {
			return err
		}
		t := k.SharedTrace()
		for _, kind := range machdef.Kinds() {
			spec, err := machdef.Canonicalize(machdef.Spec{Kind: kind})
			if err != nil {
				return err
			}
			m, err := spec.New()
			if err != nil {
				return err
			}
			e := core.Extrapolate(m).WithVirtual(map[string]int64{t.Name: vw})
			var rerr error
			d := ls.tr.do("core.Extrapolator.Run", root, func(int64) { _, rerr = e.RunChecked(t, core.Limits{}) })
			attempted++
			if rerr == nil && e.Stats().Engaged {
				engaged++
			}
			runs = append(runs, msOf(d))
		}
	}
	v["extrap.run_ms"] = median(runs)
	v["extrap.engaged_ratio"] = float64(engaged) / float64(attempted)
	return nil
}

// dseSweeps is how many universe sweeps the dse section plans.
const dseSweeps = 6

// dse plans the first universe sweeps: expansion, pricing by the
// queueing model, and pruning, with the sweep's trace generation.
func (ls *layerSuite) dse(root int64, v map[string]float64) error {
	var plans []float64
	pruned, deduped, need := 0, 0, 0
	for _, s := range ls.u.sweeps[:dseSweeps] {
		var pl *dse.Planned
		var err error
		d := ls.tr.do("dse.PlanSweep", root, func(int64) { pl, err = dse.PlanSweep(s.wire()) })
		if err != nil {
			return err
		}
		plans = append(plans, msOf(d))
		pruned += pl.Report.Pruned
		deduped += pl.Report.Deduped
		need += len(pl.Need)
	}
	v["dse.plan_ms"] = median(plans)
	v["dse.pruned_ratio"] = float64(pruned) / float64(deduped)
	v["dse.simulated_points"] = float64(need) / dseSweeps
	return nil
}

// journalEntries is how many results the journal section writes.
const journalEntries = 512

// journal times the result cache: appends to a fresh journal, lookups,
// and replaying the journal on open.
func (ls *layerSuite) journal(root int64, v map[string]float64) error {
	path := filepath.Join(ls.dir, "layer-cache.jsonl")
	c, err := serve.OpenCache(path)
	if err != nil {
		return err
	}
	keys := make([]string, journalEntries)
	results := make([]json.RawMessage, journalEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
		results[i] = json.RawMessage(fmt.Sprintf(`{"machine":"bench","config":"M11BR5","loops":[{"trace":"lfk%02d","instructions":%d,"cycles":%d,"rate":0.5}],"harmonic_mean":0.5}`, i%14+1, 1000+i, 2000+i))
	}
	var puts []float64
	for i, k := range keys {
		puts = append(puts, usOf(ls.tr.do("serve.Cache.Put", root, func(int64) { c.Put(k, results[i]) })))
	}
	v["cache.put_us"] = median(puts)
	var miss int
	id := ls.tr.begin("serve.Cache.Get", root)
	get := perCall(9, journalEntries, func(i int) {
		if r, ok := c.Get(keys[i]); !ok || !bytes.Equal(r, results[i]) {
			miss++
		}
	})
	ls.tr.end(id)
	ls.check(miss == 0, "cache: %d lookups missed or differed", miss)
	v["cache.get_us"] = usOf(get)
	if err := c.Close(); err != nil {
		return err
	}
	var replays []float64
	for r := 0; r < 5; r++ {
		var c2 *serve.Cache
		d := ls.tr.do("serve.OpenCache", root, func(int64) { c2, err = serve.OpenCache(path) })
		if err != nil {
			return err
		}
		ls.check(c2.Loaded() == journalEntries, "cache replay loaded %d of %d", c2.Loaded(), journalEntries)
		if err := c2.Close(); err != nil {
			return err
		}
		replays = append(replays, msOf(d))
	}
	v["cache.replay_ms"] = median(replays)
	return nil
}

// serviceJobs is how many universe jobs the service section computes.
const serviceJobs = 16

// service measures the daemon and router layers on the suite's mini
// cluster: canonicalization and keying, the handler with no network,
// the loopback round trip, a cold job against the same work done by
// direct calls, and the router hop against going straight to the
// owner.
func (ls *layerSuite) service(root int64, v map[string]float64) error {
	for i := 0; i < 2; i++ {
		d, err := startDaemon("", "")
		if err != nil {
			return err
		}
		ls.daemons = append(ls.daemons, d)
	}
	peers := []string{ls.daemons[0].url, ls.daemons[1].url}
	rt, err := cluster.New(cluster.Config{Peers: peers})
	if err != nil {
		return err
	}
	ls.router = rt
	if ls.rl, err = listen(rt.Handler()); err != nil {
		return err
	}

	// Scaled universe jobs that need no extrapolation, in seeded order.
	r := rand.New(rand.NewSource(ls.o.seed))
	var jobs []int
	for _, j := range r.Perm(len(ls.u.jobs)) {
		if s := ls.u.jobs[j].Scale; s >= minScale && s <= maxScale {
			jobs = append(jobs, j)
		}
		if len(jobs) == serviceJobs {
			break
		}
	}

	client := newClient()
	w0 := ls.daemons[0]
	var overhead []float64
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		job := ls.u.jobs[j]
		var reply []byte
		d := ls.tr.do("http.post.cold", root, func(int64) { reply, err = post(client, w0.url+"/v1/jobs?wait=1", job.body()) })
		if err != nil {
			return err
		}
		cerr := checkReply(reply, false, ls.u.jobDigest[j])
		ls.check(cerr == nil, "cold job %d: %v", j, cerr)
		direct, err := ls.directWork(root, job)
		if err != nil {
			return err
		}
		overhead = append(overhead, msOf(d-direct))
		c, err := serve.Canonicalize(job.wire())
		if err != nil {
			return err
		}
		keys[i] = serve.Key(c)
	}
	v["serve.overhead_ms"] = median(overhead)

	// Canonicalize and Key on respelled specs.
	var specs []serve.JobSpec
	for _, j := range jobs {
		for n := 0; n < respellings; n++ {
			var s serve.JobSpec
			if err := json.Unmarshal(respell(r, ls.u.jobs[j]), &s); err != nil {
				return err
			}
			specs = append(specs, s)
		}
	}
	canon := make([]serve.JobSpec, len(specs))
	id := ls.tr.begin("serve.Canonicalize", root)
	d := perCall(9, len(specs), func(i int) { canon[i], err = serve.Canonicalize(specs[i]) })
	ls.tr.end(id)
	if err != nil {
		return err
	}
	v["serve.canonicalize_us"] = usOf(d)
	got := make([]string, len(canon))
	id = ls.tr.begin("serve.Key", root)
	d = perCall(9, len(canon), func(i int) { got[i] = serve.Key(canon[i]) })
	ls.tr.end(id)
	v["serve.key_us"] = usOf(d)
	for i, k := range got {
		ls.check(k == keys[i/respellings], "respelling %d canonicalizes to another key", i)
	}

	// The handler alone, then through loopback HTTP, on cache hits.
	h := w0.srv.Handler()
	const calls = 400
	hd := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		body := ls.u.jobs[jobs[i%len(jobs)]].body()
		req := httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		hd = append(hd, usOf(ls.tr.do("serve.Handler", root, func(int64) { h.ServeHTTP(rec, req) })))
		ls.check(rec.Code == 200, "handler replied %d", rec.Code)
	}
	handler := median(hd)
	v["serve.handler_us"] = handler
	rd := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		body := ls.u.jobs[jobs[i%len(jobs)]].body()
		rd = append(rd, usOf(ls.tr.do("http.post.hit", root, func(int64) { _, err = post(client, w0.url+"/v1/jobs?wait=1", body) })))
		if err != nil {
			return err
		}
	}
	v["http.overhead_us"] = median(rd) - handler

	// The router hop: warm every key on its owner through the router,
	// then alternate routed and direct requests for the same keys.
	norm := []string{cluster.NormalizePeer(peers[0]), cluster.NormalizePeer(peers[1])}
	for _, j := range jobs {
		if _, err := post(client, ls.rl.url+"/v1/jobs?wait=1", ls.u.jobs[j].body()); err != nil {
			return err
		}
	}
	var routed, direct []float64
	for i := 0; i < calls; i++ {
		body := ls.u.jobs[jobs[i%len(jobs)]].body()
		owner := cluster.Owner(keys[i%len(jobs)], norm)
		routed = append(routed, usOf(ls.tr.do("http.post.routed", root, func(int64) { _, err = post(client, ls.rl.url+"/v1/jobs?wait=1", body) })))
		if err != nil {
			return err
		}
		direct = append(direct, usOf(ls.tr.do("http.post.owner", root, func(int64) { _, err = post(client, owner+"/v1/jobs?wait=1", body) })))
		if err != nil {
			return err
		}
	}
	v["router.hop_us"] = median(routed) - median(direct)
	id = ls.tr.begin("cluster.Rank", root)
	d = perCall(9, len(keys), func(i int) { cluster.Rank(keys[i], norm) })
	ls.tr.end(id)
	v["cluster.rank_us"] = usOf(d)
	return nil
}

// directWork does by direct calls what a cold job of j makes the
// daemon do — build each kernel at the job's length, trace it, run the
// machine — and returns how long that took.
func (ls *layerSuite) directWork(root int64, j jobSpec) (time.Duration, error) {
	spec, err := machdef.Canonicalize(machdef.Spec{Kind: j.Kind, Mem: j.Mem, Br: j.Br,
		Width: j.Units, Bus: j.Bus, RUU: j.RUU, Stations: j.Stations})
	if err != nil {
		return 0, err
	}
	var werr error
	d := ls.tr.do("direct.job", root, func(id int64) {
		m, err := spec.New()
		if err != nil {
			werr = err
			return
		}
		for _, n := range j.Loops {
			k, _, err := loops.ForScale(n, j.Scale)
			if err != nil {
				werr = err
				return
			}
			if _, err := m.RunChecked(k.SharedTrace(), core.Limits{}); err != nil {
				werr = err
				return
			}
		}
	})
	return d, werr
}

// workloadStats adds the hit ratio of the workload's own daemon, or of
// the suite's mini cluster for the tables workload, which has none,
// and the failover and hedge counts of the mini cluster's router.
func (ls *layerSuite) workloadStats(w workload, v map[string]float64) {
	srvs := []*serve.Server{ls.daemons[0].srv, ls.daemons[1].srv}
	switch w := w.(type) {
	case *coldWorkload:
		srvs = []*serve.Server{w.d.srv}
	case *cachedWorkload:
		srvs = []*serve.Server{w.d.srv}
	}
	v["serve.hit_ratio"] = hitRatio(srvs...)
	st := ls.router.Snapshot()
	v["router.failovers"] = float64(st.Failovers)
	v["router.hedges"] = float64(st.Hedges)
}

func (ls *layerSuite) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if ls.rl != nil {
		keep(ls.rl.stop())
	}
	if ls.router != nil {
		ls.router.Close()
	}
	for _, d := range ls.daemons {
		keep(d.stop())
	}
	return first
}
