// Command perfbench is the repository's benchmark. It drives the
// simulator through the public functions of its layers, one workload
// per path, and prints every metric by name and unit:
//
//	tables       regenerate paper Tables 1-8 in-process (the mfutables path)
//	jobs_cold    mfud on fresh journals, a stream with no repeated content key
//	jobs_cached  mfud restarted on a journal holding a pool of keys; every op a hit
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload jobs_cold --seed 3 --seconds 30 --trace 0
//
// With --trace 0 the last line of output is the JSON result with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics
// of a traced run, and the spans are written under --workdir. Each
// run is a fresh process; set-up time is measured on fresh child
// processes of the same binary (--role probe), and the cached
// workloads' journals are written by an untimed child (--role prepare).
// Any output that fails its check makes the run exit 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// workloads lists the workload names in the order they are documented.
var workloads = []string{"tables", "jobs_cold", "jobs_cached"}

// Set-up time is the median over fresh probe processes: at least
// minProbes, and more until probing has taken probeBudget, up to
// maxProbes. Where set-up is a few milliseconds, mostly process start,
// that is a few hundred probes, enough for the median to settle.
const (
	minProbes   = 15
	maxProbes   = 301
	probeBudget = 3 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	role     string
	rundir   string
	out      string
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload: tables, jobs_cold or jobs_cached")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated request stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for journals and span files")
	flag.StringVar(&o.role, "role", "", "internal: probe (set-up only), prepare (write journals), digests (write testdata)")
	flag.StringVar(&o.rundir, "rundir", "", "internal: a child's working directory")
	flag.StringVar(&o.out, "out", "perfbench/testdata", "with --role digests: output directory")
	flag.Parse()
	o.trace = traceN == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.role == "digests" {
		return writeDigests(o.out, runtime.NumCPU())
	}
	if !slices.Contains(workloads, o.workload) {
		return fmt.Errorf("unknown --workload %q (have %v)", o.workload, workloads)
	}
	switch o.role {
	case "probe":
		return probe(o)
	case "prepare":
		return prepare(o)
	case "":
		return measure(o)
	}
	return fmt.Errorf("unknown --role %q", o.role)
}

// open sets up workload name in dir. u is nil in a set-up probe,
// which builds only what the program needs to be ready.
func open(name, dir string, u *universe, seed int64) (workload, error) {
	n := runtime.NumCPU()
	switch name {
	case "tables":
		return newTablesWorkload()
	case "jobs_cold":
		return newColdWorkload(dir, u, seed, n)
	default: // jobs_cached
		return newCachedWorkload(dir, u, seed, n)
	}
}

// probe is one set-up measurement: set up, say "ready", and tear down
// once the parent closes stdin.
func probe(o options) error {
	w, err := open(o.workload, o.rundir, nil, o.seed)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	io.Copy(io.Discard, os.Stdin)
	return w.close()
}

// prepare writes the journals the cached workloads replay.
func prepare(o options) error {
	u, err := loadUniverse()
	if err != nil {
		return err
	}
	pool, _ := cachedPool(o.seed, u.jobs)
	return prepareJournal(journalPath(o.rundir), u, pool, runtime.NumCPU())
}

// child runs this binary in role for o's workload, in dir.
func child(o options, role, dir string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	cmd := exec.Command(self, "--role", role, "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--rundir", dir)
	cmd.Stderr = os.Stderr
	return cmd
}

// timeSetup starts a probe in a fresh directory under base and returns
// the time from starting the process to its "ready" line.
func timeSetup(o options, base string, i int) (time.Duration, error) {
	dir := filepath.Join(base, fmt.Sprintf("probe%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	if o.workload == "jobs_cached" {
		// Each probe replays its own copy: a journal is locked by
		// whoever has it open.
		b, err := os.ReadFile(journalPath(base))
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(journalPath(dir), b, 0o644); err != nil {
			return 0, err
		}
	}
	cmd := child(o, "probe", dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	stdin.Close()
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe %d: no ready line (%v, %v)", i, rerr, werr)
	}
	if werr != nil {
		return 0, fmt.Errorf("set-up probe %d: %w", i, werr)
	}
	return d, nil
}

// measure is a benchmark run: untraced, it reports the end-to-end
// metrics; traced, the per-layer ones.
func measure(o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	u, err := loadUniverse()
	if err != nil {
		return err
	}
	if o.workload == "jobs_cached" {
		if err := child(o, "prepare", dir).Run(); err != nil {
			return fmt.Errorf("preparing the journal: %w", err)
		}
	}
	var setups []float64
	if !o.trace {
		t0 := time.Now()
		for i := 0; i < maxProbes && (i < minProbes || time.Since(t0) < probeBudget); i++ {
			d, err := timeSetup(o, dir, i)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
	}

	w, err := open(o.workload, dir, u, o.seed)
	if err != nil {
		return err
	}
	values := map[string]float64{}
	var res result
	var runErr error
	if o.trace {
		res, runErr = traced(o, w, dir, u, values)
	} else {
		res, runErr = untraced(o, w, values)
		fmt.Printf("setup_s is the median of %d probes\n", len(setups))
		values["setup_s"] = median(setups)
	}
	if err := w.close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("closing the workload: %w", err)
	}
	if runErr != nil {
		return runErr
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if res.Metrics, err = collect(os.Stdout, defs, values); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed their output check", res.Failed, res.Attempted)
	}
	return nil
}

func window(o options) time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// reporter is a workload with more to say about its window than the
// metrics.
type reporter interface {
	report(out io.Writer)
}

func untraced(o options, w workload, values map[string]float64) (result, error) {
	if err := w.warmup(); err != nil {
		return result{}, err
	}
	s := closedLoop(w, o.workload, window(o), nil)
	fmt.Printf("%s: %s\n", o.workload, s)
	if r, ok := w.(reporter); ok {
		r.report(os.Stdout)
	}
	fmt.Printf("op_tail_ms is p%.4g, with %d of %d samples beyond it\n", s.tailP*100, s.tailBeyond, s.attempted)
	values["ops_per_s"] = s.opsPerS
	values["op_p50_ms"] = s.p50MS
	values["op_tail_ms"] = s.tailMS
	values["cpu_ms_per_op"] = s.cpuMSPerOp
	values["alloc_mb_per_op"] = s.allocMBPerOp
	values["peak_rss_mb"] = s.peakRSSMB
	if s.attempted > 0 {
		values["ok_ratio"] = float64(s.attempted-s.failed) / float64(s.attempted)
	}
	return result{Correct: s.failed == 0 && s.attempted > 0, Attempted: s.attempted, Failed: s.failed}, nil
}

// traced runs the layer suite, then the workload for a third of the
// window untraced and a third traced, so the difference between the
// two is the tracing overhead measured in one process.
func traced(o options, w workload, dir string, u *universe, values map[string]float64) (result, error) {
	tr := newTracer()
	ls := &layerSuite{o: o, tr: tr, dir: dir, u: u}
	err := ls.run(values)
	if err == nil {
		err = w.warmup()
	}
	if err != nil {
		ls.close()
		return result{}, err
	}
	third := window(o) / 3
	a := closedLoop(w, o.workload, third, nil)
	b := closedLoop(w, o.workload, third, tr)
	fmt.Printf("%s untraced: %s\n%s traced:   %s\n", o.workload, a, o.workload, b)
	if r, ok := w.(reporter); ok {
		r.report(os.Stdout)
	}
	values["tracing.overhead_p50_ms"] = b.p50MS - a.p50MS
	values["tracing.overhead_ops_per_s"] = b.opsPerS - a.opsPerS
	ls.workloadStats(w, values)
	if err := ls.close(); err != nil {
		return result{}, fmt.Errorf("closing the layer suite: %w", err)
	}

	path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return result{}, err
	}
	werr := tr.write(f, os.Stdout, o.workload, o.seed)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return result{}, werr
	}
	fmt.Println("spans written to", path)

	attempted, failed := a.attempted+b.attempted+ls.checks, a.failed+b.failed+ls.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed}, nil
}
