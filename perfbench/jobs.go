package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mfup/internal/serve"
)

// listener is an http.Server on a fresh loopback port.
type listener struct {
	hs  *http.Server
	url string
	err chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	go func() { l.err <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and waits for its serving goroutine.
func (l *listener) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.err; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// daemon is one in-process mfud: a serve.Server behind a loopback
// listener, as cmd/mfud runs it.
type daemon struct {
	*listener
	srv *serve.Server
}

// startDaemon opens the result journal at cachePath ("" = memory
// only) and the sweep point journal at sweepPath, and serves them.
func startDaemon(cachePath, sweepPath string) (*daemon, error) {
	srv, err := serve.New(serve.Config{CachePath: cachePath, SweepJournalPath: sweepPath})
	if err != nil {
		return nil, err
	}
	l, err := listen(srv.Handler())
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	return &daemon{listener: l, srv: srv}, nil
}

// stop closes the listener, then drains the server, which flushes and
// closes its journals.
func (d *daemon) stop() error {
	err := d.listener.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if derr := d.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}
}

// post sends one request body and returns the reply body of a 200.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, b)
	}
	return b, nil
}

// envelope is the daemon's job reply, with the result kept verbatim.
type envelope struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// digest is the committed form of a result: the first 16 hex digits
// of the SHA-256 of its bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// checkReply decodes a job reply and checks it is done, served from
// the cache or not as wanted, and carries the result with digest want.
func checkReply(body []byte, cached bool, want string) error {
	var e envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return fmt.Errorf("decoding reply: %v", err)
	}
	switch {
	case e.Status != "done":
		return fmt.Errorf("job %.12s %s: %s", e.ID, e.Status, e.Error)
	case e.Cached != cached:
		return fmt.Errorf("job %.12s: cached=%v, want %v", e.ID, e.Cached, cached)
	case digest(e.Result) != want:
		return fmt.Errorf("job %.12s: result digest %s, want %s", e.ID, digest(e.Result), want)
	}
	return nil
}

// failure reports an op's verification failure on stderr, at most a
// few times per run, and returns the op's verdict.
type failure struct{ n atomic.Int64 }

func (f *failure) report(err error) outcome {
	if f.n.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
	return failed
}

// universe is the fixed request universe with its committed digests.
type universe struct {
	jobs      []jobSpec
	sweeps    []sweepSpec
	jobDigest []string
	swpDigest []string
}

func loadUniverse() (*universe, error) {
	u := &universe{jobs: universeJobs(), sweeps: universeSweeps()}
	var err error
	if u.jobDigest, err = readDigests("jobs.digests", len(u.jobs)); err != nil {
		return nil, err
	}
	if u.swpDigest, err = readDigests("sweeps.digests", len(u.sweeps)); err != nil {
		return nil, err
	}
	return u, nil
}

// coldWorkload is jobs_cold: a daemon on fresh journals receiving a
// stream in which no content key repeats.
type coldWorkload struct {
	d      *daemon
	client *http.Client
	u      *universe
	stream []coldItem
	next   atomic.Int64
	fail   failure
	nc     int
	mix    classLatencies
}

// coldWarmup is how many stream items the untimed warm-up sends: the
// first jobs in a process pay for heap growth and page faults.
const coldWarmup = 32

func newColdWorkload(dir string, u *universe, seed int64, clients int) (*coldWorkload, error) {
	d, err := startDaemon(filepath.Join(dir, "cache.jsonl"), filepath.Join(dir, "points.jsonl"))
	if err != nil {
		return nil, err
	}
	w := &coldWorkload{d: d, client: newClient(), u: u, nc: clients}
	if u != nil {
		w.stream = coldStream(seed)
	}
	return w, nil
}

func (w *coldWorkload) clients() int { return w.nc }

func (w *coldWorkload) warmup() error {
	for i := 0; i < coldWarmup; i++ {
		if w.op(0, nil, 0) != passed {
			return fmt.Errorf("jobs_cold: warm-up op %d failed", i)
		}
	}
	w.mix.reset()
	return nil
}

func (w *coldWorkload) op(c int, tr *tracer, parent int64) outcome {
	i := int(w.next.Add(1) - 1)
	if i >= len(w.stream) {
		return exhausted
	}
	t0 := time.Now()
	it := w.stream[i]
	url, body, want := w.d.url+"/v1/jobs?wait=1", w.u.jobs[it.index].body(), w.u.jobDigest[it.index]
	if it.sweep {
		url, body, want = w.d.url+"/v1/sweeps?wait=1", w.u.sweeps[it.index].body(), w.u.swpDigest[it.index]
	}
	var reply []byte
	var err error
	tr.do("http.post", parent, func(int64) { reply, err = post(w.client, url, body) })
	if err == nil {
		tr.do("verify", parent, func(int64) { err = checkReply(reply, false, want) })
	}
	w.mix.add(it.class(w.u), time.Since(t0))
	if err != nil {
		return w.fail.report(err)
	}
	return passed
}

// report prints how far the window got through the stream and how
// the ops and their time split over the classes of submission.
func (w *coldWorkload) report(out io.Writer) {
	used := min(int(w.next.Load()), len(w.stream))
	fmt.Fprintf(out, "jobs_cold used %d of %d stream items (%d in warm-up)\n", used, len(w.stream), coldWarmup)
	w.mix.print(out)
}

func (w *coldWorkload) close() error { return w.d.stop() }

// classLatencies keeps the latency of every op by its class of
// submission, so a run shows what each class costs and what share of
// the ops and of the op time it takes.
type classLatencies struct {
	mu  sync.Mutex
	lat map[string][]float64 // milliseconds
}

func (m *classLatencies) reset() {
	m.mu.Lock()
	m.lat = nil
	m.mu.Unlock()
}

func (m *classLatencies) add(class string, d time.Duration) {
	m.mu.Lock()
	if m.lat == nil {
		m.lat = map[string][]float64{}
	}
	m.lat[class] = append(m.lat[class], d.Seconds()*1e3)
	m.mu.Unlock()
}

// print writes, per class, its ops, its shares of the ops and of the
// op time, and its percentiles; then which classes the ops around the
// median and beyond p90 come from, the ops op_p50_ms and op_tail_ms
// follow.
func (m *classLatencies) print(out io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	type op struct {
		ms    float64
		class string
	}
	var all []op
	total := 0.0
	for class, xs := range m.lat {
		for _, x := range xs {
			all = append(all, op{x, class})
			total += x
		}
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(a, b int) bool { return all[a].ms < all[b].ms })
	for _, class := range coldClasses {
		xs := m.lat[class]
		if len(xs) == 0 {
			continue
		}
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		sort.Float64s(xs)
		fmt.Fprintf(out, "  %-7s %5d ops (%4.1f%% of ops, %4.1f%% of op time): p10 %.2f ms, p50 %.2f ms, p90 %.2f ms\n",
			class, len(xs), 100*float64(len(xs))/float64(len(all)), 100*sum/total,
			percentile(xs, 0.1), percentile(xs, 0.5), percentile(xs, 0.9))
	}
	n := len(all)
	for _, band := range []struct {
		name   string
		lo, hi int // ranks, 0-indexed, half-open
	}{
		{"p40-p60", n * 4 / 10, n * 6 / 10},
		{"beyond p90", rank(0.9, n), n},
	} {
		count := map[string]int{}
		for _, o := range all[band.lo:band.hi] {
			count[o.class]++
		}
		fmt.Fprintf(out, "  ops %s:", band.name)
		for _, class := range coldClasses {
			fmt.Fprintf(out, " %s %.0f%%", class, 100*float64(count[class])/float64(max(band.hi-band.lo, 1)))
		}
		fmt.Fprintln(out)
	}
}

func hitRatio(srvs ...*serve.Server) float64 {
	var hits, sub int64
	for _, s := range srvs {
		st := s.Snapshot()
		hits += st.CacheHits
		sub += st.Submitted
	}
	if sub == 0 {
		return 0
	}
	return float64(hits) / float64(sub)
}

// prepareJournal computes every pool job once on a daemon journaling
// to path, checks each result against its committed digest, and
// drains the daemon so the journal is complete on disk. It is the
// untimed preparation of the cached workloads.
func prepareJournal(path string, u *universe, pool []int, clients int) error {
	d, err := startDaemon(path, "")
	if err != nil {
		return err
	}
	ds, err := computeDigests(d.url+"/v1/jobs?wait=1", len(pool), clients, func(i int) []byte { return u.jobs[pool[i]].body() })
	for i := 0; err == nil && i < len(ds); i++ {
		if want := u.jobDigest[pool[i]]; ds[i] != want {
			err = fmt.Errorf("pool job %d: result digest %s, want %s", pool[i], ds[i], want)
		}
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	return err
}

// cachedWorkload is jobs_cached: a daemon restarted on a journal that
// already holds a pool of keys, requested in several spellings, every
// reply a cache hit byte-identical to the key's warm-up reply.
type cachedWorkload struct {
	d      *daemon
	url    string
	client *http.Client
	u      *universe
	pool   []int
	bodies [][][]byte
	warm   [][]byte
	rngs   []*rand.Rand
	fail   failure
}

// journalPath is the prepared journal the cached daemon replays.
func journalPath(dir string) string { return filepath.Join(dir, "cache.jsonl") }

func newCachedWorkload(dir string, u *universe, seed int64, clients int) (*cachedWorkload, error) {
	d, err := startDaemon(journalPath(dir), "")
	if err != nil {
		return nil, err
	}
	w := &cachedWorkload{d: d, url: d.url + "/v1/jobs?wait=1", client: newClient(), u: u}
	if u != nil {
		w.pool, w.bodies = cachedPool(seed, u.jobs)
	}
	for c := 0; c < clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*7919+int64(c))))
	}
	return w, nil
}

func (w *cachedWorkload) clients() int { return len(w.rngs) }

// warmup sends every spelling of every pool key once. The first reply
// per key must be a cache hit carrying the committed result; it
// becomes the reference every later reply for the key must equal.
func (w *cachedWorkload) warmup() error {
	w.warm = make([][]byte, len(w.pool))
	for i, j := range w.pool {
		for v, body := range w.bodies[i] {
			reply, err := post(w.client, w.url, body)
			if err != nil {
				return fmt.Errorf("warm-up of pool key %d: %w", i, err)
			}
			if v == 0 {
				if err := checkReply(reply, true, w.u.jobDigest[j]); err != nil {
					return fmt.Errorf("warm-up of pool key %d: %w", i, err)
				}
				w.warm[i] = reply
			} else if !bytes.Equal(reply, w.warm[i]) {
				return fmt.Errorf("warm-up of pool key %d: spelling %d got a different reply", i, v)
			}
		}
	}
	return nil
}

func (w *cachedWorkload) op(c int, tr *tracer, parent int64) outcome {
	r := w.rngs[c]
	i, v := r.Intn(len(w.pool)), r.Intn(respellings)
	var reply []byte
	var err error
	tr.do("http.post", parent, func(int64) { reply, err = post(w.client, w.url, w.bodies[i][v]) })
	if err != nil {
		return w.fail.report(err)
	}
	if !bytes.Equal(reply, w.warm[i]) {
		return w.fail.report(fmt.Errorf("pool key %d spelling %d: reply differs from its warm-up reply", i, v))
	}
	return passed
}

func (w *cachedWorkload) close() error { return w.d.stop() }
