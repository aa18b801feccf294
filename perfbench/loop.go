package main

import (
	"runtime"
	"sync"
	"time"
)

// workload is one benchmark path: a set-up that makes it ready, an
// untimed warm-up, and the op its closed loop repeats.
type workload interface {
	// clients is the closed loop's client count.
	clients() int
	// warmup runs the untimed ops that fill caches and record the
	// reference outputs the timed ops are checked against.
	warmup() error
	// op performs one operation for client c and reports whether its
	// output verified, or that the workload has no op left to send.
	// tr is nil in an untraced window; parent is the op's own span,
	// for the spans op records around layer calls.
	op(c int, tr *tracer, parent int64) outcome
	// close releases everything set-up acquired.
	close() error
}

// outcome is the verdict on one op.
type outcome int

const (
	passed    outcome = iota // the output verified
	failed                   // shed, an error, or a mismatch
	exhausted                // nothing left to send; no op was made
)

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: cpuTime(), totalAlloc: ms.TotalAlloc, peakRSSMB: peakRSSMB()}
}

// closedLoop runs w's clients back to back for dur: each client sends
// its next op only after the previous one returned. Every op started
// inside the window is kept, so the window ends at the last
// completion, not at the deadline; a client whose workload is
// exhausted stops early, so the window then ends with the last op
// sent. With a tracer each op is a root span named after the workload.
func closedLoop(w workload, name string, dur time.Duration, tr *tracer) summary {
	n := w.clients()
	opName := name + ".op"
	per := make([]samples, n)
	var (
		start, wg sync.WaitGroup
		end       time.Time // written before start.Done, read after start.Wait
	)
	start.Add(1)
	wg.Add(n)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer wg.Done()
			start.Wait()
			for {
				t := time.Now()
				if !t.Before(end) {
					return
				}
				id := tr.begin(opName, 0)
				v := w.op(c, tr, id)
				tr.end(id)
				if v == exhausted {
					return
				}
				p := &per[c]
				p.last = time.Now()
				p.add(float32(p.last.Sub(t).Seconds() * 1e3))
				if v == failed {
					p.failed++
				}
			}
		}(c)
	}
	before := readUsage()
	t0 := time.Now()
	end = t0.Add(dur)
	start.Done()
	wg.Wait()
	after := readUsage()
	return summarize(per, t0, before, after)
}
