package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above the reported tail.
const minBeyond = 10

// rank returns the 1-indexed nearest rank of percentile p in n
// samples: ceil(p*n), clamped to [1, n].
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of the sorted
// ascending sample xs; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(p, len(xs))-1]
}

// tailRank returns the nearest rank of op_tail_ms in n sorted
// samples, and the percentile it stands for: the highest rank with at least minBeyond samples beyond
// it, but no higher than p90's and no lower than the median's. Below
// 100 samples that is the (minBeyond+1)-th largest sample, about p60
// for a tables window of 25 rounds. The cap keeps the tail off the
// 1-2% of ops that meet a garbage collection or a descheduled vCPU on
// a shared host: the p99 of a 100 µs cache hit sits at the edge of
// that mass, and it moved by 20-60% between runs of identical code.
func tailRank(n int) (int, float64) {
	if r := rank(0.9, n); n-r >= minBeyond {
		return r, 0.9
	}
	r := max(n-minBeyond, rank(0.5, n))
	return r, float64(r) / float64(n)
}

// samples is what one client of a closed loop recorded in the timed
// window: each op's latency in milliseconds, how many ops failed
// their check, and when the last op ended. Latencies are float32 and
// kept in fixed-size chunks, so that the million ops of a cached-hit
// window add a few megabytes to the peak RSS the run reports, growing
// with the op count instead of jumping where a slice would double.
type samples struct {
	chunks [][]float32
	failed int
	last   time.Time
}

const chunkLen = 1 << 16

func (s *samples) add(latMS float32) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == chunkLen {
		s.chunks = append(s.chunks, make([]float32, 0, chunkLen))
	}
	s.chunks[len(s.chunks)-1] = append(s.chunks[len(s.chunks)-1], latMS)
}

// summary is one timed window's end-to-end numbers.
type summary struct {
	attempted, failed int
	clients           int
	elapsed           time.Duration
	opsPerS           float64
	p50MS             float64
	tailP, tailMS     float64
	tailBeyond        int
	cpuMSPerOp        float64
	allocMBPerOp      float64
	peakRSSMB         float64 // of the process when the window closed
}

// usage is the process resource counters a window is measured by.
type usage struct {
	cpu        time.Duration // user + system
	totalAlloc uint64        // Go heap bytes allocated, cumulative
	peakRSSMB  float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// summarize folds what the clients of one window opened at t0
// recorded, with the process counters before and after, into a
// summary. The window ends when its last op does.
func summarize(per []samples, t0 time.Time, before, after usage) summary {
	s := summary{clients: len(per), peakRSSMB: after.peakRSSMB}
	total := 0
	for _, c := range per {
		for _, ch := range c.chunks {
			total += len(ch)
		}
	}
	lat := make([]float64, 0, total)
	end := t0
	for _, c := range per {
		s.failed += c.failed
		for _, ch := range c.chunks {
			for _, x := range ch {
				lat = append(lat, float64(x))
			}
		}
		if c.last.After(end) {
			end = c.last
		}
	}
	s.attempted = len(lat)
	s.elapsed = end.Sub(t0)
	if s.attempted == 0 || s.elapsed <= 0 {
		return s
	}
	sort.Float64s(lat)
	n := float64(s.attempted)
	s.opsPerS = float64(s.attempted-s.failed) / s.elapsed.Seconds()
	s.p50MS = percentile(lat, 0.5)
	r, p := tailRank(len(lat))
	s.tailP = p
	s.tailMS = lat[r-1]
	s.tailBeyond = len(lat) - r
	s.cpuMSPerOp = float64(after.cpu-before.cpu) / float64(time.Millisecond) / n
	s.allocMBPerOp = float64(after.totalAlloc-before.totalAlloc) / 1e6 / n
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("%d ops (%d failed) in %.2fs by %d clients: %.1f ops/s, p50 %.4f ms, p%.4g %.4f ms (%d samples beyond), cpu %.4f ms/op, alloc %.4f MB/op",
		s.attempted, s.failed, s.elapsed.Seconds(), s.clients, s.opsPerS, s.p50MS,
		s.tailP*100, s.tailMS, s.tailBeyond, s.cpuMSPerOp, s.allocMBPerOp)
}

// median returns the median of xs (mean of the middle pair for an
// even count); 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
