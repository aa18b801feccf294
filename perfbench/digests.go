package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"mfup/internal/tables"
)

// testdata holds the committed reference outputs, taken from the
// simulator at the commit that introduced the benchmark:
//
//	tables.sha256   SHA-256 of the text of Tables 1-8 (mfutables' output)
//	jobs.digests    one result digest per universe job, in universe order
//	sweeps.digests  one result digest per universe sweep, in universe order
//
// Regenerate them only when a change is meant to alter simulated
// results; `perfbench --role digests --out perfbench/testdata` does.
//
//go:embed testdata
var testdata embed.FS

func readGolden(name string) (string, error) {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

func readDigests(name string, n int) ([]string, error) {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return nil, err
	}
	ds := strings.Fields(string(b))
	if len(ds) != n {
		return nil, fmt.Errorf("testdata/%s: %d digests for a universe of %d", name, len(ds), n)
	}
	return ds, nil
}

// writeDigests computes every reference output from scratch on an
// in-process daemon and writes the testdata files into out.
func writeDigests(out string, clients int) error {
	tables.SetParallel(0)
	sum, err := renderAll(nil, 0)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "tables.sha256"), []byte(sum+"\n"), 0o644); err != nil {
		return err
	}
	d, err := startDaemon("", "")
	if err != nil {
		return err
	}
	defer d.stop()
	jobs, sweeps := universeJobs(), universeSweeps()
	jobDig, err := computeDigests(d.url+"/v1/jobs?wait=1", len(jobs), clients, func(i int) []byte { return jobs[i].body() })
	if err != nil {
		return err
	}
	swpDig, err := computeDigests(d.url+"/v1/sweeps?wait=1", len(sweeps), clients, func(i int) []byte { return sweeps[i].body() })
	if err != nil {
		return err
	}
	for name, ds := range map[string][]string{"jobs.digests": jobDig, "sweeps.digests": swpDig} {
		if err := os.WriteFile(filepath.Join(out, name), []byte(strings.Join(ds, "\n")+"\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// computeDigests posts body(i) for every i < n and returns the digest
// of each computed result.
func computeDigests(url string, n, clients int, body func(i int) []byte) ([]string, error) {
	client := newClient()
	out := make([]string, n)
	errs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				var e envelope
				reply, err := post(client, url, body(i))
				if err == nil {
					err = json.Unmarshal(reply, &e)
				}
				if err == nil && (e.Status != "done" || e.Cached) {
					err = fmt.Errorf("member %d: status %s cached %v: %s", i, e.Status, e.Cached, e.Error)
				}
				out[i], errs[i] = digest(e.Result), err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
