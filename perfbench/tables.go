package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"mfup/internal/loops"
	"mfup/internal/tables"
)

// tablesWorkload regenerates paper Tables 1-8 in-process, as
// mfutables does with its defaults: paper loop lengths, all cores.
type tablesWorkload struct {
	golden string
	fail   failure
}

// newTablesWorkload builds the 14 shared kernel traces, which every
// table reads and mfutables also builds before its first table.
func newTablesWorkload() (*tablesWorkload, error) {
	golden, err := readGolden("tables.sha256")
	if err != nil {
		return nil, err
	}
	tables.SetParallel(0)
	for _, k := range loops.All() {
		k.SharedTrace()
	}
	return &tablesWorkload{golden: golden}, nil
}

// One client: a round already spreads its cells over every core.
func (w *tablesWorkload) clients() int { return 1 }

func (w *tablesWorkload) warmup() error {
	if w.op(0, nil, 0) != passed {
		return fmt.Errorf("tables: warm-up round failed")
	}
	return nil
}

// tableSpans names the span of each table's regeneration.
var tableSpans = [9]string{1: "tables.t1", "tables.t2", "tables.t3", "tables.t4",
	"tables.t5", "tables.t6", "tables.t7", "tables.t8"}

// renderAll regenerates Tables 1-8 and returns the SHA-256 of their
// text rendering, byte for byte what mfutables prints by default.
func renderAll(tr *tracer, parent int64) (string, error) {
	h := sha256.New()
	for n := 1; n <= 8; n++ {
		var (
			t   *tables.Table
			err error
		)
		tr.do(tableSpans[n], parent, func(int64) { t, err = tables.Get(n) })
		if err != nil {
			return "", err
		}
		if s := t.ErrorSummary(); s != "" {
			return "", fmt.Errorf("table %d: %s", n, strings.TrimSpace(s))
		}
		io.WriteString(h, t.Render()+"\n")
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (w *tablesWorkload) op(c int, tr *tracer, parent int64) outcome {
	sum, err := renderAll(tr, parent)
	if err != nil {
		return w.fail.report(err)
	}
	if sum != w.golden {
		return w.fail.report(fmt.Errorf("tables: rendering digest %s, want %s", sum, w.golden))
	}
	return passed
}

func (w *tablesWorkload) close() error { return nil }
