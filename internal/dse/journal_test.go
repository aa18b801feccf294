package dse

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"mfup/internal/faultinject"
)

// The sweep journal's appends go through the write.dsejournal fault
// site. A failed append costs durability, never the sweep: the report
// matches an unfaulted run, and Close returns the injected fault.
func TestRunJournalWriteFaultKeepsReport(t *testing.T) {
	s := mustParse(t, `{"base": {"kind": "multi", "mem": 11, "br": 5}, "axes": {"width": [1, 2]}}`)
	clean, err := Run(context.Background(), s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Simulated == 0 {
		t.Fatal("sweep simulated nothing; no append would reach the fault site")
	}
	want, err := clean.JSON()
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.ParsePlan("write.dsejournal:werr", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	j, err := OpenJournal(filepath.Join(t.TempDir(), "sweep.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(context.Background(), s, Options{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulted.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report under a journal fault differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if j.Saved() != 0 {
		t.Errorf("saved = %d after the first append failed, want 0", j.Saved())
	}
	var fe *faultinject.Error
	if err := j.Close(); !errors.As(err, &fe) {
		t.Fatalf("Close error = %v, want the injected fault", err)
	}
}
