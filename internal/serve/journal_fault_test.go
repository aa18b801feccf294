package serve

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mfup/internal/faultinject"
)

// lockedBuffer is a log sink the server's goroutines may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// A worker serving routed points must report a failed sweep-journal
// write when it happens, as the sweep and cache paths do, not first at
// drain — and the point is still answered with its rate.
func TestPointJournalWriteFailureLoggedAtOnce(t *testing.T) {
	plan, err := faultinject.ParsePlan("write.dsejournal:werr", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Activate(faultinject.New(plan))
	defer faultinject.Deactivate()

	var logs lockedBuffer
	s, hs := testServer(t, Config{
		Workers:          1,
		SweepJournalPath: filepath.Join(t.TempDir(), "points.jsonl"),
		Log:              slog.New(slog.NewTextHandler(&logs, nil)),
	})
	code, _, jr := post(t, hs.URL+"/v1/points?wait=1", pointDoc)
	if code != http.StatusOK || jr.Status != "done" {
		t.Fatalf("point submit under a journal fault: %d %+v", code, jr)
	}
	if _, rate, err := ParsePointResult(jr.Result); err != nil || !(rate > 0) {
		t.Fatalf("point result %s: rate %v, err %v", jr.Result, rate, err)
	}
	if !strings.Contains(logs.String(), "sweep journal write failed") {
		t.Errorf("journal write failure not logged before the reply:\n%s", logs.String())
	}
	err = s.Drain(context.Background())
	var fe *faultinject.Error
	if !errors.As(err, &fe) {
		t.Fatalf("Drain error = %v, want the injected fault", err)
	}
}
