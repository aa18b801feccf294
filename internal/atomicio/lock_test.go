package atomicio

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Two opens of the same journal must not both win the advisory lock:
// flock lives on the open file description, so even within one
// process the second handle is refused with a structured *LockError.
func TestLockExcludesSecondOpener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	a, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := Lock(a); err != nil {
		t.Fatalf("first lock: %v", err)
	}

	b, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	err = Lock(b)
	if err == nil {
		t.Fatal("second opener acquired the lock; journals would interleave")
	}
	var le *LockError
	if !errors.As(err, &le) {
		t.Fatalf("second lock error = %v (%T), want *LockError", err, err)
	}
	if le.Path != path {
		t.Errorf("LockError.Path = %q, want %q", le.Path, path)
	}

	// Releasing the first handle (close) frees the lock for the second.
	a.Close()
	if err := Lock(b); err != nil {
		t.Fatalf("lock after holder closed: %v", err)
	}
}
