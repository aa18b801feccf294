// Package journal is the one crash-safe, append-only JSONL journal
// behind the table checkpoint (internal/tables), the design-space
// sweep journal (internal/dse) and the daemon's result cache
// (internal/serve). Each of those is a Scheme — how a record becomes
// one line and back — over the single Journal here:
//
//   - Open takes an exclusive advisory lock (atomicio.Lock) before it
//     reads a byte: a second writer would fuse records into lines the
//     torn-tail repair cannot fix, so it fails with a structured
//     *atomicio.LockError and leaves the file alone.
//   - A process killed mid-append leaves a final line without its
//     newline. Open drops it and truncates the file back to the last
//     newline, so the next append starts on a clean line.
//   - A complete line that does not decode is a hard error naming its
//     line number: resuming from a journal that cannot be trusted
//     would silently corrupt results.
//   - Appends go through the scheme's fault-injection site. The first
//     write failure is sticky: Err, Flush and Close report it, later
//     appends are skipped, and records still land in memory —
//     durability degrades before availability does.
package journal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"mfup/internal/atomicio"
	"mfup/internal/faultinject"
)

// Scheme is one journal's line format and identity.
type Scheme[K comparable, V any] struct {
	Name string // error prefix ("checkpoint", "dse journal", "cache")
	Site string // fault-injection site of every append

	// Header, when non-nil, is a mandatory first line (without its
	// newline), stamped on a fresh or fully torn journal. In an existing
	// one, CheckHeader vets the first non-blank line instead of Decode;
	// it gets nil when the file holds blank lines but no header.
	Header      []byte
	CheckHeader func(line []byte) error

	// Encode renders a record as one line without its newline; Decode
	// parses a complete, space-trimmed line back.
	Encode func(K, V) ([]byte, error)
	Decode func(line []byte) (K, V, error)
}

// Journal is an append-only JSONL file replayed into an in-memory map.
// An empty path gives a memory-only journal: the same map, no file.
type Journal[K comparable, V any] struct {
	s    Scheme[K, V]
	path string

	mu     sync.Mutex
	f      *os.File // nil: memory-only, or closed
	m      map[K]V
	loaded int   // records read from an existing journal
	saved  int   // records appended by this process
	err    error // first write failure, sticky
}

// Open opens (creating if absent) the journal at path and replays every
// complete line. Should a key repeat in the file, its last line wins;
// Put never writes a key twice.
func Open[K comparable, V any](path string, s Scheme[K, V]) (*Journal[K, V], error) {
	j := &Journal[K, V]{s: s, path: path, m: make(map[K]V)}
	if path == "" {
		return j, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := atomicio.Lock(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := j.replay(f); err != nil {
		f.Close()
		return nil, err
	}
	j.f, j.loaded = f, len(j.m)
	return j, nil
}

// replay loads f's complete lines, cuts any torn tail, leaves f
// positioned for appends, and stamps the header on an empty journal.
func (j *Journal[K, V]) replay(f *os.File) error {
	r := bufio.NewReader(f)
	var accepted int64 // offset past the last complete line
	lineno := 0
	needHeader := j.s.Header != nil
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // empty tail or a torn append; drop it either way
		}
		if err != nil {
			return j.errorf(err)
		}
		lineno++
		if trimmed := bytes.TrimSpace(line); len(trimmed) != 0 {
			if needHeader {
				err = j.s.CheckHeader(trimmed)
				needHeader = false
			} else {
				var k K
				var v V
				if k, v, err = j.s.Decode(trimmed); err == nil {
					j.m[k] = v
				}
			}
			if err != nil {
				return fmt.Errorf("%s %s line %d: %w", j.s.Name, j.path, lineno, err)
			}
		}
		accepted += int64(len(line))
	}
	if needHeader && accepted != 0 {
		// Blank lines and no header: not a journal this scheme wrote;
		// refuse rather than stamp a header after them.
		return j.errorf(j.s.CheckHeader(nil))
	}
	// Appending straight after a partial line would fuse it with the
	// next record into one corrupt line that a later open must refuse.
	if err := f.Truncate(accepted); err != nil {
		return j.errorf(err)
	}
	if _, err := f.Seek(accepted, io.SeekStart); err != nil {
		return j.errorf(err)
	}
	if !needHeader {
		return nil
	}
	if _, err := faultinject.WrapWriter(j.s.Site, f).Write(append(j.s.Header, '\n')); err != nil {
		return j.errorf(err)
	}
	return nil
}

// errorf names the journal in err.
func (j *Journal[K, V]) errorf(err error) error {
	return fmt.Errorf("%s %s: %w", j.s.Name, j.path, err)
}

// Get returns the value stored under k, as stored: no copy is made.
func (j *Journal[K, V]) Get(k K) (V, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.m[k]
	return v, ok
}

// Put stores v under k and appends it to the file; the first write of
// a key wins. A write failure is sticky, and v is stored regardless.
func (j *Journal[K, V]) Put(k K, v V) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.m[k]; dup {
		return
	}
	j.m[k] = v
	if j.f == nil || j.err != nil {
		return
	}
	line, err := j.s.Encode(k, v)
	if err != nil {
		j.err = err
		return
	}
	if _, err := faultinject.WrapWriter(j.s.Site, j.f).Write(append(line, '\n')); err != nil {
		j.err = j.errorf(err)
		return
	}
	j.saved++
}

// Loaded reports how many records an existing journal contributed.
func (j *Journal[K, V]) Loaded() int { return j.loaded }

// Saved reports how many records this process appended.
func (j *Journal[K, V]) Saved() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.saved
}

// Err returns the sticky write failure, if any, without closing.
func (j *Journal[K, V]) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Flush makes the journal durable without closing it.
func (j *Journal[K, V]) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync()
	return j.err
}

// Close syncs and closes the file, returning the first write failure
// of the journal's lifetime. Closing twice is harmless, and the map
// keeps serving Get afterwards.
func (j *Journal[K, V]) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	j.sync()
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = err
	}
	j.f = nil
	return j.err
}

// sync fsyncs the file, keeping the first failure. Callers hold mu.
func (j *Journal[K, V]) sync() {
	if j.f == nil {
		return
	}
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = j.errorf(err)
	}
}
