package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mfup/internal/atomicio"
	"mfup/internal/faultinject"
)

// The crash-consistency suite. Every resumable store in the repo is a
// Scheme over this one Journal, so these tests run against the only
// implementation there is. The two test schemes mirror the shapes in
// use: a bare record stream (sweep journal, result cache) and one with
// a mandatory header line (table checkpoint).

const testSite = "write.journaltest"

type testLine struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

func plainScheme() Scheme[string, json.RawMessage] {
	return Scheme[string, json.RawMessage]{
		Name: "test journal",
		Site: testSite,
		Encode: func(k string, v json.RawMessage) ([]byte, error) {
			return json.Marshal(testLine{K: k, V: v})
		},
		Decode: func(line []byte) (string, json.RawMessage, error) {
			var tl testLine
			if err := json.Unmarshal(line, &tl); err != nil {
				return "", nil, err
			}
			if tl.K == "" || len(tl.V) == 0 {
				return "", nil, errors.New("missing key or value")
			}
			return tl.K, tl.V, nil
		},
	}
}

const testHeader = `{"schema":"test/v1"}`

func headerScheme() Scheme[string, json.RawMessage] {
	s := plainScheme()
	s.Header = []byte(testHeader)
	s.CheckHeader = func(line []byte) error {
		if !bytes.Equal(line, s.Header) {
			return fmt.Errorf("header %q, want %q", line, s.Header)
		}
		return nil
	}
	return s
}

var schemes = []struct {
	name string
	s    Scheme[string, json.RawMessage]
}{
	{"plain", plainScheme()},
	{"header", headerScheme()},
}

// records are the test journal's contents, in append order.
var records = []struct{ k, v string }{
	{"a", `1`},
	{"bb", `{"x":[1,2,3]}`},
	{"ccc", `"three"`},
	{"d", `0.3333333333333333`},
}

// write builds a valid journal at path holding records.
func write(t *testing.T, path string, s Scheme[string, json.RawMessage]) []byte {
	t.Helper()
	j, err := Open(path, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		j.Put(r.k, json.RawMessage(r.v))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return readFile(t, path)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The deterministic form of "kill -9 mid-append": for every byte
// offset of a valid journal, the file cut there must reopen with
// exactly the records whose newline survived, be cut back to its last
// newline (stamped afresh if the header itself was torn), and take
// further appends that a later open reads in full.
func TestTornTailEveryPrefix(t *testing.T) {
	for _, sc := range schemes {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			full := write(t, filepath.Join(dir, "full.jsonl"), sc.s)
			for n := 0; n <= len(full); n++ {
				prefix := full[:n]
				path := filepath.Join(dir, fmt.Sprintf("cut%d.jsonl", n))
				if err := os.WriteFile(path, prefix, 0o644); err != nil {
					t.Fatal(err)
				}
				j, err := Open(path, sc.s)
				if err != nil {
					t.Fatalf("prefix %d: %v", n, err)
				}
				complete := prefix[:bytes.LastIndexByte(prefix, '\n')+1]
				lines := bytes.Count(complete, []byte{'\n'})
				wantFile := complete
				if sc.s.Header != nil {
					if lines == 0 {
						wantFile = []byte(testHeader + "\n")
					} else {
						lines-- // the header is not a record
					}
				}
				if j.Loaded() != lines {
					t.Errorf("prefix %d: loaded %d, want %d", n, j.Loaded(), lines)
				}
				for i, r := range records {
					v, ok := j.Get(r.k)
					if want := i < lines; ok != want || (ok && string(v) != r.v) {
						t.Errorf("prefix %d: Get(%q) = %s, %v; want present=%v", n, r.k, v, ok, want)
					}
				}
				if got := readFile(t, path); !bytes.Equal(got, wantFile) {
					t.Errorf("prefix %d: file after open = %q, want %q", n, got, wantFile)
				}
				j.Put("tail", json.RawMessage(`true`))
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				j2, err := Open(path, sc.s)
				if err != nil {
					t.Fatalf("prefix %d: unreadable after append-over-torn-tail: %v", n, err)
				}
				if j2.Loaded() != lines+1 {
					t.Errorf("prefix %d: reopen loaded %d, want %d", n, j2.Loaded(), lines+1)
				}
				j2.Close()
			}
		})
	}
}

// A bad complete line is a hard error naming its line number, and a
// journal refused on open is left exactly as it was.
func TestCorruptLineRefused(t *testing.T) {
	good := `{"k":"a","v":1}` + "\n"
	cases := []struct {
		name    string
		s       Scheme[string, json.RawMessage]
		content string
		want    string
	}{
		{"plain middle", plainScheme(), good + "not json\n" + good, "line 2"},
		{"plain bad record", plainScheme(), good + good + `{"k":"","v":1}` + "\n", "line 3"},
		{"header middle", headerScheme(), testHeader + "\n" + good + "\n{}\n" + good, "line 4"},
		{"wrong header", headerScheme(), `{"schema":"test/v0"}` + "\n" + good, "line 1"},
		{"headerless", headerScheme(), good, "line 1"},
		{"blank lines, no header", headerScheme(), "\n \n", "header"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			// The torn tail must survive a refusal too.
			content := c.content + `{"k":"to`
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, c.s)
			if err == nil {
				t.Fatal("corrupt journal opened")
			}
			if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name %q and the file", err, c.want)
			}
			if got := readFile(t, path); string(got) != content {
				t.Errorf("refused journal was modified: %q", got)
			}
		})
	}
}

// A second opener — in this process or another — gets a structured
// *atomicio.LockError and never touches the holder's file, not even
// the torn tail the holder is in the middle of writing.
func TestLockContention(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	holder, err := Open(path, headerScheme())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	holder.Put("a", json.RawMessage(`1`))
	if err := holder.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"b","v`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := readFile(t, path)

	_, err = Open(path, headerScheme())
	var le *atomicio.LockError
	if !errors.As(err, &le) || le.Path != path {
		t.Fatalf("second open error = %v (%T), want *atomicio.LockError on %s", err, err, path)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestLockHelperProcess$")
	cmd.Env = append(os.Environ(), "JOURNAL_LOCK_HELPER="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("locked out")) {
		t.Errorf("second process was not locked out:\n%s", out)
	}

	if after := readFile(t, path); !bytes.Equal(before, after) {
		t.Errorf("locked-out openers modified the journal:\nbefore: %q\nafter:  %q", before, after)
	}
}

// TestLockHelperProcess is the other process of TestLockContention; it
// does nothing unless that test started it.
func TestLockHelperProcess(t *testing.T) {
	path := os.Getenv("JOURNAL_LOCK_HELPER")
	if path == "" {
		t.Skip("helper process only")
	}
	_, err := Open(path, headerScheme())
	var le *atomicio.LockError
	if !errors.As(err, &le) {
		t.Fatalf("open from a second process: %v, want *atomicio.LockError", err)
	}
	fmt.Println("locked out")
}

// Injected write faults are sticky — reported by Err, Flush and Close,
// later appends skipped — while every record keeps serving from
// memory, and the wounded file reopens cleanly with the records
// written before the fault.
func TestInjectedWriteFaults(t *testing.T) {
	isFault := map[string]func(error) bool{
		"werr": func(err error) bool {
			var fe *faultinject.Error
			return errors.As(err, &fe)
		},
		"short": func(err error) bool { return errors.Is(err, io.ErrShortWrite) },
	}
	for kind, is := range isFault {
		spec := testSite + ":" + kind + ":after=2:times=1"
		for _, sc := range schemes {
			t.Run(kind+"/"+sc.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.jsonl")
				j, err := Open(path, sc.s)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := faultinject.ParsePlan(spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				faultinject.Activate(faultinject.New(plan))
				defer faultinject.Deactivate()

				j.Put("a", json.RawMessage(`1`)) // first append: lands
				if err := j.Err(); err != nil {
					t.Fatalf("first append failed: %v", err)
				}
				j.Put("b", json.RawMessage(`2`)) // second: the fault
				j.Put("c", json.RawMessage(`3`)) // the site is clear again, but the failure is sticky: skipped
				wantFault := func(what string, err error) {
					t.Helper()
					if !is(err) {
						t.Errorf("%s = %v, want the injected %s fault", what, err, kind)
					}
				}
				wantFault("Err", j.Err())
				wantFault("Flush", j.Flush())
				for _, k := range []string{"a", "b", "c"} {
					if _, ok := j.Get(k); !ok {
						t.Errorf("Get(%q) lost after the write fault", k)
					}
				}
				if j.Saved() != 1 {
					t.Errorf("saved = %d, want 1", j.Saved())
				}
				wantFault("Close", j.Close())
				wantFault("second Close", j.Close())

				faultinject.Deactivate()
				j2, err := Open(path, sc.s)
				if err != nil {
					t.Fatalf("journal unreadable after the fault: %v", err)
				}
				defer j2.Close()
				if j2.Loaded() != 1 {
					t.Errorf("reopen loaded %d, want 1 (only the append before the fault)", j2.Loaded())
				}
				if data := readFile(t, path); data[len(data)-1] != '\n' {
					t.Errorf("reopened journal ends in a torn line: %q", data)
				}
			})
		}
	}
}

// A fault on the header stamp fails Open; the next clean open stamps
// the header again over whatever half of it landed.
func TestInjectedHeaderFault(t *testing.T) {
	for _, spec := range []string{testSite + ":werr", testSite + ":short"} {
		t.Run(spec, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			plan, err := faultinject.ParsePlan(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Activate(faultinject.New(plan))
			if _, err := Open(path, headerScheme()); err == nil {
				t.Fatal("open succeeded with its header write failing")
			}
			faultinject.Deactivate()
			j, err := Open(path, headerScheme())
			if err != nil {
				t.Fatalf("open after a failed header stamp: %v", err)
			}
			j.Close()
			if got := readFile(t, path); string(got) != testHeader+"\n" {
				t.Errorf("file = %q, want just the header", got)
			}
		})
	}
}

// The first write of a key wins, in memory and on disk.
func TestDuplicatePutFirstWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path, plainScheme())
	if err != nil {
		t.Fatal(err)
	}
	j.Put("k", json.RawMessage(`1`))
	j.Put("k", json.RawMessage(`2`))
	if v, _ := j.Get("k"); string(v) != `1` {
		t.Errorf("Get = %s, want the first write", v)
	}
	if j.Saved() != 1 {
		t.Errorf("saved = %d, want 1", j.Saved())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, plainScheme())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if v, _ := j2.Get("k"); j2.Loaded() != 1 || string(v) != `1` {
		t.Errorf("reopen: loaded %d, Get = %s; want 1 record holding the first write", j2.Loaded(), v)
	}
}

// An empty path is a memory-only journal: full API, no file.
func TestMemoryOnly(t *testing.T) {
	j, err := Open("", headerScheme())
	if err != nil {
		t.Fatal(err)
	}
	j.Put("k", json.RawMessage(`{}`))
	if _, ok := j.Get("k"); !ok {
		t.Error("memory-only journal lost its record")
	}
	if j.Saved() != 0 || j.Loaded() != 0 {
		t.Errorf("memory-only journal claims saved=%d loaded=%d", j.Saved(), j.Loaded())
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// Get is the daemon's cache-hit path: it returns the stored bytes
// themselves and allocates nothing.
func TestGetReturnsStoredBytesWithoutAllocating(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "j.jsonl"), plainScheme())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	stored := json.RawMessage(`{"machine":"CRAY-like"}`)
	j.Put("k", stored)
	if got, _ := j.Get("k"); &got[0] != &stored[0] {
		t.Error("Get returned a copy of the stored bytes")
	}
	var sink json.RawMessage
	if n := testing.AllocsPerRun(1000, func() { sink, _ = j.Get("k") }); n != 0 {
		t.Errorf("Get allocates %v times per call, want 0", n)
	}
	_ = sink
}

// Workers share one journal: concurrent Puts of overlapping keys must
// store each key once and never interleave two appends into one line.
func TestConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path, headerScheme())
	if err != nil {
		t.Fatal(err)
	}
	const workers, keys = 8, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := fmt.Sprintf("k%d", (i+w)%keys)
				j.Put(k, json.RawMessage(fmt.Sprintf(`{"k":%d}`, (i+w)%keys)))
				if _, ok := j.Get(k); !ok {
					t.Errorf("Get(%q) missed right after Put", k)
				}
				_ = j.Saved()
				_ = j.Err()
			}
		}(w)
	}
	wg.Wait()
	if j.Saved() != keys {
		t.Errorf("saved = %d, want %d (one append per key)", j.Saved(), keys)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, headerScheme())
	if err != nil {
		t.Fatalf("journal written concurrently does not reopen: %v", err)
	}
	defer j2.Close()
	if j2.Loaded() != keys {
		t.Errorf("reopen loaded %d, want %d", j2.Loaded(), keys)
	}
}
