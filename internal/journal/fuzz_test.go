package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to Open as an existing journal, under
// both test schemes. Open must either refuse the file, leaving it as
// it was, or accept it and leave a file in which every line is
// complete — and that file must reopen to the same records.
func FuzzOpen(f *testing.F) {
	good := `{"k":"a","v":1}` + "\n"
	for _, seed := range []string{
		"",
		"\n",
		good,
		good + `{"k":"b","v":[1,`,
		testHeader + "\n" + good,
		testHeader + "\n" + good + `{"k`,
		testHeader[:7],
		"not json\n" + good,
		" \n\t\n" + good,
		good + "\x00\xff\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, sc := range schemes {
			path := filepath.Join(dir, sc.name+".jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := Open(path, sc.s)
			if err != nil {
				if got := readFile(t, path); !bytes.Equal(got, data) {
					t.Fatalf("%s: refused journal was modified: %q -> %q", sc.name, data, got)
				}
				continue
			}
			loaded := j.Loaded()
			if err := j.Close(); err != nil {
				t.Fatalf("%s: close: %v", sc.name, err)
			}
			got := readFile(t, path)
			if len(got) > 0 && got[len(got)-1] != '\n' {
				t.Fatalf("%s: accepted journal left a torn line: %q -> %q", sc.name, data, got)
			}
			if !bytes.HasPrefix(data, got) && !bytes.Equal(got, []byte(testHeader+"\n")) {
				t.Fatalf("%s: open rewrote more than the torn tail: %q -> %q", sc.name, data, got)
			}
			j2, err := Open(path, sc.s)
			if err != nil {
				t.Fatalf("%s: accepted journal does not reopen: %v", sc.name, err)
			}
			if j2.Loaded() != loaded {
				t.Fatalf("%s: reopen loaded %d, first open %d", sc.name, j2.Loaded(), loaded)
			}
			j2.Close()
		}
	})
}
