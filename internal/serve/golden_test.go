package serve

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/keys_golden.txt")

const keysGoldenPath = "testdata/keys_golden.txt"

// keyGrid enumerates a deterministic grid of machine specs spelled in
// many ways: each kind in three casings and paddings, defaults omitted
// and spelled out, bus aliases, and values for parameters the kind
// ignores. Every spelling runs the same workload, so only the machine
// part of the key varies.
func keyGrid() []JobSpec {
	kinds := []string{"simple", "serialmem", "nonseg", "cray", "scoreboard",
		"tomasulo", "multi", "ooo", "ruu", "vector"}
	lat := [][2]int{{0, 0}, {11, 5}, {5, 2}, {-1, 5}, {11, 0}}
	units := []int{0, 1, 4, -2}
	buses := []string{"", "nbus", "NBUS", "1bus", "x-bar", "ring"}
	ruus := []int{0, 50, 8, -3}
	stations := []int{0, 4, 9, -1}
	var grid []JobSpec
	for _, kind := range kinds {
		for _, spell := range []string{kind, strings.ToUpper(kind), "  " + strings.ToUpper(kind[:1]) + kind[1:] + " "} {
			for _, l := range lat {
				for _, u := range units {
					for _, b := range buses {
						// No result was ever stored under an ruu crossbar:
						// its build always failed.
						if kind == "ruu" && b == "x-bar" {
							continue
						}
						for _, r := range ruus {
							for _, s := range stations {
								grid = append(grid, JobSpec{
									Machine: MachineSpec{Kind: spell, Mem: l[0], Br: l[1],
										Units: u, Bus: b, RUU: r, Stations: s},
									Workload: WorkloadSpec{Loops: "12,1,12"},
								})
							}
						}
					}
				}
			}
		}
	}
	return grid
}

// TestKeyGolden pins the cache key of every spelling in keyGrid, or
// that it is rejected. Keys are the names of journaled results, so a
// change here orphans every cache on disk. The golden file holds each
// kind's default key in readable form and one SHA-256 over the whole
// ordered list. Regenerate with
// `go test ./internal/serve -run TestKeyGolden -update` only for a
// deliberate change to the key format.
func TestKeyGolden(t *testing.T) {
	var all strings.Builder
	defaults := map[string]string{}
	accepted, rejected := 0, 0
	distinct := map[string]bool{}
	for _, spec := range keyGrid() {
		m := spec.Machine
		fmt.Fprintf(&all, "%q %d %d %d %q %d %d ", m.Kind, m.Mem, m.Br, m.Units, m.Bus, m.RUU, m.Stations)
		c, err := Canonicalize(spec)
		if err != nil {
			if _, ok := err.(*SpecError); !ok {
				t.Fatalf("%+v: error %v (%T), want *SpecError", m, err, err)
			}
			rejected++
			all.WriteString("rejected\n")
			continue
		}
		accepted++
		k := Key(c)
		distinct[k] = true
		all.WriteString(k + "\n")
		if m == (MachineSpec{Kind: m.Kind}) && m.Kind == strings.ToLower(m.Kind) {
			defaults[m.Kind] = k
		}
	}

	var got strings.Builder
	kinds := make([]string, 0, len(defaults))
	for k := range defaults {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&got, "%s %s\n", defaults[k], k)
	}
	fmt.Fprintf(&got, "%x grid: %d spellings, %d accepted, %d rejected, %d distinct keys\n",
		sha256.Sum256([]byte(all.String())), accepted+rejected, accepted, rejected, len(distinct))

	if *updateGolden {
		if err := os.WriteFile(keysGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
