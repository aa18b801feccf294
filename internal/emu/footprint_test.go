package emu_test

import (
	"testing"

	"mfup/internal/emu"
	"mfup/internal/loops"
)

// maxKernelWords bounds the backing store of every built-in kernel.
// The largest footprint is kernel 9 at n=4000, whose highest address
// is just under 104k words; doubling from the initial store rounds
// that up to 128 Ki.
const maxKernelWords = 128 << 10

// TestKernelFootprint guards the cold-job allocation: at its largest
// loop length, no built-in kernel (nor vector coding) backs more than
// maxKernelWords of its 1 Mi-word memory, and no max-length trace
// holds more than twice the capacity it uses.
func TestKernelFootprint(t *testing.T) {
	var ks []*loops.Kernel
	for _, k := range loops.All() {
		_, maxN, err := loops.Bounds(k.Number)
		if err != nil {
			t.Fatal(err)
		}
		big, err := loops.Scaled(k.Number, maxN)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, big)
	}
	scalar := len(ks)
	ks = append(ks, loops.VectorKernels()...)
	for i, k := range ks {
		m := k.NewMachine()
		tr, err := m.Run(k.Program())
		if err != nil {
			t.Fatalf("%s n=%d: %v", k, k.N, err)
		}
		if err := k.Validate(m); err != nil {
			t.Fatalf("%s n=%d: %v", k, k.N, err)
		}
		if w := emu.BackingWords(m); w > maxKernelWords {
			t.Errorf("%s n=%d: backing store %d words, want <= %d", k, k.N, w, maxKernelWords)
		}
		if n, c := len(tr.Ops), cap(tr.Ops); i < scalar && c > 2*n {
			t.Errorf("%s n=%d: trace cap %d > 2 x len %d", k, k.N, c, n)
		}
	}
}
