package trace

import (
	"testing"

	"mfup/internal/isa"
)

func op(code isa.Opcode, dst, s1, s2 isa.Reg) Op {
	return Op{Code: code, Unit: code.Unit(), Parcels: int8(code.Parcels()), Dst: dst, Src1: s1, Src2: s2}
}

func TestComputeMix(t *testing.T) {
	tr := &Trace{Name: "mix", Ops: []Op{
		op(isa.OpLoadS, isa.S(1), isa.A(1), isa.NoReg),
		op(isa.OpStoreS, isa.NoReg, isa.A(1), isa.S(1)),
		op(isa.OpFAdd, isa.S(2), isa.S(1), isa.S(1)),
		op(isa.OpFMul, isa.S(3), isa.S(2), isa.S(2)),
		op(isa.OpAAdd, isa.A(2), isa.A(1), isa.A(1)),
		{Code: isa.OpJAN, Unit: isa.Branch, Parcels: 2, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: true},
		{Code: isa.OpJ, Unit: isa.Branch, Parcels: 2, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: false},
	}}
	m := tr.ComputeMix()
	if m.Total != 7 {
		t.Errorf("total = %d, want 7", m.Total)
	}
	if m.Loads != 1 || m.Stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1,1", m.Loads, m.Stores)
	}
	if m.Branches != 2 || m.Taken != 1 {
		t.Errorf("branches=%d taken=%d, want 2,1", m.Branches, m.Taken)
	}
	if m.ByUnit[isa.Memory] != 2 || m.ByUnit[isa.FloatAdd] != 1 || m.ByUnit[isa.FloatMul] != 1 {
		t.Errorf("unit counts wrong: %v", m.ByUnit)
	}
	// Parcels: memory 2+2, floats 1+1, addradd 1, branches 2+2 = 11.
	if m.Parcels != 11 {
		t.Errorf("parcels = %d, want 11", m.Parcels)
	}
}

func TestMixFraction(t *testing.T) {
	tr := &Trace{Ops: []Op{
		op(isa.OpLoadS, isa.S(1), isa.A(1), isa.NoReg),
		op(isa.OpLoadS, isa.S(2), isa.A(1), isa.NoReg),
		op(isa.OpFAdd, isa.S(3), isa.S(1), isa.S(2)),
		op(isa.OpFAdd, isa.S(4), isa.S(3), isa.S(1)),
	}}
	m := tr.ComputeMix()
	if got := m.Fraction(isa.Memory); got != 0.5 {
		t.Errorf("memory fraction = %v, want 0.5", got)
	}
	var empty Mix
	if empty.Fraction(isa.Memory) != 0 {
		t.Error("empty mix fraction != 0")
	}
}

func TestOpReads(t *testing.T) {
	var buf []isa.Reg
	cond := Op{Code: isa.OpJAZ, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	got := cond.Reads(buf[:0])
	if len(got) != 1 || got[0] != isa.A0 {
		t.Errorf("conditional branch reads %v, want [A0]", got)
	}
	st := op(isa.OpStoreS, isa.NoReg, isa.A(3), isa.S(4))
	got = st.Reads(buf[:0])
	if len(got) != 2 || got[0] != isa.A(3) || got[1] != isa.S(4) {
		t.Errorf("store reads %v", got)
	}
}

func TestOpPredicates(t *testing.T) {
	b := Op{Code: isa.OpJ, Unit: isa.Branch}
	if !b.IsBranch() || b.IsMemory() {
		t.Error("branch misclassified")
	}
	l := op(isa.OpLoadA, isa.A(1), isa.A(2), isa.NoReg)
	if l.IsBranch() || !l.IsMemory() {
		t.Error("load misclassified")
	}
}

func TestLen(t *testing.T) {
	tr := &Trace{Ops: make([]Op, 5)}
	if tr.Len() != 5 {
		t.Errorf("Len = %d, want 5", tr.Len())
	}
}
