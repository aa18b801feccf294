package asm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mfup/internal/isa"
)

func mustAssemble(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestAllInstructionForms(t *testing.T) {
	src := `
; every instruction form once
    PASS
    A1 = 100
    A1 = A2 + A3
    A1 = A2 - A3
    A1 = A2 * A3
    A1 = A2 + 5
    A1 = A2 - 5
    S1 = 42
    S1 = 2.5
    S1 = S2 + S3
    S1 = S2 - S3
    S1 = S2 & S3
    S1 = S2 | S3
    S1 = S2 ^ S3
    S1 = S2 << 3
    S1 = S2 >> 4
    S1 = S2 +F S3
    S1 = S2 -F S3
    S1 = S2 *F S3
    S1 = 1 / S2
    S1 = POP S2
    S1 = LZ S2
    A1 = FIX S2
    S1 = FLOAT A2
    A1 = S2
    S1 = A2
    A1 = B5
    B5 = A1
    S1 = T9
    T9 = S1
    S1 = [A2]
    S1 = [A2 + 10]
    S1 = [A2 - 3]
    A1 = [A2 + 1]
    [A2 + 4] = S1
    [A2] = A3
loop:
    J loop
    JAZ loop
    JAN loop
    JAP loop
    JAM loop
`
	p := mustAssemble(t, src)
	wantOps := []isa.Opcode{
		isa.OpPass,
		isa.OpAImm, isa.OpAAdd, isa.OpASub, isa.OpAMul, isa.OpAAddImm, isa.OpAAddImm,
		isa.OpSImm, isa.OpSImm,
		isa.OpSAdd, isa.OpSSub, isa.OpSAnd, isa.OpSOr, isa.OpSXor,
		isa.OpSShiftL, isa.OpSShiftR,
		isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpRecip,
		isa.OpSPop, isa.OpSLZ, isa.OpFix, isa.OpFloat,
		isa.OpMoveAS, isa.OpMoveSA, isa.OpMoveAB, isa.OpMoveBA, isa.OpMoveST, isa.OpMoveTS,
		isa.OpLoadS, isa.OpLoadS, isa.OpLoadS, isa.OpLoadA,
		isa.OpStoreS, isa.OpStoreA,
		isa.OpJ, isa.OpJAZ, isa.OpJAN, isa.OpJAP, isa.OpJAM,
	}
	if len(p.Code) != len(wantOps) {
		t.Fatalf("got %d instructions, want %d", len(p.Code), len(wantOps))
	}
	for i, w := range wantOps {
		if p.Code[i].Op != w {
			t.Errorf("instruction %d: opcode %s, want %s", i, p.Code[i].Op, w)
		}
	}
}

func TestImmediateEncodings(t *testing.T) {
	p := mustAssemble(t, `
    A1 = -7
    A2 = 0x10
    S1 = 42
    S2 = 2.5
    A3 = A4 - 9
    S3 = [A1 - 3]
`)
	if got := p.Code[0].Imm; got != -7 {
		t.Errorf("A1 = -7: imm = %d", got)
	}
	if got := p.Code[1].Imm; got != 16 {
		t.Errorf("A2 = 0x10: imm = %d", got)
	}
	if got := p.Code[2].Imm; got != 42 {
		t.Errorf("S1 = 42: imm = %d (integer literal should be integer bits)", got)
	}
	if got := math.Float64frombits(uint64(p.Code[3].Imm)); got != 2.5 {
		t.Errorf("S2 = 2.5: decoded float = %v", got)
	}
	if got := p.Code[4].Imm; got != -9 {
		t.Errorf("A3 = A4 - 9: imm = %d", got)
	}
	if got := p.Code[5].Imm; got != -3 {
		t.Errorf("[A1 - 3]: offset = %d", got)
	}
}

func TestStoreOperands(t *testing.T) {
	p := mustAssemble(t, `[A2 + 4] = S1`)
	in := p.Code[0]
	if in.Src1 != isa.A(2) || in.Src2 != isa.S(1) || in.Imm != 4 || in.Dst != isa.NoReg {
		t.Errorf("store parsed as %+v", in)
	}
}

func TestForwardAndBackwardBranches(t *testing.T) {
	p := mustAssemble(t, `
    J fwd
back:
    PASS
fwd:
    JAZ back
`)
	if p.Code[0].Target != 2 {
		t.Errorf("forward branch target = %d, want 2", p.Code[0].Target)
	}
	if p.Code[2].Target != 1 {
		t.Errorf("backward branch target = %d, want 1", p.Code[2].Target)
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p := mustAssemble(t, `
top: A1 = A1 + 1
    JAN top
`)
	if p.Labels["top"] != 0 || p.Code[1].Target != 0 {
		t.Errorf("inline label mishandled: labels=%v target=%d", p.Labels, p.Code[1].Target)
	}
}

func TestLabelAtEnd(t *testing.T) {
	p := mustAssemble(t, `
    JAZ done
    PASS
done:
`)
	if p.Code[0].Target != 2 {
		t.Errorf("end label target = %d, want 2 (one past last instruction)", p.Code[0].Target)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := mustAssemble(t, `
; full-line comment
# hash comment

    PASS    ; trailing comment
    PASS    # other trailing comment
`)
	if len(p.Code) != 2 {
		t.Errorf("got %d instructions, want 2", len(p.Code))
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined label", "J nowhere", "undefined label"},
		{"duplicate label", "x:\nPASS\nx:\nPASS", "duplicate label"},
		{"register as label", "A1: PASS", "cannot parse"},
		{"bad register index", "A9 = 1", "bad destination"},
		{"bad store source", "[A1] = T3", "can only store"},
		{"bad load destination", "B2 = [A1]", "can only load"},
		{"no transfer path", "B1 = S2", "no transfer path"},
		{"mixed class arithmetic", "A1 = S1 + S2", "unsupported operation"},
		{"float on A regs", "A1 = A2 +F A3", "unsupported operation"},
		{"shift count too big", "S1 = S2 << 64", "bad shift count"},
		{"recip wrong class", "A1 = 1 / S2", "reciprocal requires"},
		{"non-A memory base", "S1 = [S2 + 1]", "base must be an A register"},
		{"pass with operands", "PASS now", "no operands"},
		{"branch with two targets", "J a b", "exactly one target"},
		{"gibberish", "florp glorp", "cannot parse"},
		{"bad scalar immediate", "S1 = banana", "bad scalar immediate"},
		{"immediate into B", "B1 = 5", "immediates can target only A or S"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("e", c.src)
			if err == nil {
				t.Fatalf("assembled %q without error", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := Assemble("prog", "PASS\nPASS\nA9 = 1\n")
	if err == nil {
		t.Fatal("expected error")
	}
	var ae *Error
	if !asError(err, &ae) {
		t.Fatalf("error type %T, want *asm.Error", err)
	}
	if ae.Line != 3 || ae.File != "prog" {
		t.Errorf("error position %s:%d, want prog:3", ae.File, ae.Line)
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestDisassembleRoundTrip checks that disassembled output assembles
// back to an identical program, for randomly generated programs.
// This is the assembler's core correctness property: String/
// Disassemble and Assemble are inverses.
func TestDisassembleRoundTrip(t *testing.T) {
	gen := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		src := p.Disassemble()
		q, err := Assemble(p.Name, src)
		if err != nil {
			t.Logf("source:\n%s", src)
			t.Errorf("round trip failed to assemble: %v", err)
			return false
		}
		if len(q.Code) != len(p.Code) {
			t.Errorf("round trip length %d, want %d", len(q.Code), len(p.Code))
			return false
		}
		for i := range p.Code {
			if p.Code[i] != q.Code[i] {
				t.Logf("source:\n%s", src)
				t.Errorf("instruction %d: %+v != %+v", i, q.Code[i], p.Code[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomProgram builds a structurally valid random program whose
// instruction fields all survive textual round-tripping.
func randomProgram(rng *rand.Rand) *isa.Program {
	n := 1 + rng.Intn(30)
	p := &isa.Program{Name: "rand", Labels: map[string]int{}}
	aReg := func() isa.Reg { return isa.A(rng.Intn(isa.NumA)) }
	sReg := func() isa.Reg { return isa.S(rng.Intn(isa.NumS)) }
	for i := 0; i < n; i++ {
		var in isa.Instruction
		switch rng.Intn(13) {
		case 0:
			in = isa.Instruction{Op: isa.OpAAdd, Dst: aReg(), Src1: aReg(), Src2: aReg()}
		case 1:
			in = isa.Instruction{Op: isa.OpSSub, Dst: sReg(), Src1: sReg(), Src2: sReg()}
		case 2:
			in = isa.Instruction{Op: isa.OpFMul, Dst: sReg(), Src1: sReg(), Src2: sReg()}
		case 3:
			in = isa.Instruction{Op: isa.OpAImm, Dst: aReg(), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(rng.Intn(2000) - 1000)}
		case 4:
			in = isa.Instruction{Op: isa.OpSImm, Dst: sReg(), Src1: isa.NoReg, Src2: isa.NoReg, Imm: int64(rng.Intn(2000) - 1000)}
		case 5:
			in = isa.Instruction{Op: isa.OpLoadS, Dst: sReg(), Src1: aReg(), Src2: isa.NoReg, Imm: int64(rng.Intn(64))}
		case 6:
			in = isa.Instruction{Op: isa.OpStoreS, Dst: isa.NoReg, Src1: aReg(), Src2: sReg(), Imm: int64(rng.Intn(64))}
		case 7:
			in = isa.Instruction{Op: isa.OpSShiftL, Dst: sReg(), Src1: sReg(), Src2: isa.NoReg, Imm: int64(rng.Intn(64))}
		case 8:
			in = isa.Instruction{Op: isa.OpMoveBA, Dst: isa.B(rng.Intn(isa.NumB)), Src1: aReg(), Src2: isa.NoReg}
		case 9:
			in = isa.Instruction{Op: isa.OpRecip, Dst: sReg(), Src1: sReg(), Src2: isa.NoReg}
		case 10:
			if rng.Intn(2) == 0 {
				in = isa.Instruction{Op: isa.OpPass, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
			} else {
				// Negative immediates must survive the "+ -5" form.
				in = isa.Instruction{Op: isa.OpAAddImm, Dst: aReg(), Src1: aReg(), Src2: isa.NoReg, Imm: int64(rng.Intn(200) - 100)}
			}
		case 11:
			switch rng.Intn(4) {
			case 0:
				in = isa.Instruction{Op: isa.OpVLSet, Dst: isa.VL, Src1: aReg(), Src2: isa.NoReg}
			case 1:
				in = isa.Instruction{Op: isa.OpVLoad, Dst: isa.V(rng.Intn(isa.NumV)), Src1: aReg(), Src2: isa.NoReg, Imm: int64(1 + rng.Intn(8))}
			case 2:
				in = isa.Instruction{Op: isa.OpVFMul, Dst: isa.V(rng.Intn(isa.NumV)), Src1: isa.V(rng.Intn(isa.NumV)), Src2: isa.V(rng.Intn(isa.NumV))}
			case 3:
				in = isa.Instruction{Op: isa.OpMoveSV, Dst: sReg(), Src1: isa.V(rng.Intn(isa.NumV)), Src2: aReg()}
			}
			p.Code = append(p.Code, in)
			continue
		case 12:
			// Branch to a random already-emitted location (backward),
			// ensuring the label exists.
			tgt := 0
			if i > 0 {
				tgt = rng.Intn(i)
			}
			label := fmt.Sprintf("l%d", tgt)
			if _, ok := p.Labels[label]; !ok {
				p.Labels[label] = tgt
			}
			in = isa.Instruction{Op: isa.OpJAN, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Target: tgt}
		}
		p.Code = append(p.Code, in)
	}
	return p
}

func TestVectorForms(t *testing.T) {
	p := mustAssemble(t, `
    VL = A1
    V1 = [A2 : 5]
    [A2 : 1] = V1
    V1 = V2 +F V3
    V1 = V2 -F V3
    V1 = V2 *F V3
    V1 = S2 +F V3
    V1 = S2 *F V3
    S1 = V2 [ A3 ]
`)
	wantOps := []isa.Opcode{
		isa.OpVLSet, isa.OpVLoad, isa.OpVStore,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul,
		isa.OpVSFAdd, isa.OpVSFMul, isa.OpMoveSV,
	}
	if len(p.Code) != len(wantOps) {
		t.Fatalf("got %d instructions, want %d", len(p.Code), len(wantOps))
	}
	for i, w := range wantOps {
		if p.Code[i].Op != w {
			t.Errorf("instruction %d: opcode %s, want %s", i, p.Code[i].Op, w)
		}
	}
	if p.Code[1].Imm != 5 {
		t.Errorf("vector load stride = %d, want 5", p.Code[1].Imm)
	}
	if p.Code[2].Src2 != isa.V(1) {
		t.Errorf("vector store data register = %s, want V1", p.Code[2].Src2)
	}
}

func TestVectorErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"stride into scalar", "S1 = [A2 : 5]", "strided loads target V"},
		{"vector store scalar", "[A2 : 1] = S1", "strided stores take a V"},
		{"zero stride", "V1 = [A2 : 0]", "bad stride"},
		{"non-A base", "V1 = [S2 : 1]", "base must be an A register"},
		{"vector minus scalar", "V1 = V2 -F S3", "unsupported operation"},
		{"element read wrong class", "A1 = V2 [ A3 ]", "element read requires"},
		{"vl from scalar", "VL = S1", "no transfer path"},
		{"v register out of range", "V9 = V1 +F V2", "bad destination"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble("e", c.src)
			if err == nil {
				t.Fatalf("assembled %q without error", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}
