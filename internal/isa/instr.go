package isa

import (
	"fmt"
	"strings"
)

// Instruction is one static instruction of a Program.
//
// The operand fields are interpreted per opcode:
//
//   - Dst: destination register (NoReg for stores, branches, PASS).
//   - Src1, Src2: source registers (NoReg when unused). For memory
//     operations Src1 is the base address register; for stores Src2 is
//     the data register.
//   - Imm: immediate constant, shift count, or address offset.
//   - Target: branch target as an instruction index within the
//     program, resolved by the assembler.
type Instruction struct {
	Op     Opcode
	Dst    Reg
	Src1   Reg
	Src2   Reg
	Imm    int64
	Target int
}

// Unit reports the functional unit the instruction executes in.
func (in Instruction) Unit() Unit { return in.Op.Unit() }

// Parcels reports the instruction's size in 16-bit parcels.
func (in Instruction) Parcels() int { return in.Op.Parcels() }

// Reads appends the registers the instruction reads to dst and
// returns the extended slice. Conditional branches read A0.
func (in Instruction) Reads(dst []Reg) []Reg {
	if in.Src1.Valid() {
		dst = append(dst, in.Src1)
	}
	if in.Src2.Valid() {
		dst = append(dst, in.Src2)
	}
	if in.Op.IsConditional() {
		dst = append(dst, A0)
	}
	if in.Op.IsVector() && in.Op != OpVLSet {
		dst = append(dst, VL)
	}
	return dst
}

// Writes returns the register the instruction writes, or NoReg.
func (in Instruction) Writes() Reg { return in.Dst }

// String renders the instruction in the assembly syntax accepted by
// internal/asm.
func (in Instruction) String() string {
	switch in.Op {
	case OpPass:
		return "PASS"
	case OpAAdd, OpSAdd:
		return fmt.Sprintf("%s = %s + %s", in.Dst, in.Src1, in.Src2)
	case OpASub, OpSSub:
		return fmt.Sprintf("%s = %s - %s", in.Dst, in.Src1, in.Src2)
	case OpAMul:
		return fmt.Sprintf("%s = %s * %s", in.Dst, in.Src1, in.Src2)
	case OpAImm, OpSImm:
		return fmt.Sprintf("%s = %d", in.Dst, in.Imm)
	case OpAAddImm:
		return fmt.Sprintf("%s = %s + %d", in.Dst, in.Src1, in.Imm)
	case OpSAnd:
		return fmt.Sprintf("%s = %s & %s", in.Dst, in.Src1, in.Src2)
	case OpSOr:
		return fmt.Sprintf("%s = %s | %s", in.Dst, in.Src1, in.Src2)
	case OpSXor:
		return fmt.Sprintf("%s = %s ^ %s", in.Dst, in.Src1, in.Src2)
	case OpSShiftL:
		return fmt.Sprintf("%s = %s << %d", in.Dst, in.Src1, in.Imm)
	case OpSShiftR:
		return fmt.Sprintf("%s = %s >> %d", in.Dst, in.Src1, in.Imm)
	case OpSPop:
		return fmt.Sprintf("%s = POP %s", in.Dst, in.Src1)
	case OpSLZ:
		return fmt.Sprintf("%s = LZ %s", in.Dst, in.Src1)
	case OpFAdd:
		return fmt.Sprintf("%s = %s +F %s", in.Dst, in.Src1, in.Src2)
	case OpFSub:
		return fmt.Sprintf("%s = %s -F %s", in.Dst, in.Src1, in.Src2)
	case OpFMul:
		return fmt.Sprintf("%s = %s *F %s", in.Dst, in.Src1, in.Src2)
	case OpRecip:
		return fmt.Sprintf("%s = 1 / %s", in.Dst, in.Src1)
	case OpMoveAS, OpMoveSA, OpMoveAB, OpMoveBA, OpMoveST, OpMoveTS:
		return fmt.Sprintf("%s = %s", in.Dst, in.Src1)
	case OpFix:
		return fmt.Sprintf("%s = FIX %s", in.Dst, in.Src1)
	case OpFloat:
		return fmt.Sprintf("%s = FLOAT %s", in.Dst, in.Src1)
	case OpLoadS, OpLoadA:
		return fmt.Sprintf("%s = [%s + %d]", in.Dst, in.Src1, in.Imm)
	case OpStoreS, OpStoreA:
		return fmt.Sprintf("[%s + %d] = %s", in.Src1, in.Imm, in.Src2)
	case OpJ, OpJAZ, OpJAN, OpJAP, OpJAM:
		return fmt.Sprintf("%s @%d", in.Op, in.Target)
	case OpVLSet:
		return fmt.Sprintf("VL = %s", in.Src1)
	case OpVLoad:
		return fmt.Sprintf("%s = [%s : %d]", in.Dst, in.Src1, in.Imm)
	case OpVStore:
		return fmt.Sprintf("[%s : %d] = %s", in.Src1, in.Imm, in.Src2)
	case OpVFAdd, OpVSFAdd:
		return fmt.Sprintf("%s = %s +F %s", in.Dst, in.Src1, in.Src2)
	case OpVFSub:
		return fmt.Sprintf("%s = %s -F %s", in.Dst, in.Src1, in.Src2)
	case OpVFMul, OpVSFMul:
		return fmt.Sprintf("%s = %s *F %s", in.Dst, in.Src1, in.Src2)
	case OpMoveSV:
		return fmt.Sprintf("%s = %s [ %s ]", in.Dst, in.Src1, in.Src2)
	}
	return fmt.Sprintf("%s ?", in.Op)
}

// Program is an assembled program: a flat instruction sequence plus
// the label table that produced it (kept for disassembly and error
// reporting).
type Program struct {
	Name   string
	Code   []Instruction
	Labels map[string]int // label name -> instruction index
}

// Disassemble renders the program as assembly text, one instruction
// per line, with labels re-inserted and branch targets symbolic where
// possible.
func (p *Program) Disassemble() string {
	// Invert the label table deterministically: first label wins is
	// unacceptable for map iteration, so collect per index.
	byIndex := make(map[int]string, len(p.Labels))
	for name, idx := range p.Labels {
		if old, ok := byIndex[idx]; !ok || name < old {
			byIndex[idx] = name
		}
	}
	var b strings.Builder
	for i, in := range p.Code {
		if lbl, ok := byIndex[i]; ok {
			fmt.Fprintf(&b, "%s:\n", lbl)
		}
		if in.Op.IsBranch() {
			tgt := fmt.Sprintf("@%d", in.Target)
			if lbl, ok := byIndex[in.Target]; ok {
				tgt = lbl
			}
			if in.Op == OpJ {
				fmt.Fprintf(&b, "    J %s\n", tgt)
			} else {
				fmt.Fprintf(&b, "    %s %s\n", in.Op, tgt)
			}
			continue
		}
		fmt.Fprintf(&b, "    %s\n", in)
	}
	if lbl, ok := byIndex[len(p.Code)]; ok {
		fmt.Fprintf(&b, "%s:\n", lbl)
	}
	return b.String()
}

// Validate checks structural well-formedness: branch targets in
// range, operand registers present where the opcode requires them.
// It returns the first problem found.
func (p *Program) Validate() error {
	for i, in := range p.Code {
		if int(in.Op) >= numAllOpcodes {
			return fmt.Errorf("%s: instruction %d: invalid opcode %d", p.Name, i, in.Op)
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target > len(p.Code) {
				return fmt.Errorf("%s: instruction %d: branch target %d out of range [0,%d]",
					p.Name, i, in.Target, len(p.Code))
			}
			continue
		}
		needDst, needSrc1, needSrc2 := operandShape(in.Op)
		if needDst && !in.Dst.Valid() {
			return fmt.Errorf("%s: instruction %d (%s): missing destination", p.Name, i, in.Op)
		}
		if needSrc1 && !in.Src1.Valid() {
			return fmt.Errorf("%s: instruction %d (%s): missing first source", p.Name, i, in.Op)
		}
		if needSrc2 && !in.Src2.Valid() {
			return fmt.Errorf("%s: instruction %d (%s): missing second source", p.Name, i, in.Op)
		}
	}
	return nil
}

// operandShape reports which operand fields an opcode requires.
func operandShape(op Opcode) (dst, src1, src2 bool) {
	switch op {
	case OpPass:
		return false, false, false
	case OpAImm, OpSImm:
		return true, false, false
	case OpAAddImm, OpSShiftL, OpSShiftR, OpSPop, OpSLZ, OpRecip,
		OpMoveAS, OpMoveSA, OpMoveAB, OpMoveBA, OpMoveST, OpMoveTS,
		OpFix, OpFloat, OpLoadS, OpLoadA:
		return true, true, false
	case OpStoreS, OpStoreA, OpVStore:
		return false, true, true
	case OpVLSet, OpVLoad:
		return true, true, false
	default: // three-operand register ops
		return true, true, true
	}
}
