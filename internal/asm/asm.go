// Package asm assembles a textual CRAY-like assembly language into an
// isa.Program.
//
// The syntax is line oriented. ";" and "#" start comments. A line of
// the form "name:" binds a label to the next instruction. Instruction
// forms:
//
//	PASS
//	A1 = 100            ; address immediate
//	A1 = A2 + A3        ; also -, * (address add / multiply)
//	A1 = A2 + 5         ; address add immediate (also - 5)
//	S1 = 42             ; scalar immediate, integer bits
//	S1 = 2.5            ; scalar immediate, IEEE double bits
//	S1 = S2 + S3        ; scalar integer add (also -)
//	S1 = S2 & S3        ; logical (also |, ^)
//	S1 = S2 << 3        ; shift (also >>)
//	S1 = S2 +F S3       ; floating add (also -F, *F)
//	S1 = 1 / S2         ; reciprocal approximation
//	S1 = POP S2         ; population count (also LZ)
//	A1 = FIX S2         ; float -> integer
//	S1 = FLOAT A2       ; integer -> float
//	A1 = S2             ; transfers: any of A<->S, A<->B, S<->T
//	S1 = [A2 + 10]      ; load (offset optional; also negative)
//	[A2 + 10] = S1      ; store
//	J  loop             ; unconditional jump
//	JAZ done            ; jump if A0 == 0 (also JAN, JAP, JAM)
//
// Vector extension forms:
//
//	VL = A1             ; set vector length
//	V1 = [A2 : 5]       ; strided vector load (stride 5)
//	[A2 : 1] = V1       ; strided vector store
//	V1 = V2 +F V3       ; elementwise (also -F, *F)
//	V1 = S2 +F V3       ; scalar broadcast (also *F)
//	S1 = V2 [ A3 ]      ; read vector element A3 into a scalar
//
// Branch decisions are made on A0, per the base architecture.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mfup/internal/isa"
)

// Error describes an assembly failure with source position.
type Error struct {
	File string // program name
	Line int    // 1-based source line
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Assemble translates source text into a validated program. name is
// used in error messages and becomes the program name.
func Assemble(name, source string) (*isa.Program, error) {
	a := &assembler{
		prog: &isa.Program{Name: name, Labels: make(map[string]int)},
		name: name,
	}
	if err := a.run(source); err != nil {
		return nil, err
	}
	if err := a.prog.Validate(); err != nil {
		return nil, err
	}
	return a.prog, nil
}

type assembler struct {
	prog *isa.Program
	name string

	// fixups are branch sites waiting for a label definition.
	fixups []fixup
}

type fixup struct {
	instr int    // index of branch instruction
	label string // referenced label
	line  int
}

func (a *assembler) run(source string) error {
	for i, raw := range strings.Split(source, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := a.line(i+1, line); err != nil {
			return err
		}
	}
	// Resolve forward references.
	for _, f := range a.fixups {
		idx, ok := a.prog.Labels[f.label]
		if !ok {
			return a.errorf(f.line, "undefined label %q", f.label)
		}
		a.prog.Code[f.instr].Target = idx
	}
	return nil
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (a *assembler) errorf(line int, format string, args ...any) error {
	return &Error{File: a.name, Line: line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) emit(in isa.Instruction) {
	a.prog.Code = append(a.prog.Code, in)
}

// line assembles one non-empty source line.
func (a *assembler) line(lineNo int, s string) error {
	// Label definition: "name:" possibly followed by an instruction.
	if i := strings.Index(s, ":"); i >= 0 && isIdent(s[:i]) {
		label := s[:i]
		if _, dup := a.prog.Labels[label]; dup {
			return a.errorf(lineNo, "duplicate label %q", label)
		}
		a.prog.Labels[label] = len(a.prog.Code)
		rest := strings.TrimSpace(s[i+1:])
		if rest == "" {
			return nil
		}
		return a.line(lineNo, rest)
	}

	fields := strings.Fields(s)
	switch strings.ToUpper(fields[0]) {
	case "PASS":
		if len(fields) != 1 {
			return a.errorf(lineNo, "PASS takes no operands")
		}
		a.emit(isa.Instruction{Op: isa.OpPass, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
		return nil
	case "J", "JAZ", "JAN", "JAP", "JAM":
		return a.branch(lineNo, fields)
	}

	// Everything else is "<lhs> = <rhs>".
	eq := strings.Index(s, "=")
	if eq < 0 {
		return a.errorf(lineNo, "cannot parse %q", s)
	}
	lhs := strings.TrimSpace(s[:eq])
	rhs := strings.TrimSpace(s[eq+1:])
	if lhs == "" || rhs == "" {
		return a.errorf(lineNo, "malformed assignment %q", s)
	}
	if strings.HasPrefix(lhs, "[") {
		return a.store(lineNo, lhs, rhs)
	}
	dst, err := parseReg(lhs)
	if err != nil {
		return a.errorf(lineNo, "bad destination %q: %v", lhs, err)
	}
	return a.assign(lineNo, dst, rhs)
}

func (a *assembler) branch(lineNo int, fields []string) error {
	if len(fields) != 2 {
		return a.errorf(lineNo, "%s needs exactly one target label", fields[0])
	}
	var op isa.Opcode
	switch strings.ToUpper(fields[0]) {
	case "J":
		op = isa.OpJ
	case "JAZ":
		op = isa.OpJAZ
	case "JAN":
		op = isa.OpJAN
	case "JAP":
		op = isa.OpJAP
	case "JAM":
		op = isa.OpJAM
	}
	label := fields[1]
	if !isIdent(label) {
		return a.errorf(lineNo, "bad label %q", label)
	}
	in := isa.Instruction{Op: op, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	if idx, ok := a.prog.Labels[label]; ok {
		in.Target = idx
	} else {
		in.Target = -1 // patched by fixup
		a.fixups = append(a.fixups, fixup{instr: len(a.prog.Code), label: label, line: lineNo})
	}
	a.emit(in)
	return nil
}

// store assembles "[Ax + off] = reg" and "[Ax : s] = Vi".
func (a *assembler) store(lineNo int, lhs, rhs string) error {
	src, err := parseReg(rhs)
	if err != nil {
		return a.errorf(lineNo, "bad store source %q: %v", rhs, err)
	}
	if base, stride, ok, err := parseVecRef(lhs); ok {
		if err != nil {
			return a.errorf(lineNo, "bad vector reference %q: %v", lhs, err)
		}
		if src.Class() != isa.ClassV {
			return a.errorf(lineNo, "strided stores take a V register, not %s", src)
		}
		a.emit(isa.Instruction{Op: isa.OpVStore, Dst: isa.NoReg, Src1: base, Src2: src, Imm: stride})
		return nil
	}
	base, off, err := parseMemRef(lhs)
	if err != nil {
		return a.errorf(lineNo, "bad memory reference %q: %v", lhs, err)
	}
	var op isa.Opcode
	switch src.Class() {
	case isa.ClassS:
		op = isa.OpStoreS
	case isa.ClassA:
		op = isa.OpStoreA
	default:
		return a.errorf(lineNo, "can only store A or S registers, not %s", src)
	}
	a.emit(isa.Instruction{Op: op, Dst: isa.NoReg, Src1: base, Src2: src, Imm: off})
	return nil
}

// parseVecRef parses "[Ax : s]"; ok reports whether the form is a
// strided (vector) reference at all.
func parseVecRef(s string) (base isa.Reg, stride int64, ok bool, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") || !strings.Contains(s, ":") {
		return isa.NoReg, 0, false, nil
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	parts := strings.Fields(inner)
	if len(parts) != 3 || parts[1] != ":" {
		return isa.NoReg, 0, true, fmt.Errorf("malformed strided reference")
	}
	base, err = parseReg(parts[0])
	if err != nil {
		return isa.NoReg, 0, true, err
	}
	if base.Class() != isa.ClassA {
		return isa.NoReg, 0, true, fmt.Errorf("base must be an A register, got %s", base)
	}
	stride, err = strconv.ParseInt(parts[2], 0, 64)
	if err != nil || stride == 0 {
		return isa.NoReg, 0, true, fmt.Errorf("bad stride %q", parts[2])
	}
	return base, stride, true, nil
}

// assign assembles "dst = rhs" for every non-store form.
func (a *assembler) assign(lineNo int, dst isa.Reg, rhs string) error {
	// Strided vector load: "Vi = [Ax : s]".
	if base, stride, ok, err := parseVecRef(rhs); ok {
		if err != nil {
			return a.errorf(lineNo, "bad vector reference %q: %v", rhs, err)
		}
		if dst.Class() != isa.ClassV {
			return a.errorf(lineNo, "strided loads target V registers, not %s", dst)
		}
		a.emit(isa.Instruction{Op: isa.OpVLoad, Dst: dst, Src1: base, Src2: isa.NoReg, Imm: stride})
		return nil
	}

	// Load: "dst = [Ax + off]".
	if strings.HasPrefix(rhs, "[") {
		base, off, err := parseMemRef(rhs)
		if err != nil {
			return a.errorf(lineNo, "bad memory reference %q: %v", rhs, err)
		}
		var op isa.Opcode
		switch dst.Class() {
		case isa.ClassS:
			op = isa.OpLoadS
		case isa.ClassA:
			op = isa.OpLoadA
		default:
			return a.errorf(lineNo, "can only load into A or S registers, not %s", dst)
		}
		a.emit(isa.Instruction{Op: op, Dst: dst, Src1: base, Src2: isa.NoReg, Imm: off})
		return nil
	}

	fields := strings.Fields(rhs)
	switch len(fields) {
	case 1:
		return a.assignSimple(lineNo, dst, fields[0])
	case 2:
		return a.assignUnary(lineNo, dst, fields[0], fields[1])
	case 3:
		return a.assignBinary(lineNo, dst, fields[0], fields[1], fields[2])
	case 4:
		// Vector element read: "S1 = V2 [ A3 ]".
		if fields[1] == "[" && fields[3] == "]" {
			vsrc, err1 := parseReg(fields[0])
			idx, err2 := parseReg(fields[2])
			if err1 != nil || err2 != nil ||
				dst.Class() != isa.ClassS || vsrc.Class() != isa.ClassV || idx.Class() != isa.ClassA {
				return a.errorf(lineNo, "element read requires S = V [ A ]")
			}
			a.emit(isa.Instruction{Op: isa.OpMoveSV, Dst: dst, Src1: vsrc, Src2: idx})
			return nil
		}
	}
	return a.errorf(lineNo, "cannot parse right-hand side %q", rhs)
}

// assignSimple handles "dst = reg" and "dst = literal".
func (a *assembler) assignSimple(lineNo int, dst isa.Reg, operand string) error {
	if src, err := parseReg(operand); err == nil {
		op, ok := moveOpcode(dst, src)
		if !ok {
			return a.errorf(lineNo, "no transfer path %s = %s", dst, src)
		}
		a.emit(isa.Instruction{Op: op, Dst: dst, Src1: src, Src2: isa.NoReg})
		return nil
	}
	switch dst.Class() {
	case isa.ClassA:
		v, err := strconv.ParseInt(operand, 0, 64)
		if err != nil {
			return a.errorf(lineNo, "bad address immediate %q", operand)
		}
		a.emit(isa.Instruction{Op: isa.OpAImm, Dst: dst, Src1: isa.NoReg, Src2: isa.NoReg, Imm: v})
		return nil
	case isa.ClassS:
		imm, err := parseScalarLiteral(operand)
		if err != nil {
			return a.errorf(lineNo, "bad scalar immediate %q", operand)
		}
		a.emit(isa.Instruction{Op: isa.OpSImm, Dst: dst, Src1: isa.NoReg, Src2: isa.NoReg, Imm: imm})
		return nil
	}
	return a.errorf(lineNo, "immediates can target only A or S registers, not %s", dst)
}

// assignUnary handles "dst = POP Sx", "LZ", "FIX", "FLOAT".
func (a *assembler) assignUnary(lineNo int, dst isa.Reg, mnemonic, operand string) error {
	src, err := parseReg(operand)
	if err != nil {
		return a.errorf(lineNo, "bad operand %q: %v", operand, err)
	}
	type shape struct {
		op       isa.Opcode
		dstClass isa.RegClass
		srcClass isa.RegClass
	}
	var sh shape
	switch strings.ToUpper(mnemonic) {
	case "POP":
		sh = shape{isa.OpSPop, isa.ClassS, isa.ClassS}
	case "LZ":
		sh = shape{isa.OpSLZ, isa.ClassS, isa.ClassS}
	case "FIX":
		sh = shape{isa.OpFix, isa.ClassA, isa.ClassS}
	case "FLOAT":
		sh = shape{isa.OpFloat, isa.ClassS, isa.ClassA}
	default:
		return a.errorf(lineNo, "unknown operation %q", mnemonic)
	}
	if dst.Class() != sh.dstClass || src.Class() != sh.srcClass {
		return a.errorf(lineNo, "%s requires %s = %s %s-register, got %s = %s %s",
			mnemonic, sh.dstClass, mnemonic, sh.srcClass, dst, mnemonic, src)
	}
	a.emit(isa.Instruction{Op: sh.op, Dst: dst, Src1: src, Src2: isa.NoReg})
	return nil
}

// assignBinary handles "dst = a OP b".
func (a *assembler) assignBinary(lineNo int, dst isa.Reg, left, oper, right string) error {
	// Reciprocal: "S1 = 1 / S2".
	if left == "1" && oper == "/" {
		src, err := parseReg(right)
		if err != nil || src.Class() != isa.ClassS || dst.Class() != isa.ClassS {
			return a.errorf(lineNo, "reciprocal requires S = 1 / S")
		}
		a.emit(isa.Instruction{Op: isa.OpRecip, Dst: dst, Src1: src, Src2: isa.NoReg})
		return nil
	}

	src1, err := parseReg(left)
	if err != nil {
		return a.errorf(lineNo, "bad operand %q: %v", left, err)
	}

	// Shift: "S1 = S2 << n".
	if oper == "<<" || oper == ">>" {
		if dst.Class() != isa.ClassS || src1.Class() != isa.ClassS {
			return a.errorf(lineNo, "shifts require S registers")
		}
		n, err := strconv.ParseInt(right, 0, 64)
		if err != nil || n < 0 || n > 63 {
			return a.errorf(lineNo, "bad shift count %q", right)
		}
		op := isa.OpSShiftL
		if oper == ">>" {
			op = isa.OpSShiftR
		}
		a.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: isa.NoReg, Imm: n})
		return nil
	}

	// Address add immediate: "A1 = A2 + 5" / "A1 = A2 - 5".
	if (oper == "+" || oper == "-") && dst.Class() == isa.ClassA {
		if v, err := strconv.ParseInt(right, 0, 64); err == nil {
			if src1.Class() != isa.ClassA {
				return a.errorf(lineNo, "address immediate add requires an A source, got %s", src1)
			}
			if oper == "-" {
				v = -v
			}
			a.emit(isa.Instruction{Op: isa.OpAAddImm, Dst: dst, Src1: src1, Src2: isa.NoReg, Imm: v})
			return nil
		}
	}

	src2, err := parseReg(right)
	if err != nil {
		return a.errorf(lineNo, "bad operand %q: %v", right, err)
	}
	op, ok := binaryOpcode(dst, src1, src2, oper)
	if !ok {
		return a.errorf(lineNo, "unsupported operation %s = %s %s %s", dst, src1, oper, src2)
	}
	a.emit(isa.Instruction{Op: op, Dst: dst, Src1: src1, Src2: src2})
	return nil
}

// binaryOpcode maps an operator and register classes to an opcode.
func binaryOpcode(dst, src1, src2 isa.Reg, oper string) (isa.Opcode, bool) {
	allA := dst.Class() == isa.ClassA && src1.Class() == isa.ClassA && src2.Class() == isa.ClassA
	allS := dst.Class() == isa.ClassS && src1.Class() == isa.ClassS && src2.Class() == isa.ClassS
	switch {
	case allA && oper == "+":
		return isa.OpAAdd, true
	case allA && oper == "-":
		return isa.OpASub, true
	case allA && oper == "*":
		return isa.OpAMul, true
	case allS && oper == "+":
		return isa.OpSAdd, true
	case allS && oper == "-":
		return isa.OpSSub, true
	case allS && oper == "&":
		return isa.OpSAnd, true
	case allS && oper == "|":
		return isa.OpSOr, true
	case allS && oper == "^":
		return isa.OpSXor, true
	case allS && oper == "+F":
		return isa.OpFAdd, true
	case allS && oper == "-F":
		return isa.OpFSub, true
	case allS && oper == "*F":
		return isa.OpFMul, true
	}
	vvv := dst.Class() == isa.ClassV && src1.Class() == isa.ClassV && src2.Class() == isa.ClassV
	svv := dst.Class() == isa.ClassV && src1.Class() == isa.ClassS && src2.Class() == isa.ClassV
	switch {
	case vvv && oper == "+F":
		return isa.OpVFAdd, true
	case vvv && oper == "-F":
		return isa.OpVFSub, true
	case vvv && oper == "*F":
		return isa.OpVFMul, true
	case svv && oper == "+F":
		return isa.OpVSFAdd, true
	case svv && oper == "*F":
		return isa.OpVSFMul, true
	}
	return 0, false
}

// moveOpcode maps a register-to-register copy to its transfer opcode.
func moveOpcode(dst, src isa.Reg) (isa.Opcode, bool) {
	switch {
	case dst.Class() == isa.ClassA && src.Class() == isa.ClassS:
		return isa.OpMoveAS, true
	case dst.Class() == isa.ClassS && src.Class() == isa.ClassA:
		return isa.OpMoveSA, true
	case dst.Class() == isa.ClassA && src.Class() == isa.ClassB:
		return isa.OpMoveAB, true
	case dst.Class() == isa.ClassB && src.Class() == isa.ClassA:
		return isa.OpMoveBA, true
	case dst.Class() == isa.ClassS && src.Class() == isa.ClassT:
		return isa.OpMoveST, true
	case dst.Class() == isa.ClassT && src.Class() == isa.ClassS:
		return isa.OpMoveTS, true
	case dst.Class() == isa.ClassVL && src.Class() == isa.ClassA:
		return isa.OpVLSet, true
	}
	return 0, false
}

// parseMemRef parses "[Ax]", "[Ax + n]" or "[Ax - n]".
func parseMemRef(s string) (base isa.Reg, off int64, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return isa.NoReg, 0, fmt.Errorf("not bracketed")
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	parts := strings.Fields(inner)
	switch len(parts) {
	case 1:
		base, err = parseReg(parts[0])
	case 3:
		base, err = parseReg(parts[0])
		if err != nil {
			return isa.NoReg, 0, err
		}
		off, err = strconv.ParseInt(parts[2], 0, 64)
		if err != nil {
			return isa.NoReg, 0, fmt.Errorf("bad offset %q", parts[2])
		}
		switch parts[1] {
		case "+":
		case "-":
			off = -off
		default:
			return isa.NoReg, 0, fmt.Errorf("bad operator %q", parts[1])
		}
	default:
		return isa.NoReg, 0, fmt.Errorf("malformed")
	}
	if err != nil {
		return isa.NoReg, 0, err
	}
	if base.Class() != isa.ClassA {
		return isa.NoReg, 0, fmt.Errorf("base must be an A register, got %s", base)
	}
	return base, off, nil
}

// parseReg parses a register name such as "A3", "S0", "B12", "T63",
// "V5", or "VL".
func parseReg(s string) (isa.Reg, error) {
	if s == "VL" || s == "vl" {
		return isa.VL, nil
	}
	if len(s) < 2 {
		return isa.NoReg, fmt.Errorf("not a register")
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return isa.NoReg, fmt.Errorf("not a register")
	}
	switch s[0] {
	case 'A', 'a':
		if n >= isa.NumA {
			return isa.NoReg, fmt.Errorf("A register index %d out of range", n)
		}
		return isa.A(n), nil
	case 'S', 's':
		if n >= isa.NumS {
			return isa.NoReg, fmt.Errorf("S register index %d out of range", n)
		}
		return isa.S(n), nil
	case 'B', 'b':
		if n >= isa.NumB {
			return isa.NoReg, fmt.Errorf("B register index %d out of range", n)
		}
		return isa.B(n), nil
	case 'T', 't':
		if n >= isa.NumT {
			return isa.NoReg, fmt.Errorf("T register index %d out of range", n)
		}
		return isa.T(n), nil
	case 'V', 'v':
		if n >= isa.NumV {
			return isa.NoReg, fmt.Errorf("V register index %d out of range", n)
		}
		return isa.V(n), nil
	}
	return isa.NoReg, fmt.Errorf("not a register")
}

// parseScalarLiteral parses an S-register immediate: an integer is
// stored as integer bits; anything else must parse as a float and is
// stored as IEEE-754 double bits.
func parseScalarLiteral(s string) (int64, error) {
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return int64(math.Float64bits(f)), nil
}

// isIdent reports whether s is a valid label identifier: a letter or
// underscore followed by letters, digits, or underscores. Register
// names are syntactically identifiers too; labels that collide with
// register names are rejected.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	if _, err := parseReg(s); err == nil {
		return false
	}
	return true
}
