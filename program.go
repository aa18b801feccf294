package mfup

import (
	"mfup/internal/asm"
	"mfup/internal/emu"
	"mfup/internal/isa"
	"mfup/internal/sched"
	"mfup/internal/tables"
)

// Program is an assembled CRAY-like program.
type Program = isa.Program

// EmuMachine is the architectural emulator state: registers and
// word-addressed memory. Use it to lay out input data before tracing
// a custom program and to inspect results afterwards (SetFloat,
// SetInt, Float, Int). Memory is allocated on demand as it is
// touched, up to the size given to NewEmuMachine.
type EmuMachine = emu.Machine

// Assemble translates CRAY-like assembly source (see internal/asm for
// the syntax) into a program.
func Assemble(name, source string) (*Program, error) {
	return asm.Assemble(name, source)
}

// NewEmuMachine returns an emulator machine with the given number of
// 64-bit memory words (<= 0 selects the 1 Mi-word default). The words
// read as zero; memory grows on demand up to words, so a large size
// costs nothing until a program reaches it.
func NewEmuMachine(words int) *EmuMachine { return emu.New(words) }

// TraceProgram architecturally executes p on m and returns the
// dynamic instruction trace, which can then drive any Machine. The
// machine's memory and registers reflect the completed execution.
func TraceProgram(m *EmuMachine, p *Program) (*Trace, error) { return m.Run(p) }

// ScheduleProgram returns a copy of p with each basic block
// list-scheduled for the given configuration's latencies — the
// "software code scheduling" route to fewer issue-stage blockages
// that §6 of the paper points at. Semantics are preserved; only the
// order of independent instructions changes.
func ScheduleProgram(p *Program, cfg Config) *Program {
	return sched.Schedule(p, cfg.Latencies())
}

// Table is one regenerated paper table.
type Table = tables.Table

// GenerateTable regenerates paper table n (1-8), running all the
// simulations behind it.
func GenerateTable(n int) (*Table, error) { return tables.Get(n) }

// GenerateAllTables regenerates Tables 1-8 in order.
func GenerateAllTables() []*Table { return tables.All() }

// GenerateSection33 regenerates the supplementary comparison of
// single-issue dependency-resolution schemes whose endpoints §3.3 of
// the paper quotes in prose.
func GenerateSection33() *Table { return tables.SectionThreeThree() }
