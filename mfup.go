// Package mfup is a reproduction of Pleszkun & Sohi, "The Performance
// Potential of Multiple Functional Unit Processors" (UW-Madison CS TR
// #752 / ISCA 1988): a trace-driven simulator suite for CRAY-like
// single processors that measures how instruction issue rate responds
// to pipelining, multiple functional units, multiple issue units, and
// RUU-style dependency resolution.
//
// The package is a facade over the internal substrates:
//
//   - Machines: the paper's machine models (§3 basic organizations,
//     §5.1 in-order multiple issue, §5.2 out-of-order issue, §5.3 RUU).
//   - Kernels: the first 14 Lawrence Livermore Loops, hand-compiled
//     to the CRAY-like ISA, with validated execution.
//   - Limits: the §4 dataflow and resource bounds.
//   - Tables: regeneration of the paper's Tables 1-8.
//   - Assemble/TraceProgram: the custom-kernel workflow — write
//     assembly, trace it, simulate it on any machine.
//
// Quick start:
//
//	k := mfup.MustKernel(1)                 // LFK 1, hydro fragment
//	m, err := mfup.New("cray", mfup.M11BR5) // the CRAY-like machine
//	if err != nil {
//		log.Fatal(err)
//	}
//	r, err := m.RunChecked(k.SharedTrace(), mfup.SimLimits{})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("%.2f instructions/cycle\n", r.IssueRate())
package mfup

import (
	"mfup/internal/bus"
	"mfup/internal/core"
	"mfup/internal/limits"
	"mfup/internal/loops"
	"mfup/internal/trace"
)

// Re-exported core types. These aliases are the public names; see the
// internal packages for full documentation.
type (
	// Config selects memory latency, branch latency, and the
	// multiple-issue parameters of a machine.
	Config = core.Config

	// Machine is a timing model that runs traces.
	Machine = core.Machine

	// Result is one simulation outcome; IssueRate() is the paper's
	// metric.
	Result = core.Result

	// BusKind selects the result-bus interconnect of §5.
	BusKind = bus.Kind

	// Trace is a dynamic instruction stream.
	Trace = trace.Trace

	// Kernel is one Livermore loop benchmark.
	Kernel = loops.Kernel

	// KernelClass partitions kernels into scalar and vectorizable.
	KernelClass = loops.Class

	// LimitMode selects Pure or Serial WAW treatment in §4 bounds.
	LimitMode = limits.Mode

	// Limits carries the §4 bounds for one trace.
	Limits = limits.Limits

	// SimLimits bounds a checked simulation run: a simulated-cycle
	// budget, a no-forward-progress watchdog, and a wall-clock
	// deadline. The zero value checks nothing; DefaultSimLimits
	// returns production-safe bounds.
	SimLimits = core.Limits

	// SimError is the structured failure a checked run returns: it
	// names the machine, the trace, the failure kind, and the cycle at
	// which the run was cut off, plus — for stalls — a snapshot of the
	// stuck in-flight instructions.
	SimError = core.SimError
)

// DefaultSimLimits returns the production-safe run bounds: a large
// cycle budget and the stall watchdog, no wall-clock deadline.
func DefaultSimLimits() SimLimits { return core.DefaultLimits() }

// The paper's four machine variations (memory latency x branch
// latency).
var (
	M11BR5 = core.M11BR5
	M11BR2 = core.M11BR2
	M5BR5  = core.M5BR5
	M5BR2  = core.M5BR2
)

// BaseConfigs returns the four variations in table order.
func BaseConfigs() []Config { return core.BaseConfigs() }

// Result-bus interconnects (§5.1).
const (
	XBar = bus.XBar
	BusN = bus.BusN
	Bus1 = bus.Bus1
)

// Kernel classes.
const (
	Scalar       = loops.Scalar
	Vectorizable = loops.Vectorizable
)

// Limit modes (§4).
const (
	Pure   = limits.Pure
	Serial = limits.Serial
)

// New builds the machine of the given kind from cfg, or reports why
// it cannot: an unknown kind or an invalid configuration. The kinds
// are simple, serialmem, nonseg and cray (the §3 organizations),
// scoreboard and tomasulo (the §3.3 dependency-resolution schemes;
// a positive cfg.RUUSize sets Tomasulo's stations per unit), multi,
// ooo and ruu (the §5.1-5.3 multiple-issue machines; use
// Config.WithIssue and Config.WithRUU), and vector (the CRAY-1-style
// vector extension, the only machine that accepts vector traces).
// Every machine runs traces through RunChecked, which returns a
// *SimError on failure and honors SimLimits; the zero SimLimits checks
// nothing.
func New(kind string, cfg Config) (Machine, error) { return core.New(kind, cfg) }

// Kernels returns all 14 Livermore loops in kernel order.
func Kernels() []*Kernel { return loops.All() }

// KernelsByClass returns the loops of one class: the paper's scalar
// set is LFK {5, 6, 11, 13, 14}, the vectorizable set LFK {1, 2, 3,
// 4, 7, 8, 9, 10, 12}.
func KernelsByClass(c KernelClass) []*Kernel { return loops.ByClass(c) }

// GetKernel returns Livermore kernel n (1-14).
func GetKernel(n int) (*Kernel, error) { return loops.Get(n) }

// MustKernel is GetKernel for known-valid numbers; it panics
// otherwise.
func MustKernel(n int) *Kernel {
	k, err := loops.Get(n)
	if err != nil {
		panic(err)
	}
	return k
}

// VectorKernels returns the hand-vectorized codings of the
// representative vectorizable kernels (all nine vectorizable kernels), for use with
// the vector machine.
func VectorKernels() []*Kernel { return loops.VectorKernels() }

// VectorKernel returns the vectorized coding of kernel n, if one
// exists.
func VectorKernel(n int) (*Kernel, error) { return loops.VectorKernel(n) }

// ScaledKernel builds a fresh instance of Livermore kernel number
// with loop length n instead of the paper default. Kernel 2 requires
// a power-of-two length and kernel 4 a multiple of five; each kernel
// documents a maximum tied to its memory layout.
func ScaledKernel(number, n int) (*Kernel, error) { return loops.Scaled(number, n) }

// ComputeLimits derives the §4 dataflow and resource bounds of a
// trace under configuration cfg.
func ComputeLimits(t *Trace, cfg Config, mode LimitMode) Limits {
	return limits.Compute(t, cfg.Latencies(), mode)
}

// Steady-state extrapolation: per-loop simulation in O(1) of the
// iteration count. See internal/core for the engine's contract.
type (
	// Extrapolator wraps any Machine with the steady-state
	// extrapolation engine: results stay bit-identical to full
	// simulation whenever the engine engages, and runs it cannot
	// close analytically fall back to a plain delegated run.
	Extrapolator = core.Extrapolator

	// ExtrapolationStats reports what the engine did on the most
	// recent run of an Extrapolator.
	ExtrapolationStats = core.ExtrapolationStats
)

// Extrapolate wraps m with the steady-state extrapolation engine.
//
//	cray, err := mfup.New("cray", mfup.M11BR5)
//	...
//	m := mfup.Extrapolate(cray)
//	r, err := m.RunChecked(k.SharedTrace(), mfup.SimLimits{}) // same Result, O(1) in iterations
func Extrapolate(m Machine) *Extrapolator { return core.Extrapolate(m) }

// CanExtrapolate reports whether t satisfies the machine-independent
// prerequisites of the extrapolation engine (a detectable steady-state
// period, enough iterations for the reference ladder, tail address
// identity under reduction). A nil return does not guarantee
// engagement — machine-dependent reasons can still force a fallback.
func CanExtrapolate(t *Trace) error { return core.CanExtrapolate(t) }

// KernelForScale builds kernel number at the largest buildable loop
// length not above n, returning the kernel and the count of virtual
// iterations left over (zero when n itself is buildable). Feed the
// remainder to Extrapolator.WithVirtual via VirtualWindows to account
// for the full n analytically.
func KernelForScale(number, n int) (*Kernel, int64, error) { return loops.ForScale(number, n) }

// VirtualWindows converts extra un-materialized loop iterations of k
// into the body-window count the extrapolation engine must bridge.
func VirtualWindows(k *Kernel, extra int64) (int64, error) { return loops.VirtualWindows(k, extra) }
