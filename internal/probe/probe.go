// Package probe is the cycle-level observability layer of the machine
// models: the Counters a timing model feeds, cycle by cycle, with
// what its issue stage did — issued instructions, slots lost
// to a named stall reason, results written back, branches resolved,
// buffer occupancy — without perturbing the simulation itself.
//
// The paper's argument rests on *why* issue rates saturate: WAW
// serialization caps the §4 Serial bounds (Table 2), the 1-Bus
// interconnect drags Table 4 below Table 3, and finite instruction
// buffers shape Tables 5-8. The final harmonic-mean rates alone show
// none of that. Counters attached to a machine make the limiting
// resource visible: every issue slot of every cycle is either an
// issue or a stall attributed to one Reason, so the counts decompose
// a run's cycles into exactly the causes the paper discusses — and
// provide the per-resource occupancies a queuing-model treatment of
// functional-unit and issue-queue sizing needs as input.
//
// Zero-overhead contract: a machine holds nil *Counters by default and
// guards every callback behind a nil check, so the unprobed hot path
// costs one predictable branch per event and the timing math is
// untouched either way. Attaching counters never changes simulated
// cycle counts; they only observe them.
package probe

import "fmt"

// Reason names why an issue slot went unused for one cycle. The
// taxonomy follows the paper's own explanations of its tables.
type Reason uint8

// Stall reasons.
const (
	// ReasonRAW: a true dependence — a source register (or the memory
	// word a load needs, in machines without store-to-load forwarding)
	// is still being produced.
	ReasonRAW Reason = iota

	// ReasonWAW: an output dependence — the destination register is
	// reserved by an earlier writer (includes the vector machine's
	// anti-dependence wait on in-flight readers, which the same
	// register-instance bookkeeping serializes).
	ReasonWAW

	// ReasonStructFU: the needed functional unit cannot accept a new
	// operation (non-segmented unit busy, vector reservation, or the
	// Simple machine's exclusive execution stage).
	ReasonStructFU

	// ReasonResultBus: the result-bus slot the instruction's result
	// would need is already reserved (§5's interconnect conflicts).
	ReasonResultBus

	// ReasonMemBank: the interleaved-memory bank holding the address
	// is busy (the banked-memory extension; never occurs with the
	// paper's ideal interleaved memory).
	ReasonMemBank

	// ReasonBranch: control dependence — a branch holds the issue
	// stage while it waits for its condition and resolves (the paper
	// models no prediction).
	ReasonBranch

	// ReasonBufferFull: an instruction buffer with no free slot — RUU
	// entries, a reservation-station pool — blocks in-order issue.
	ReasonBufferFull

	// ReasonIssueWidth: slots idle because the fetch/issue machinery
	// has nothing to offer them: an instruction buffer that refills
	// only when empty, or one cut short at a taken branch.
	ReasonIssueWidth

	// ReasonDrain: slots after the last instruction has issued, while
	// in-flight results drain. Counters derives this remainder itself;
	// machines never report it.
	ReasonDrain

	// NumReasons is the size of a per-reason array.
	NumReasons = int(ReasonDrain) + 1
)

// String names the reason as the metrics outputs spell it.
func (r Reason) String() string {
	switch r {
	case ReasonRAW:
		return "raw"
	case ReasonWAW:
		return "waw"
	case ReasonStructFU:
		return "structural-fu"
	case ReasonResultBus:
		return "result-bus"
	case ReasonMemBank:
		return "memory-bank"
	case ReasonBranch:
		return "branch"
	case ReasonBufferFull:
		return "buffer-full"
	case ReasonIssueWidth:
		return "issue-width"
	case ReasonDrain:
		return "drain"
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// Reasons returns every reason in declaration order.
func Reasons() []Reason {
	rs := make([]Reason, NumReasons)
	for i := range rs {
		rs[i] = Reason(i)
	}
	return rs
}
