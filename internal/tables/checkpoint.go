package tables

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"mfup/internal/journal"
)

// Checkpoint is a JSONL journal of completed table cells, the resume
// mechanism of interrupted sweeps: every healthy cell's harmonic-mean
// rate is appended as one line as soon as its batch resolves, and a
// later run against the same journal skips those cells entirely,
// producing byte-identical tables without recomputation.
//
// One line per cell, after a signature header:
//
//	{"table":3,"cell":17,"rate":"0x1.9c7ep-01"}
//
// Rates are recorded as Go hex floating-point literals, which round
// trip exactly — a resumed table must render the very same bytes, so
// "close to" is not close enough. Failed and non-finite cells are
// never journaled; a resumed run re-attempts them.
//
// The file handling — lock, torn-tail repair, sticky write failures —
// is internal/journal's: a process killed mid-append loses at most the
// line being written, which the next run simply recomputes. Lines are
// written through the "write.checkpoint" fault-injection site.
type Checkpoint struct {
	j *journal.Journal[checkpointKey, float64]
}

type checkpointKey struct {
	Table int
	Cell  int
}

// checkpointLine is the JSONL wire form.
type checkpointLine struct {
	Table int    `json:"table"`
	Cell  int    `json:"cell"`
	Rate  string `json:"rate"`
}

// checkpointHeader is the journal's first line: the signature of the
// grid the rates were computed under.
type checkpointHeader struct {
	Signature string `json:"signature"`
}

var errUnsigned = errors.New("journal has no signature header (written by an incompatible run?); its cell keys cannot be trusted — delete it or start a fresh journal")

// OpenCheckpoint opens (creating if absent) the journal at path and
// loads every complete line already in it (see internal/journal for
// torn tails and corrupt lines).
//
// The journal's first line is a signature header binding the rates to
// the grid that produced them (see JournalSignature): a fresh journal
// is stamped with signature, and an existing one must carry the very
// same stamp or the open fails closed. Cells are keyed (table, cell
// index), so a journal written at a different loop scale — or against
// a different set of machine definitions — holds rates whose keys
// alias cells that now mean something else; replaying them would
// corrupt the tables silently, which is worse than recomputing.
// Journals that predate the header are refused for the same reason.
func OpenCheckpoint(path, signature string) (*Checkpoint, error) {
	if signature == "" {
		return nil, fmt.Errorf("checkpoint: empty journal signature (use JournalSignature)")
	}
	header, _ := json.Marshal(checkpointHeader{Signature: signature}) // a string field cannot fail to marshal
	j, err := journal.Open(path, journal.Scheme[checkpointKey, float64]{
		Name:   "checkpoint",
		Site:   "write.checkpoint",
		Header: header,
		CheckHeader: func(line []byte) error {
			// A legacy cell line lands here too: it unmarshals with an
			// empty Signature and is refused as unsigned.
			var hdr checkpointHeader
			if line != nil {
				if err := json.Unmarshal(line, &hdr); err != nil {
					return err
				}
			}
			switch hdr.Signature {
			case "":
				return errUnsigned
			case signature:
				return nil
			}
			return fmt.Errorf("journal signature %.12s.. does not match this run's %.12s.. (different scale or machine grid); resuming would replay rates into the wrong cells — delete it or rerun with the journal's settings", hdr.Signature, signature)
		},
		Encode: func(k checkpointKey, rate float64) ([]byte, error) {
			return json.Marshal(checkpointLine{Table: k.Table, Cell: k.Cell, Rate: strconv.FormatFloat(rate, 'x', -1, 64)})
		},
		Decode: func(line []byte) (checkpointKey, float64, error) {
			var cl checkpointLine
			if err := json.Unmarshal(line, &cl); err != nil {
				return checkpointKey{}, 0, err
			}
			rate, err := strconv.ParseFloat(cl.Rate, 64)
			if err != nil {
				return checkpointKey{}, 0, fmt.Errorf("rate %q: %v", cl.Rate, err)
			}
			return checkpointKey{cl.Table, cl.Cell}, rate, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &Checkpoint{j}, nil
}

// Lookup returns the journaled rate of (table, cell), if present.
func (c *Checkpoint) Lookup(table, cell int) (float64, bool) {
	return c.j.Get(checkpointKey{table, cell})
}

// Record journals one completed cell. Non-finite rates are ignored
// (failed cells must be re-attempted on resume, not replayed). Write
// failures are sticky and reported by Close.
func (c *Checkpoint) Record(table, cell int, rate float64) {
	if rate != rate || rate == 0 { // NaN or degenerate
		return
	}
	c.j.Put(checkpointKey{table, cell}, rate)
}

// Loaded reports how many cells an existing journal contributed.
func (c *Checkpoint) Loaded() int { return c.j.Loaded() }

// Saved reports how many cells this process appended to the journal.
func (c *Checkpoint) Saved() int { return c.j.Saved() }

// Flush makes the journal durable without closing it — the SIGINT
// path flushes before the process exits so every completed cell
// survives the kill.
func (c *Checkpoint) Flush() error { return c.j.Flush() }

// Close syncs and closes the journal, returning the first write
// failure encountered over its lifetime (injected or real).
func (c *Checkpoint) Close() error { return c.j.Close() }
