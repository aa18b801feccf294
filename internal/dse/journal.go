package dse

import (
	"encoding/json"
	"fmt"
	"strconv"

	"mfup/internal/journal"
)

// Journal is the sweep's resume mechanism: a JSONL file with one line
// per simulated point, keyed by the point's full content key — the
// machine definition's content address plus the workload (loop class
// and scale). Unlike the table checkpoint, which keys cells by grid
// position and therefore needs a signature header, a mismatched
// resume here misses by construction: change anything that affects a
// point's rate and its key changes with it, so the stale line is
// simply never looked up.
//
// One line per point:
//
//	{"key":"dse-point/...","rate":"0x1.9c7ep-01"}
//
// Rates are hex float literals, which round-trip exactly. The file
// handling — lock, torn-tail repair, sticky write failures — is
// internal/journal's, through the "write.dsejournal" fault site.
type Journal struct {
	j *journal.Journal[string, float64]
}

// journalLine is the JSONL wire form.
type journalLine struct {
	Key  string `json:"key"`
	Rate string `json:"rate"`
}

var journalScheme = journal.Scheme[string, float64]{
	Name: "dse journal",
	Site: "write.dsejournal",
	Encode: func(key string, rate float64) ([]byte, error) {
		return json.Marshal(journalLine{Key: key, Rate: strconv.FormatFloat(rate, 'x', -1, 64)})
	},
	Decode: func(line []byte) (string, float64, error) {
		var jl journalLine
		if err := json.Unmarshal(line, &jl); err != nil {
			return "", 0, err
		}
		rate, err := strconv.ParseFloat(jl.Rate, 64)
		if err != nil || jl.Key == "" {
			return "", 0, fmt.Errorf("bad record %s", line)
		}
		return jl.Key, rate, nil
	},
}

// OpenJournal opens (creating if absent) the sweep journal at path,
// loading every complete line. Unparseable complete lines are errors;
// a torn final line is dropped and truncated away.
func OpenJournal(path string) (*Journal, error) {
	j, err := journal.Open(path, journalScheme)
	if err != nil {
		return nil, err
	}
	return &Journal{j}, nil
}

// Lookup returns the journaled rate for a point key, if present.
func (j *Journal) Lookup(key string) (float64, bool) { return j.j.Get(key) }

// Record journals one simulated point. Non-finite and zero rates are
// skipped — failed points must be re-attempted on resume. Write
// failures are sticky and reported by Err, Flush and Close.
func (j *Journal) Record(key string, rate float64) {
	if rate != rate || rate == 0 {
		return
	}
	j.j.Put(key, rate)
}

// Loaded reports how many points an existing journal contributed.
func (j *Journal) Loaded() int { return j.j.Loaded() }

// Saved reports how many points this process appended.
func (j *Journal) Saved() int { return j.j.Saved() }

// Err returns the sticky write failure, if any, without closing.
func (j *Journal) Err() error { return j.j.Err() }

// Flush makes the journal durable without closing it.
func (j *Journal) Flush() error { return j.j.Flush() }

// Close syncs and closes the journal, returning the first write
// failure of its lifetime.
func (j *Journal) Close() error { return j.j.Close() }
