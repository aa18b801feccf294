package emu

// BackingWords reports how many memory words m has backed so far.
func BackingWords(m *Machine) int { return len(m.mem) }
