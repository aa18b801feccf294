package core

import (
	"fmt"

	"mfup/internal/events"
	"mfup/internal/probe"
	"mfup/internal/ruu"
	"mfup/internal/trace"
)

// ruuMachine adapts the Register Update Unit simulator (§5.3,
// internal/ruu) to the Machine interface.
type ruuMachine struct {
	cfg Config
	sim *ruu.Simulator
}

// machineConfig exposes the configuration to the extrapolation engine.
func (m *ruuMachine) machineConfig() Config { return m.cfg }

// newRUU builds the §5.3 machine: cfg.IssueUnits issue units over a
// cfg.RUUSize-entry Register Update Unit with the cfg.Bus
// interconnect (bus.BusN or bus.Bus1).
func newRUU(cfg Config) (Machine, error) {
	if cfg.IssueUnits < 1 || cfg.RUUSize < cfg.IssueUnits {
		return nil, fmt.Errorf("core: RUU needs IssueUnits >= 1 and RUUSize >= IssueUnits, got %+v", cfg)
	}
	sim, err := ruu.New(ruu.Config{
		MemLatency:      cfg.MemLatency,
		BranchLatency:   cfg.BranchLatency,
		IssueUnits:      cfg.IssueUnits,
		Size:            cfg.RUUSize,
		Bus:             cfg.Bus,
		MemBanks:        cfg.MemBanks,
		PerfectBranches: cfg.PerfectBranches,
		FULat:           cfg.FULat,
		FUCount:         cfg.FUCount,
	})
	if err != nil {
		return nil, err
	}
	return &ruuMachine{cfg: cfg, sim: sim}, nil
}

func (m *ruuMachine) Name() string { return m.sim.Name() }

func (m *ruuMachine) SetProbe(p *probe.Counters) { m.sim.SetProbe(p) }

func (m *ruuMachine) SetRecorder(r *events.Recorder) { m.sim.SetRecorder(r) }

// RunChecked simulates t under the limits, delegating to the RUU
// simulator's own checked entry point.
func (m *ruuMachine) RunChecked(t *trace.Trace, lim Limits) (Result, error) {
	if err := scalarOnly(m.Name(), t.Prepared()); err != nil {
		return Result{}, err
	}
	cycles, err := m.sim.RunChecked(t, ruu.Limits{
		MaxCycles:   lim.MaxCycles,
		StallCycles: lim.StallCycles,
		Deadline:    lim.Deadline,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Machine:      m.Name(),
		Trace:        t.Name,
		Instructions: int64(len(t.Ops)),
		Cycles:       cycles,
	}, nil
}
