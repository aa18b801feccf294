// Quickstart: run one Livermore loop across the paper's four basic
// machine organizations and all four memory/branch variations, then
// show what dependency resolution (the RUU machine) buys on top.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mfup"
)

func main() {
	k := mfup.MustKernel(1) // LFK 1, the hydro fragment
	tr := k.SharedTrace()
	fmt.Printf("%s: %d dynamic instructions\n\n", k, tr.Len())

	// The §3 progression: each row adds execution overlap.
	fmt.Printf("%-14s", "")
	for _, cfg := range mfup.BaseConfigs() {
		fmt.Printf("%9s", cfg.Name())
	}
	fmt.Println()
	for _, kind := range []string{"simple", "serialmem", "nonseg", "cray"} {
		for i, cfg := range mfup.BaseConfigs() {
			m, err := mfup.New(kind, cfg)
			if err != nil {
				log.Fatal(err)
			}
			r, err := m.RunChecked(tr, mfup.SimLimits{})
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("%-14s", m.Name())
			}
			fmt.Printf("%9.3f", r.IssueRate())
		}
		fmt.Println()
	}

	// What the loop could do in principle (§4), and what an RUU
	// machine actually achieves (§5.3).
	fmt.Println()
	for _, cfg := range mfup.BaseConfigs() {
		lim := mfup.ComputeLimits(tr, cfg, mfup.Pure)
		m, err := mfup.New("ruu", cfg.WithIssue(4, mfup.BusN).WithRUU(50))
		if err != nil {
			log.Fatal(err)
		}
		ruu, err := m.RunChecked(tr, mfup.SimLimits{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: dataflow limit %.3f, RUU(4 units, 50 entries) achieves %.3f (%.0f%%)\n",
			cfg.Name(), lim.Actual, ruu.IssueRate(), 100*ruu.IssueRate()/lim.Actual)
	}
}
