// Command tripwire-report runs a pilot and regenerates individual tables
// and figures from the paper.
//
// Usage:
//
//	tripwire-report [-scale small|paper] [-seed N] -artifact table1|table2|table3|table4|fig1|fig2|fig3|sec64|all
package main

import (
	"flag"
	"fmt"
	"os"

	"tripwire"
	"tripwire/internal/report"
	"tripwire/internal/sim"
)

func main() {
	scale := flag.String("scale", "small", "study scale: small or paper")
	seed := flag.Int64("seed", 42, "simulation seed")
	artifact := flag.String("artifact", "all", "which artifact to print")
	flag.Parse()

	cfg, err := sim.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tripwire-report: %v\n", err)
		os.Exit(2)
	}
	cfg.Seed = *seed
	study := tripwire.New(tripwire.WithConfig(cfg)).Run()
	p := study.Pilot()

	switch *artifact {
	case "table1":
		fmt.Print(report.RenderTable1(report.Table1(p.ValidateAll())))
	case "table2":
		fmt.Print(report.RenderTable2(report.Table2(p)))
	case "table3":
		fmt.Print(report.RenderTable3(report.Table3(p)))
	case "table4":
		fmt.Print(report.RenderTable4(report.Table4(p, report.EligibilityRanks(p))))
	case "fig1":
		fmt.Print(report.RenderFig1(report.Fig1(p)))
	case "fig2":
		fmt.Print(report.Fig2(p))
	case "fig3":
		fmt.Print(report.RenderFig3(report.Fig3(p, p.ValidateAll())))
	case "sec64":
		fmt.Print(report.RenderSec64(report.Sec64(p)))
	case "all":
		fmt.Print(study.Summary())
	default:
		fmt.Fprintf(os.Stderr, "tripwire-report: unknown artifact %q\n", *artifact)
		os.Exit(2)
	}
}
