// Command arcrepro runs the paper-reproduction experiment suite (E01–E21,
// one per figure-level claim; the index is internal/experiments' register
// calls, each runner's comment naming its figure) and prints a
// paper-vs-measured table. Use -v for per-experiment evidence and -id to
// run a single experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	verbose := flag.Bool("v", false, "print per-experiment details")
	id := flag.String("id", "", "run a single experiment (e.g. E16)")
	flag.Parse()

	var reports []experiments.Report
	if *id != "" {
		r, err := experiments.Run(*id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arcrepro:", err)
			os.Exit(2)
		}
		reports = []experiments.Report{r}
	} else {
		reports = experiments.RunAll()
	}

	fmt.Println("ARC reproduction — paper claims vs measured behaviour")
	fmt.Println(strings.Repeat("=", 100))
	failures := 0
	for _, r := range reports {
		status := "PASS"
		if !r.Pass {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%-4s %-22s %-34s [%s]\n", r.ID, r.Figure, r.Title, status)
		fmt.Printf("     claim:    %s\n", r.PaperClaim)
		fmt.Printf("     measured: %s\n", r.Measured)
		if *verbose && r.Details != "" {
			for _, line := range strings.Split(strings.TrimRight(r.Details, "\n"), "\n") {
				fmt.Printf("     | %s\n", line)
			}
		}
		fmt.Println(strings.Repeat("-", 100))
	}
	fmt.Printf("%d/%d experiments pass\n", len(reports)-failures, len(reports))
	if failures > 0 {
		os.Exit(1)
	}
}
