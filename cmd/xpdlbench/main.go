// Command xpdlbench regenerates every table and figure of the paper's
// evaluation section (§4). With no flags it runs everything.
//
// Usage:
//
//	xpdlbench [-fig12] [-fig13] [-cpi] [-fmax] [-compile] [-taxonomy]
//	          [-rounds N] [-exec engine]
//
// -exec selects the executor for the CPI matrix (interp|closure|vm).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"xpdl/internal/bench"
	"xpdl/internal/sim"
	"xpdl/internal/workloads"
)

func main() {
	fig12 := flag.Bool("fig12", false, "area of processor implementations (Figure 12)")
	fig13 := flag.Bool("fig13", false, "lines of code per region (Figure 13)")
	cpi := flag.Bool("cpi", false, "CPI across variants and workloads")
	fmax := flag.Bool("fmax", false, "maximum frequency model")
	compile := flag.Bool("compile", false, "compilation time")
	taxonomy := flag.Bool("taxonomy", false, "Table 1 category demonstrations")
	rounds := flag.Int("rounds", 5, "averaging rounds for compile-time measurement")
	execFlag := flag.String("exec", "", "executor for the CPI matrix: "+strings.Join(sim.Engines(), "|"))
	flag.Parse()

	all := !*fig12 && !*fig13 && !*cpi && !*fmax && !*compile && !*taxonomy

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "xpdlbench:", err)
		os.Exit(1)
	}
	if _, err := sim.ParseEngine(*execFlag); err != nil {
		fail(err)
	}

	if all || *fig12 {
		rows, err := bench.Fig12()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.Fig12String(rows))
	}
	if all || *fig13 {
		fmt.Println(bench.Fig13String(bench.Fig13()))
	}
	if all || *cpi {
		cells, err := bench.CPITableEngine(workloads.All(), *execFlag)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.CPIString(cells))
	}
	if all || *fmax {
		rows, err := bench.FMax()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FMaxString(rows))
	}
	if all || *compile {
		rows, err := bench.CompileTimes(*rounds)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.CompileString(rows))
	}
	if all || *taxonomy {
		rows, err := bench.Taxonomy()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.TaxonomyString(rows))
	}
}
