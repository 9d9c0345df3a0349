package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/progen"
)

// smallResults runs the harness over heavily scaled-down profiles so
// the unit tests stay fast; the full-scale run is `spike bench` and
// the repository benchmarks.
func smallResults(t *testing.T) []*Result {
	t.Helper()
	var out []*Result
	for _, name := range []string{"compress", "perl", "li"} {
		prof, ok := progen.ProfileByName(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		r, err := Run(prof.Scale(0.25), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestRunPopulatesEverything(t *testing.T) {
	results := smallResults(t)
	for _, r := range results {
		if r.Stats.PSGNodes == 0 || r.Stats.PSGEdges == 0 {
			t.Errorf("%s: empty PSG", r.Profile.Name)
		}
		// Branch nodes overwhelmingly reduce edges; an isolated switch
		// with one source and one sink can add one edge (s+t vs s×t),
		// so allow a small tolerance.
		if float64(r.NoBranchStats.PSGEdges) < float64(r.Stats.PSGEdges)*0.97 {
			t.Errorf("%s: branch nodes increased edges: %d with vs %d without",
				r.Profile.Name, r.Stats.PSGEdges, r.NoBranchStats.PSGEdges)
		}
		if r.BaselineArcs == 0 {
			t.Errorf("%s: baseline arcs missing", r.Profile.Name)
		}
		if r.Stats.Total() <= 0 {
			t.Errorf("%s: no stage timing", r.Profile.Name)
		}
	}
}

func TestBranchNodeReductionOrdering(t *testing.T) {
	// perl's profile is switch-heavy; li's is not. The branch-node
	// edge reduction must reflect that (Table 4's shape).
	results := smallResults(t)
	reduction := map[string]float64{}
	for _, r := range results {
		reduction[r.Profile.Name] = 1 - float64(r.Stats.PSGEdges)/float64(r.NoBranchStats.PSGEdges)
	}
	if reduction["perl"] <= reduction["li"] {
		t.Errorf("perl reduction (%.1f%%) should exceed li (%.1f%%)",
			reduction["perl"]*100, reduction["li"]*100)
	}
}

func TestTablesRender(t *testing.T) {
	results := smallResults(t)
	renderers := map[string]func(*bytes.Buffer){
		"table1":   func(b *bytes.Buffer) { Table1(b, results) },
		"table2":   func(b *bytes.Buffer) { Table2(b, results) },
		"table3":   func(b *bytes.Buffer) { Table3(b, results) },
		"table4":   func(b *bytes.Buffer) { Table4(b, results) },
		"table5":   func(b *bytes.Buffer) { Table5(b, results) },
		"figure13": func(b *bytes.Buffer) { Figure13(b, results) },
		"waves":    func(b *bytes.Buffer) { WavesTable(b, results) },
		"figure14": func(b *bytes.Buffer) { Figure14(b, results) },
		"figure15": func(b *bytes.Buffer) { Figure15(b, results) },
	}
	for name, render := range renderers {
		var buf bytes.Buffer
		render(&buf)
		out := buf.String()
		if len(out) < 80 {
			t.Errorf("%s: suspiciously short output", name)
		}
		for _, r := range results {
			if name == "table1" {
				continue // table 1 covers PC applications only
			}
			if !strings.Contains(out, r.Profile.Name) {
				t.Errorf("%s: missing row for %s", name, r.Profile.Name)
			}
		}
	}
}

func TestStageFractionsSumToOne(t *testing.T) {
	for _, r := range smallResults(t) {
		fr := r.Stats.StageFractions()
		sum := 0.0
		for _, f := range fr {
			sum += f
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: stage fractions sum to %.3f", r.Profile.Name, sum)
		}
	}
}

func TestRunOptMeetsImprovementShape(t *testing.T) {
	results, err := RunOpt(36, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var anyImprov bool
	for _, r := range results {
		if r.DynamicImprov < 0 {
			t.Errorf("seed %d: optimization slowed the program (%.2f%%)",
				r.Seed, r.DynamicImprov*100)
		}
		if r.DynamicImprov > 0.005 {
			anyImprov = true
		}
		if r.Report.InstructionsAfter > r.Report.InstructionsBefore {
			t.Errorf("seed %d: static size grew", r.Seed)
		}
	}
	if !anyImprov {
		t.Error("no workload showed a dynamic improvement")
	}
	var buf bytes.Buffer
	OptTable(&buf, results)
	if !strings.Contains(buf.String(), "Dynamic") {
		t.Error("OptTable output malformed")
	}
}

func TestTable5AverageLine(t *testing.T) {
	results := smallResults(t)
	var buf bytes.Buffer
	Table5(&buf, results)
	if !strings.Contains(buf.String(), "average") {
		t.Error("Table 5 must include the average row")
	}
}

func TestPlotsRender(t *testing.T) {
	results := smallResults(t)
	var buf bytes.Buffer
	PlotFigure14(&buf, results)
	PlotFigure15(&buf, results)
	out := buf.String()
	if !strings.Contains(out, "Figure 14 (plot)") || !strings.Contains(out, "Figure 15 (plot)") {
		t.Fatal("plot titles missing")
	}
	// Every benchmark contributes a mark.
	if !strings.ContainsAny(out, "sP") {
		t.Error("no data points plotted")
	}
	if len(strings.Split(out, "\n")) < 30 {
		t.Error("plots suspiciously short")
	}
}

func TestScatterEmpty(t *testing.T) {
	var buf bytes.Buffer
	scatter(&buf, "t", "x", "y", nil, 10, 5)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty scatter must say so")
	}
}
