package experiments

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tradefl/internal/baselines"
)

func quick(t *testing.T, id string) *Figure {
	t.Helper()
	fig, err := Run(id, Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if fig.ID != id {
		t.Errorf("figure ID %q, want %q", fig.ID, id)
	}
	if len(fig.Series) == 0 {
		t.Fatalf("%s: no series", id)
	}
	for _, s := range fig.Series {
		if len(s.X) != len(s.Y) {
			t.Errorf("%s/%s: X/Y length mismatch", id, s.Name)
		}
	}
	return fig
}

// committed reads the full-resolution figure id from results/id.csv, the
// file the drift gate regenerates byte for byte. Notes and labels are not
// read back: the shape checks look at the series only.
func committed(t *testing.T, id string) *Figure {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", id+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fig := &Figure{ID: id}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, ok := strings.CutPrefix(line, "series,"); ok {
			fig.Series = append(fig.Series, Series{Name: name})
			continue
		}
		xs, ys, ok := strings.Cut(line, ",")
		x, errX := strconv.ParseFloat(xs, 64)
		y, errY := strconv.ParseFloat(ys, 64)
		if !ok || errX != nil || errY != nil || len(fig.Series) == 0 {
			t.Fatalf("%s.csv: malformed line %q", id, line)
		}
		last := &fig.Series[len(fig.Series)-1]
		last.X = append(last.X, x)
		last.Y = append(last.Y, y)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) == 0 {
		t.Fatalf("%s.csv: no series", id)
	}
	return fig
}

// shape runs check on figure id twice: in quick mode, and on the committed
// full-resolution CSV.
func shape(t *testing.T, id string, check func(t *testing.T, fig *Figure)) {
	t.Run("quick", func(t *testing.T) { check(t, quick(t, id)) })
	t.Run("committed", func(t *testing.T) { check(t, committed(t, id)) })
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"table1", "table2", "ext-personalization", "ext-campaign",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFig2ShapeProperty(t *testing.T) {
	shape(t, "fig2", func(t *testing.T, fig *Figure) {
		// Each curve: accuracy gain at full data above gain at 10%.
		for _, s := range fig.Series {
			if s.Y[len(s.Y)-1] <= s.Y[0] {
				t.Errorf("fig2 %s: no accuracy gain from more data (%v)", s.Name, s.Y)
			}
		}
	})
}

func TestFig4CGBDLeads(t *testing.T) {
	shape(t, "fig4", func(t *testing.T, fig *Figure) {
		cgbd := fig.SeriesByName("CGBD")
		dbr := fig.SeriesByName("DBR")
		fip := fig.SeriesByName("FIP")
		if cgbd == nil || dbr == nil || fip == nil {
			t.Fatal("missing scheme series")
		}
		last := func(s *Series) float64 { return s.Y[len(s.Y)-1] }
		if last(cgbd) < last(dbr)-1e-6 {
			t.Errorf("CGBD final potential %v below DBR %v", last(cgbd), last(dbr))
		}
		if last(dbr) < last(fip)-1e-6 {
			t.Errorf("DBR final potential %v below FIP %v", last(dbr), last(fip))
		}
	})
}

func TestFig5PayoffsConverge(t *testing.T) {
	shape(t, "fig5", func(t *testing.T, fig *Figure) {
		if len(fig.Series) != 10 {
			t.Fatalf("got %d org series, want 10", len(fig.Series))
		}
		// Last two sweeps identical (converged).
		for _, s := range fig.Series {
			n := len(s.Y)
			if n >= 2 && s.Y[n-1] != s.Y[n-2] {
				t.Errorf("fig5 %s: payoff still moving at the end", s.Name)
			}
		}
	})
}

func TestFig6Ordering(t *testing.T) {
	shape(t, "fig6", func(t *testing.T, fig *Figure) {
		welfare := map[string]float64{}
		for _, s := range fig.Series {
			welfare[s.Name] = s.Y[0]
		}
		if welfare["DBR"] <= welfare["WPR"] {
			t.Errorf("DBR %v not above WPR %v", welfare["DBR"], welfare["WPR"])
		}
		if welfare["TOS"] >= welfare["DBR"] {
			t.Errorf("TOS %v not below DBR %v", welfare["TOS"], welfare["DBR"])
		}
	})
}

func TestFig7NonMonotonic(t *testing.T) {
	shape(t, "fig7", func(t *testing.T, fig *Figure) {
		s := fig.Series[0]
		// Welfare rises from γ=0 to the peak and the last point is below
		// the peak: the paper's non-monotonicity.
		best := 0
		for i := range s.Y {
			if s.Y[i] > s.Y[best] {
				best = i
			}
		}
		if best == 0 || best == len(s.Y)-1 {
			t.Errorf("welfare peak at boundary (index %d of %d): %v", best, len(s.Y), s.Y)
		}
	})
}

func TestFig9DamageFallsWithGamma(t *testing.T) {
	shape(t, "fig9", func(t *testing.T, fig *Figure) {
		dbr := fig.SeriesByName("DBR")
		wpr := fig.SeriesByName("WPR")
		if dbr == nil || wpr == nil {
			t.Fatal("missing series")
		}
		if dbr.Y[len(dbr.Y)-1] >= dbr.Y[0] {
			t.Errorf("DBR damage did not fall with γ: %v", dbr.Y)
		}
		// WPR ignores γ entirely: flat.
		for i := 1; i < len(wpr.Y); i++ {
			if wpr.Y[i] != wpr.Y[0] {
				t.Errorf("WPR damage varies with γ: %v", wpr.Y)
				break
			}
		}
	})
}

func TestFig10HasPeaksPerMu(t *testing.T) {
	fig := quick(t, "fig10")
	if len(fig.Notes) == 0 {
		t.Error("fig10 missing γ* notes")
	}
	for _, n := range fig.Notes {
		if !strings.Contains(n, "γ*") {
			t.Errorf("note %q missing γ*", n)
		}
	}
}

func TestFig11WelfareFallsWithMu(t *testing.T) {
	fig := quick(t, "fig11")
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] >= s.Y[0] {
			t.Errorf("fig11 %s: welfare did not fall as μ grew: %v", s.Name, s.Y)
		}
	}
}

func TestFig12DBRBeatsGCAOnData(t *testing.T) {
	fig := quick(t, "fig12")
	dbr := fig.SeriesByName("data:DBR")
	gca := fig.SeriesByName("data:GCA")
	tos := fig.SeriesByName("data:TOS")
	if dbr == nil || gca == nil || tos == nil {
		t.Fatal("missing data series")
	}
	// TOS is flat at N.
	for _, v := range tos.Y {
		if v != 10 {
			t.Errorf("TOS data %v, want 10", v)
		}
	}
	// At γ* (mid-sweep) DBR contributes more than GCA; at extreme γ both
	// saturate toward full contribution, so compare at the interior point.
	points, _, err := schemesAtGamma(Options{Seed: 7, Quick: true}, 2e-8)
	if err != nil {
		t.Fatal(err)
	}
	if points[baselines.SchemeDBR].data <= points[baselines.SchemeGCA].data {
		t.Errorf("DBR data %v not above GCA %v at γ*",
			points[baselines.SchemeDBR].data, points[baselines.SchemeGCA].data)
	}
}

func TestFig13And14LossSeries(t *testing.T) {
	for _, id := range []string{"fig13", "fig14"} {
		fig := quick(t, id)
		for _, s := range fig.Series {
			if len(s.Y) == 0 {
				t.Errorf("%s/%s: empty loss curve", id, s.Name)
				continue
			}
			if s.Y[len(s.Y)-1] >= s.Y[0] {
				t.Errorf("%s/%s: loss did not decrease (%v -> %v)", id, s.Name, s.Y[0], s.Y[len(s.Y)-1])
			}
		}
	}
}

func TestFig15TOSBest(t *testing.T) {
	fig := quick(t, "fig15")
	accs := map[string]float64{}
	for _, s := range fig.Series {
		accs[s.Name] = s.Y[0]
	}
	// TOS trains on all data: best or tied accuracy.
	tos := accs["mobilenet-svhn:"+string(baselines.SchemeTOS)]
	dbr := accs["mobilenet-svhn:"+string(baselines.SchemeDBR)]
	wpr := accs["mobilenet-svhn:"+string(baselines.SchemeWPR)]
	if tos < dbr-0.05 {
		t.Errorf("TOS accuracy %v well below DBR %v", tos, dbr)
	}
	// DBR (large data at γ*) must beat WPR (minimal data).
	if dbr <= wpr {
		t.Errorf("DBR accuracy %v not above WPR %v", dbr, wpr)
	}
}

func TestTable1AllFunctionsExercised(t *testing.T) {
	fig := quick(t, "table1")
	if len(fig.Series) != 5 {
		t.Fatalf("got %d functions, want 5 (Table I)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if s.Y[0] < 1 {
			t.Errorf("function %s never invoked", s.Name)
		}
	}
	if len(fig.Notes) == 0 || !strings.Contains(fig.Notes[0], "verified=true") {
		t.Errorf("settlement not verified: %v", fig.Notes)
	}
}

func TestTable2Ranges(t *testing.T) {
	fig := quick(t, "table2")
	p := fig.SeriesByName("p_i")
	if p == nil {
		t.Fatal("missing p_i")
	}
	for _, v := range p.Y {
		if v < 500 || v > 2500 {
			t.Errorf("p_i = %v outside Table II range", v)
		}
	}
}

func TestCSVRendering(t *testing.T) {
	fig := &Figure{
		ID: "figX", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "a", X: []float64{1, 2}, Y: []float64{3, 4}}},
		Notes:  []string{"hello"},
	}
	csv := fig.CSV()
	for _, want := range []string{"# figX: T", "series,a", "1,3", "2,4", "# note: hello"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
}

func TestDeterministicFigures(t *testing.T) {
	a, err := Run("fig7", Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("fig7", Options{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("fig7 not deterministic")
	}
}
