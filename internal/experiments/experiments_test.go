package experiments

import (
	"strings"
	"testing"
)

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"smoke": ScaleSmoke, "default": ScaleDefault, "full": ScaleFull} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("want error for unknown scale")
	}
}

func TestParamsForScales(t *testing.T) {
	smoke := ParamsFor(ScaleSmoke)
	def := ParamsFor(ScaleDefault)
	full := ParamsFor(ScaleFull)
	if smoke.Rounds >= def.Rounds || def.Rounds >= full.Rounds {
		t.Fatal("round counts must grow with scale")
	}
	if full.Img != 16 || full.DistillBatch != 256 {
		t.Fatalf("full scale must use paper sizes, got %+v", full)
	}
}

func TestBuildDataset(t *testing.T) {
	p := ParamsFor(ScaleSmoke)
	for name, spec := range datasetSpecs {
		ds, err := buildDataset(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Classes != spec.classes || ds.C != spec.channels || ds.H != p.Img {
			t.Fatalf("%s: got classes=%d C=%d H=%d", name, ds.Classes, ds.C, ds.H)
		}
	}
	if _, err := buildDataset("mnist", p); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestPublicForMapping(t *testing.T) {
	if publicFor("synthmnist") != "synthfashion" ||
		publicFor("synthfashion") != "synthmnist" ||
		publicFor("synthkmnist") != "synthfashion" ||
		publicFor("synthcifar10") != "synthcifar100" {
		t.Fatal("publicFor does not match Table I's pairing")
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if _, ok := ByID("table9"); ok {
		t.Fatal("ByID must reject unknown ids")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tb.AddRow("1", "2")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Fatalf("markdown:\n%s", md)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2\n") {
		t.Fatalf("csv:\n%s", csv)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow must panic on arity mismatch")
		}
	}()
	tb.AddRow("only-one")
}

func TestFigureRendering(t *testing.T) {
	f := &Figure{ID: "f", Title: "t", XLabel: "round", YLabel: "acc"}
	f.AddSeries("s1", []float64{1, 2}, []float64{0.5, 0.75})
	f.AddSeries("s2", []float64{1, 2}, []float64{0.25, 0.5})
	md := f.Markdown()
	if !strings.Contains(md, "| round | s1 | s2 |") || !strings.Contains(md, "| 1 | 0.5000 | 0.2500 |") {
		t.Fatalf("markdown:\n%s", md)
	}
	csv := f.CSV()
	if !strings.Contains(csv, "s1,1,0.500000") {
		t.Fatalf("csv:\n%s", csv)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddSeries must panic on length mismatch")
		}
	}()
	f.AddSeries("bad", []float64{1}, []float64{1, 2})
}

// TestSmokeTable1 runs the headline experiment end to end at smoke scale.
func TestSmokeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment in -short mode")
	}
	res, err := Table1(ParamsFor(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 5 {
		t.Fatalf("table1 shape wrong: %+v", res)
	}
	for _, row := range res.Tables[0].Rows {
		if !strings.HasSuffix(row[2], "%") || !strings.HasSuffix(row[3], "%") {
			t.Fatalf("accuracy cells not rendered: %v", row)
		}
	}
}

// TestSmokeFig2 verifies the gradient-norm probe produces the three
// series of Figure 2 with positive norms.
func TestSmokeFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment in -short mode")
	}
	res, err := Fig2(ParamsFor(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Figures[0]
	if len(f.Series) != 3 {
		t.Fatalf("fig2 needs 3 series, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		for _, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s has non-positive gradient norm %v", s.Name, y)
			}
		}
	}
}

// TestSmokeTable4 checks the prox ablation runs and renders both columns.
func TestSmokeTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment in -short mode")
	}
	res, err := Table4(ParamsFor(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables[0].Rows) != 2 || len(res.Tables[0].Rows[0]) != 3 {
		t.Fatalf("table4 shape wrong: %+v", res.Tables[0].Rows)
	}
}

// TestSmokeScale checks the device-count scaling scenario: every sweep
// point must produce a full accounting row, and the custom-sweep override
// must be honoured.
func TestSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment in -short mode")
	}
	p := ParamsFor(ScaleSmoke)
	p.ScaleDevices = []int{6, 16}
	p.Fed.SampleK = 4
	res, err := ScaleSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 2 {
		t.Fatalf("scale sweep rows = %d, want 2", len(rows))
	}
	for i, want := range []string{"6", "16"} {
		if rows[i][0] != want {
			t.Fatalf("row %d devices = %s, want %s", i, rows[i][0], want)
		}
		if rows[i][1] != "uniform-4" {
			t.Fatalf("row %d policy = %s, want uniform-4", i, rows[i][1])
		}
		if !strings.HasSuffix(rows[i][13], "%") || !strings.HasSuffix(rows[i][14], "%") {
			t.Fatalf("row %d accuracy cells not rendered: %v", i, rows[i])
		}
		// The full-vs-sampled server-phase comparison and the
		// sync-vs-pipelined wall-time comparison must render real
		// durations and speedup ratios.
		if !strings.HasSuffix(rows[i][9], "×") {
			t.Fatalf("row %d server speedup cell not rendered: %v", i, rows[i])
		}
		if !strings.HasSuffix(rows[i][12], "×") {
			t.Fatalf("row %d pipeline speedup cell not rendered: %v", i, rows[i])
		}
	}
	if _, err := ScaleSweep(Params{Scale: ScaleSmoke, ScaleDevices: []int{0}}); err == nil {
		t.Fatal("ScaleSweep accepted a zero device count")
	}
}
