package experiments

import (
	"strconv"
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
	for name, want := range map[string]struct{ classes, channels int }{
		"synthmnist": {10, 1}, "synthkmnist": {10, 1}, "synthfashion": {10, 1},
		"synthcifar10": {10, 3}, "synthcifar100": {100, 3}, "synthsvhn": {10, 3},
	} {
		ds, err := buildDataset(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Classes != want.classes || ds.C != want.channels || ds.H != p.Img {
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
	// The runner is the paper ledger plus ablations and nothing else: time
	// and bytes are bench/'s question, byte-identity the golden tests'.
	want := []string{"table1", "fig2", "fig3", "fig4", "table2", "fig5", "table3", "fig6", "table4", "fig7",
		"commbytes", "gensweep", "codecs"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %q, want %q", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
		if got, ok := ByID(e.ID); !ok || got.ID != e.ID {
			t.Fatalf("ByID(%q) = %v, %v", e.ID, got.ID, ok)
		}
	}
	for _, id := range []string{"table9", "scale"} {
		if _, ok := ByID(id); ok {
			t.Fatalf("ByID accepted %q", id)
		}
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

// TestSmokeCodecs checks the one number only this ablation produces —
// accuracy under each codec against float64 — and that the quantised
// codecs report the savings they exist for.
func TestSmokeCodecs(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke experiment in -short mode")
	}
	res, err := Codecs(ParamsFor(ScaleSmoke))
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != 3 || rows[0][0] != "float64" || rows[1][0] != "float16" || rows[2][0] != "int8" {
		t.Fatalf("codecs rows wrong: %v", rows)
	}
	if rows[0][4] != "+0.00pp" {
		t.Fatalf("float64 row's delta = %q, want exactly 0", rows[0][4])
	}
	num := func(cell string) float64 {
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	for _, row := range rows[1:] {
		if num(row[1]) >= num(rows[0][1]) || num(row[2]) >= num(rows[0][2]) {
			t.Fatalf("%s reports no saving over float64: %v vs %v", row[0], row, rows[0])
		}
		if !strings.HasSuffix(row[3], "%") || !strings.HasSuffix(row[4], "pp") {
			t.Fatalf("accuracy cells not rendered: %v", row)
		}
	}
}
