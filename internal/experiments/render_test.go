package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmavail/internal/plot"
)

func sampleResult() *Result {
	return &Result{
		ID:          "fig-test",
		Description: "render test",
		Charts: []*plot.Chart{{
			Title:  "chart title",
			XLabel: "x",
			YLabel: "y",
			Series: []plot.Series{{Name: "s1", X: []float64{1, 2, 3}, Y: []float64{3, 1, 2}}},
		}},
		Timelines: []*plot.Timeline{{
			Title:   "tl",
			Horizon: 10,
			Spans:   []plot.Span{{Label: "a", Start: 1, End: 5}},
		}},
		Boxplots: []*plot.Boxplot{{
			Title:  "bp",
			Groups: []plot.BoxGroup{{Label: "g", P5: 1, Q1: 2, Median: 3, Q3: 4, P95: 5}},
		}},
		Tables: []Table{{
			Name:   "tbl",
			Header: []string{"k", "value"},
			Rows:   [][]string{{"1", "10"}, {"22", "3"}},
		}},
		Notes: []Note{{Text: "headline note"}},
	}
}

func TestWriteResultASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResult(&buf, sampleResult(), RenderOptions{Width: 40, Height: 8}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"chart title", "tl", "bp", "-- tbl --", "note: headline note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestWriteResultCSVDir(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := WriteResult(&buf, sampleResult(), RenderOptions{CSVDir: dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig-test_chart0.csv", "fig-test_timeline0.csv", "fig-test_boxplot0.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	if !strings.Contains(buf.String(), "wrote ") {
		t.Fatal("CSV writes not logged")
	}
}

func TestWriteResultBadChart(t *testing.T) {
	res := &Result{
		ID:     "broken",
		Charts: []*plot.Chart{{Series: []plot.Series{}}}, // nothing to draw
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res, RenderOptions{}); err == nil {
		t.Fatal("empty chart accepted")
	}
}

func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"fig6a":        "fig6a",
		"sec2.3":       "sec2_3",
		"a/b c":        "a_b_c",
		"table-bm":     "table-bm",
		"Ünïcode-name": "_n_code-name",
	}
	for in, want := range cases {
		if got := SanitizeID(in); got != want {
			t.Errorf("SanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	RenderTable(&buf, Table{
		Name:   "t",
		Header: []string{"aa", "b"},
		Rows:   [][]string{{"1", "222"}, {"333", "4", "extra"}},
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %v", lines)
	}
	// Columns aligned: header and rows share the same prefix width.
	if !strings.HasPrefix(lines[1], "  aa ") {
		t.Fatalf("header misaligned: %q", lines[1])
	}
	if !strings.Contains(lines[3], "extra") {
		t.Fatal("overflow cell dropped")
	}
}
