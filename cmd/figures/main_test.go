package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmavail/internal/experiments"
)

func figures(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestList: -list names every registered driver, one per line.
func TestList(t *testing.T) {
	code, stdout, _ := figures("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	all := experiments.All()
	if got := strings.Count(stdout, "\n"); got != len(all) || got == 0 {
		t.Fatalf("-list printed %d lines for %d drivers", got, len(all))
	}
	for _, d := range all {
		if !strings.Contains(stdout, d.ID+" ") {
			t.Errorf("-list omits %s", d.ID)
		}
	}
}

// TestOneFigure: a named artefact renders to stdout and writes its CSV
// under -out.
func TestOneFigure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv") // run creates it
	code, stdout, stderr := figures("-fig", "fig7", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "==== fig7 — ") {
		t.Errorf("no fig7 banner in:\n%s", stdout)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig7_chart0.csv"))
	if err != nil || bytes.Count(csv, []byte("\n")) < 2 {
		t.Fatalf("fig7 CSV: %d bytes, err %v", len(csv), err)
	}
}

func TestUnknownFigureExits2(t *testing.T) {
	code, stdout, stderr := figures("-fig", "fig99", "-out", "")
	if code != 2 || !strings.Contains(stderr, `unknown artefact "fig99"`) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 naming the artefact", code, stdout, stderr)
	}
}
