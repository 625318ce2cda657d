package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStudySmallCampaign runs the whole campaign at a small size: both
// datasets are written with one record per swarm, the analysis re-reads
// as many trace records as were written, and the three §2 headline
// lines are printed.
func TestStudySmallCampaign(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-swarms", "50", "-census", "200", "-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	for name, want := range map[string]int{"availability_study.jsonl": 50, "census.jsonl": 200} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(raw, []byte("\n")); got != want {
			t.Errorf("%s holds %d records, want %d", name, got, want)
		}
	}
	for _, want := range []string{
		"swarms analysed:                 50\n",
		"fully seeded through month 1:",
		"availability ≤20% over trace:",
		"books: seedless",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
}

func TestStudyRefusesBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-swarm", "5"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "Usage of study") {
		t.Fatalf("exit %d, stderr %q; want 2 with usage", code, stderr.String())
	}
}
